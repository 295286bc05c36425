// Tile precision selection policies.
//
// `adaptive_precision_map` implements the Higham–Mary tile-wise criterion
// the paper adopts (its ref. [19]): in a blocked factorization the
// backward-error contribution of storing off-diagonal tile (i,j) with unit
// roundoff u_p is bounded by u_p * ||A_ij||_F, so the tile may use the
// cheapest precision satisfying
//
//     u_p * ||A_ij||_F  <=  epsilon * ||A||_F / nt.
//
// Diagonal tiles always keep the working precision (they carry the pivots).
//
// `band_precision_map` reproduces the hand-tuned "rainbow" baseline of the
// paper's Fig. 5 (its ref. [37]): tiles within a band of the diagonal stay
// FP32 and everything beyond drops to the low precision, parameterized by
// the fraction of off-diagonal tile *diagonals* kept in FP32.
#pragma once

#include <optional>
#include <vector>

#include "linalg/low_rank.hpp"
#include "tile/precision_map.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tile_slot.hpp"

namespace kgwas {

struct AdaptivePolicy {
  /// Backward-error target of the factorization.  The criterion ratio
  /// u_p * ||A_ij|| * nt / (epsilon * ||A||) is scale-free, so for
  /// off-diagonal tiles whose norms are comparable to the matrix average
  /// the threshold that admits FP16 storage is epsilon >~ u_fp16 ~ 5e-4.
  /// The default (2e-3) is the paper's operating point: FP32-worthy
  /// *output* accuracy with FP16 off-diagonal tiles on well-scaled kernel
  /// matrices (Fig. 4a).  Tighten it to force more FP32 tiles; loosen to
  /// ~6e-2 to admit FP8 everywhere (Fig. 4b).
  double epsilon = 2e-3;
  /// Working precision for diagonal tiles (and the fallback).
  Precision working = Precision::kFp32;
  /// Narrow formats the hardware offers, cheapest last.  A100: {FP16};
  /// GH200: {FP16, FP8}.  The policy picks the cheapest admissible one.
  std::vector<Precision> available{Precision::kFp16};
};

/// Computes the per-tile precision map for a symmetric tiled matrix.
PrecisionMap adaptive_precision_map(const SymmetricTileMatrix& matrix,
                                    const AdaptivePolicy& policy);

/// Index of lower tile (ti, tj), ti >= tj, in the column-packed layout
/// `lower_tile_norms` uses: tiles of column tj precede those of tj+1,
/// top to bottom.
inline std::size_t lower_tile_index(std::size_t nt, std::size_t ti,
                                    std::size_t tj) {
  return tj * nt - tj * (tj - 1) / 2 + (ti - tj);
}

/// Norm-vector variant of the adaptive policy: `lower_tile_norms` holds
/// the Frobenius norm of every lower tile (lower_tile_index order,
/// nt*(nt+1)/2 entries).  The arithmetic replays adaptive_precision_map
/// exactly, so a distributed caller that allreduces per-tile norms (each
/// owned norm summed against zeros — exact in FP) gets the identical map
/// on every rank, bit for bit.
PrecisionMap adaptive_precision_map_from_norms(
    const std::vector<double>& lower_tile_norms, std::size_t nt,
    const AdaptivePolicy& policy);

/// Band ("rainbow") policy: off-diagonal tile (i,j) keeps `working` when
/// (i - j) <= round(fp32_fraction * (nt - 1)), else uses `low`.
PrecisionMap band_precision_map(std::size_t tile_count, double fp32_fraction,
                                Precision low,
                                Precision working = Precision::kFp32);

/// Memory footprint (bytes) a map implies for tiles of size `tile_size`
/// covering an n x n symmetric matrix — the paper's footprint metric.
std::size_t map_storage_bytes(const PrecisionMap& map, std::size_t n,
                              std::size_t tile_size);

/// One full escalation step for a breakdown at diagonal tile `t`: the
/// failing band first, the leading sub-triangle once the band is
/// saturated.  Shared by the shared-memory and distributed retry loops
/// so both evolve the map identically (a requirement of the dist path's
/// bitwise rank invariance).  Returns tiles changed; 0 means escalation
/// cannot help (everything feeding the minor is at working precision).
std::size_t escalate_step(PrecisionMap& map, std::size_t t,
                          Precision working);

// --- TLR admissibility (paper Section VIII) ------------------------------

/// Joint rank + storage-precision policy for the TLR representation.
/// Admissibility and precision are decided together, per tile: the rank
/// comes from the relative truncation tolerance, the factor storage
/// precision from the same precision map the dense tile would have used
/// (TLR composes with, rather than replaces, the mixed-precision mosaic).
struct TlrPolicy {
  /// Relative compression tolerance (keep sigma_i > tol * sigma_0), in
  /// [0, 1).  0 disables TLR entirely — the dense pipeline runs untouched.
  double tol = 0.0;
  /// A compressed tile is kept only while rank * (m + n) <=
  /// max_rank_fraction * m * n; beyond that the factored form costs more
  /// than the dense tile and the slot stays (or becomes) dense.
  double max_rank_fraction = 0.5;
};

/// Tiles with min(m, n) below this stay dense: the factored form's
/// constant costs swamp any saving on tiny edge tiles.
inline constexpr std::size_t kTlrMinDim = 16;

/// Reads TlrPolicy from the environment: KGWAS_TLR_TOL (default 0 = off)
/// and KGWAS_TLR_MAX_RANK_FRACTION (default 0.5).  A malformed value, or
/// a tolerance >= 1, warns and keeps the default.
TlrPolicy tlr_policy_from_env();

/// Throws InvalidArgument unless 0 <= policy.tol < 1 (NaN fails too): at
/// tol >= 1 the relative truncation keeps nothing, and every compressible
/// tile would silently become zero.
void check_tlr_policy(const TlrPolicy& policy);

/// What plan_tlr_compression did — the compressed-vs-dense footprint data
/// the paper's memory argument is about.
struct TlrCompressionStats {
  std::size_t tiles_compressed = 0;
  std::size_t tiles_dense = 0;        ///< off-diagonal tiles left dense
  std::size_t compressed_bytes = 0;   ///< factor bytes of compressed tiles
  std::size_t dense_bytes = 0;        ///< what those tiles would have cost
  std::size_t max_rank = 0;
  double mean_rank = 0.0;             ///< over compressed tiles
};

/// Compression of one off-diagonal tile, independent of any precision
/// map: compress_block's factor at `policy.tol` under the crossover
/// rule's rank cap, or nothing when the tile is below kTlrMinDim
/// on a side, its rank fails the crossover rule, or it holds a NaN or Inf
/// (the tile then stays dense).
std::optional<LowRankFactor> compress_tile(const Tile& tile,
                                           const TlrPolicy& policy);

/// Per-lower-tile TLR outcome and footprint, in lower_tile_index order.
/// Each tile's entries are written by whoever installs that tile (one
/// task per tile) and totalled afterwards, so the stats never depend on
/// installation order.  Entries of tiles another rank owns stay 0, so a
/// distributed caller sums the vectors across ranks exactly.
struct TlrTally {
  TlrTally() = default;
  explicit TlrTally(std::size_t tile_count)
      : ranks(tile_count * (tile_count + 1) / 2, 0.0),
        bytes(ranks.size(), 0.0) {}

  /// rank + 1 of a tile installed low-rank; 0 for a dense tile.
  std::vector<double> ranks;
  /// Slot storage bytes once the tile's outcome is installed.
  std::vector<double> bytes;

  /// Installs off-diagonal tile `idx`'s compression outcome into `slot`:
  /// an admissible `factor` becomes a TlrTile stored at `precision` (the
  /// precision the dense tile is mapped to — rank removes the smooth
  /// redundancy, the narrow format cheapens what remains); none leaves
  /// the slot dense.  Records the tile's entries and bumps the
  /// tlr.tiles_compressed / tlr.tiles_dense counters and the
  /// tlr.tile_rank histogram.  Safe to call concurrently for distinct
  /// tiles.
  void install(std::size_t idx, TileSlot& slot,
               std::optional<LowRankFactor> factor, Precision precision);

  /// Totals over the off-diagonal tiles of an n x n matrix of
  /// `tile_size` tiles; a tile not installed low-rank counts as dense.
  TlrCompressionStats stats(const PrecisionMap& map, std::size_t n,
                            std::size_t tile_size) const;
  /// Sum of `bytes`: the matrix footprint once every tile is installed.
  std::size_t storage_bytes() const;
};

/// Compresses every admissible off-diagonal tile of `matrix` in place:
/// rank from `policy.tol` (relative truncation), factor storage precision
/// from `map` (the precision the dense tile would have had), keeping the
/// dense tile whenever the factored form fails the crossover rule.  Also
/// stamps the matrix's TLR options so the factorization kernels
/// re-compress at the same tolerance.  Call BEFORE PrecisionMap::apply so
/// factors quantize once, from full-fidelity values.  A zero `policy.tol`
/// is a no-op returning all-dense stats.  The serial loop over
/// compress_tile and TlrTally::install that associate() runs as per-tile
/// tasks (linalg/tile_prepare.hpp).  Throws InvalidArgument for a
/// tolerance outside [0, 1) (check_tlr_policy).
TlrCompressionStats plan_tlr_compression(SymmetricTileMatrix& matrix,
                                         const PrecisionMap& map,
                                         const TlrPolicy& policy);

}  // namespace kgwas
