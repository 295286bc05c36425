// Distributed tiled matrices over the existing tile containers.
//
// DistSymmetricTileMatrix (the kernel the Cholesky factors) is sharded 2D
// block-cyclically (ProcessGrid decides ownership) and holds only the
// tiles this rank owns: a tile received from another rank belongs to the
// round of the algorithm that expected it (dist/progress.hpp), not to the
// matrix.  DistTileMatrix (the Predict cross-kernel) is sharded by tile
// row: each rank builds and sums exactly its own row blocks.  Tile
// payloads come from the global TilePool either way, so the distributed
// path inherits the pooled zero-steady-state-allocation behavior of the
// shared-memory path.
//
// Threading contract (matches how the distributed algorithms run): the
// rank's driving thread creates local tiles before submitting a task
// graph; runtime workers only read/write tile payloads of existing
// entries, ordered by the task graph.  The containers themselves are not
// concurrency primitives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dist/communicator.hpp"
#include "dist/process_grid.hpp"
#include "tile/precision_map.hpp"
#include "tile/tile.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tile_slot.hpp"

namespace kgwas::dist {

/// Symmetric n x n matrix as lower-triangular tiles (ti >= tj), sharded
/// block-cyclically — the distributed twin of SymmetricTileMatrix.
class DistSymmetricTileMatrix {
 public:
  DistSymmetricTileMatrix(std::size_t n, std::size_t tile_size,
                          const ProcessGrid& grid, int my_rank,
                          Precision precision = Precision::kFp32);

  std::size_t n() const noexcept { return n_; }
  std::size_t tile_size() const noexcept { return tile_size_; }
  std::size_t tile_count() const noexcept { return nt_; }
  std::size_t tile_dim(std::size_t t) const;

  const ProcessGrid& grid() const noexcept { return grid_; }
  int rank() const noexcept { return rank_; }
  int owner(std::size_t ti, std::size_t tj) const noexcept {
    return grid_.owner(ti, tj);
  }
  bool is_local(std::size_t ti, std::size_t tj) const noexcept {
    return owner(ti, tj) == rank_;
  }

  /// Locally-owned dense tile (requires is_local and ti >= tj).  Throws a
  /// typed InvalidArgument naming the tile index when the slot is held in
  /// TLR form — representation-generic callers use slot() instead.
  Tile& tile(std::size_t ti, std::size_t tj);
  const Tile& tile(std::size_t ti, std::size_t tj) const;

  /// Representation-agnostic owned-slot access (dense or low-rank).
  TileSlot& slot(std::size_t ti, std::size_t tj);
  const TileSlot& slot(std::size_t ti, std::size_t tj) const;

  /// Bytes of locally-owned tile payloads (dense or factor bytes).
  std::size_t local_storage_bytes() const;

  /// Converts owned slots to the precisions `map` assigns (the
  /// distributed counterpart of PrecisionMap::apply; the map itself is
  /// replicated on every rank).
  void apply(const PrecisionMap& map);

  /// Copies this rank's owned slots out of a fully-replicated matrix
  /// (test/interop path: every rank holds the same `full`), including
  /// TLR slots and the matrix-level TLR accumulation options.
  void from_full(const SymmetricTileMatrix& full);

  /// Collects every slot at rank 0 and returns the assembled matrix
  /// there (other ranks return an empty matrix).  TLR slots gather in
  /// factored form at factor-byte cost.  Ends with a barrier.
  SymmetricTileMatrix gather_full(Communicator& comm) const;

  /// TLR accumulation contract, replicated alongside the precision map
  /// (set by from_full or explicitly before factorizing).
  double tlr_tol() const noexcept { return tlr_tol_; }
  double tlr_max_rank_fraction() const noexcept { return tlr_max_rank_frac_; }
  void set_tlr_options(double tol, double max_rank_fraction) noexcept {
    tlr_tol_ = tol;
    tlr_max_rank_frac_ = max_rank_fraction;
  }

 private:
  static std::uint64_t key(std::size_t ti, std::size_t tj) {
    return (static_cast<std::uint64_t>(ti) << 32) |
           static_cast<std::uint64_t>(tj);
  }

  std::size_t n_ = 0, tile_size_ = 0, nt_ = 0;
  ProcessGrid grid_{1};
  int rank_ = 0;
  std::unordered_map<std::uint64_t, TileSlot> local_;
  double tlr_tol_ = 0.0;
  double tlr_max_rank_frac_ = 0.5;
};

/// Rectangular m x n tiled matrix sharded by tile row — the distributed
/// twin of TileMatrix (the Predict-phase cross-kernel).  Row block ti,
/// every tile of it, lives on row_owner(ti), the rank that sums that
/// prediction row block; no tile of it is ever shipped.
class DistTileMatrix {
 public:
  DistTileMatrix(std::size_t rows, std::size_t cols, std::size_t tile_size,
                 int ranks, int my_rank);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t tile_size() const noexcept { return tile_size_; }
  std::size_t tile_rows() const noexcept { return tile_rows_; }
  std::size_t tile_cols() const noexcept { return tile_cols_; }
  std::size_t tile_height(std::size_t ti) const;
  std::size_t tile_width(std::size_t tj) const;

  int ranks() const noexcept { return ranks_; }
  int rank() const noexcept { return rank_; }
  /// Rank that stores tile row ti (1D cyclic over the world).
  int row_owner(std::size_t ti) const noexcept {
    return static_cast<int>(ti % static_cast<std::size_t>(ranks_));
  }
  bool is_local(std::size_t ti, std::size_t /*tj*/) const noexcept {
    return row_owner(ti) == rank_;
  }

  /// Locally-owned tile (requires is_local).
  Tile& tile(std::size_t ti, std::size_t tj);
  const Tile& tile(std::size_t ti, std::size_t tj) const;

 private:
  std::size_t index(std::size_t ti, std::size_t tj) const;

  std::size_t rows_ = 0, cols_ = 0, tile_size_ = 0;
  std::size_t tile_rows_ = 0, tile_cols_ = 0;
  int ranks_ = 1;
  int rank_ = 0;
  std::vector<Tile> local_;  ///< owned tile rows in order, tj fastest
};

}  // namespace kgwas::dist
