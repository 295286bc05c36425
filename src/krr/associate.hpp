// Associate phase: regularize, pick tile precisions, factorize with the
// mixed-precision tiled Cholesky, and solve for the weight matrix W
// (paper Algorithm 3 + §V-B2).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/factorization_report.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tile_prepare.hpp"
#include "mpblas/matrix.hpp"
#include "runtime/runtime.hpp"
#include "tile/precision_map.hpp"
#include "tile/tile_matrix.hpp"

namespace kgwas {

/// How tile precisions are chosen before factorization.
enum class PrecisionMode {
  kFixed,     ///< everything stays at the working precision (FP32 baseline)
  kBand,      ///< hand-tuned band/"rainbow" policy (paper ref. [37])
  kAdaptive,  ///< tile-norm adaptive policy (paper ref. [19])
};

struct AssociateConfig {
  double alpha = 0.1;  ///< ridge regularization added to the diagonal
  PrecisionMode mode = PrecisionMode::kAdaptive;
  /// Band mode: fraction of off-diagonal tile diagonals kept in FP32.
  double band_fp32_fraction = 0.5;
  /// Low precision for band mode / candidate set for adaptive mode.
  Precision low_precision = Precision::kFp16;
  /// Adaptive mode settings (epsilon, working precision, candidates).
  AdaptivePolicy adaptive{};
  /// Numerical-breakdown policy of the factorization: kThrow propagates
  /// the NumericalError; kEscalate promotes the failing tile band one
  /// precision step, rolls back from a snapshot and retries (see
  /// linalg/factorization_report.hpp).
  BreakdownAction on_breakdown = BreakdownAction::kThrow;
  /// Retry bound for kEscalate.
  int max_escalations = 8;
  /// TLR tile compression (paper Section VIII): admissible off-diagonal
  /// tiles become U * V^T factor pairs, truncated from the regularized
  /// full-fidelity values and stored at their mapped precision.  tol = 0
  /// (the default, and the fallback of KGWAS_TLR_TOL) disables
  /// compression — the pipeline is then bitwise the dense one.  Composes
  /// with kEscalate: the rollback source is the pre-demotion dense
  /// matrix, and on each retry every planned-low-rank slot is
  /// re-truncated from it at the escalated precision (restore_slot in
  /// linalg/cholesky_dag.hpp).
  TlrPolicy tlr = tlr_policy_from_env();
};

struct AssociateResult {
  Matrix<float> weights;  ///< N_P1 x N_Ph solution W
  PrecisionMap map;       ///< precision decisions actually factored (post
                          ///< breakdown escalation, when any happened)
  std::size_t factor_bytes = 0;   ///< tile storage after conversion
  std::size_t fp32_bytes = 0;     ///< storage had everything stayed FP32
  /// Breakdown-recovery diagnostics of the factorization (attempts,
  /// escalation events, tiles promoted).
  FactorizationReport report;
  /// TLR compression outcome (all zeros when config.tlr.tol == 0).
  TlrCompressionStats tlr;
};

/// Runs the Associate phase in place on K (it becomes the Cholesky
/// factor).  `phenotypes` is the N_P1 x N_Ph right-hand side Ph.  The
/// preparation before the factorization runs as per-tile tasks on
/// `runtime` (prepare_associate).
AssociateResult associate(Runtime& runtime, SymmetricTileMatrix& k,
                          const Matrix<float>& phenotypes,
                          const AssociateConfig& config);

/// Adds alpha to the diagonal of a symmetric tiled matrix (exposed for
/// tests and for the RR path, which shares the implementation).
void add_diagonal(SymmetricTileMatrix& k, float alpha);

/// Computes (without applying) the precision map `associate` would use.
PrecisionMap plan_precision_map(const SymmetricTileMatrix& k,
                                const AssociateConfig& config);

/// The precision map of `config` for an nt-tile matrix.  Adaptive mode
/// reads `lower_tile_norms` (lower_tile_index order); the band and fixed
/// maps ignore it.
PrecisionMap precision_map_from_norms(
    const AssociateConfig& config, std::size_t nt,
    const std::vector<double>& lower_tile_norms);

/// The Associate preparation both drivers run on the tiles `owns`
/// selects (see linalg/tile_prepare.hpp): pass 1 (alpha, norms, TLR side
/// slots), the precision map, `between_passes()`, pass 2, and the
/// result's map, fp32_bytes, factor_bytes and tlr fields.
/// `between_passes` is where kEscalate takes its pre-demotion rollback
/// copy.  `sum(v)` makes a per-tile vector global: a no-op in shared
/// memory, an allreduce on a rank (each tile has one owner, so summing
/// against zeros is exact and every rank then reports the totals shared
/// memory reports).  Throws InvalidArgument for a TLR tolerance outside
/// [0, 1) (check_tlr_policy).
template <class Tiles, class Owns, class Sum, class BetweenPasses>
void prepare_associate(Runtime& runtime, Tiles& k, Owns owns,
                       const AssociateConfig& config, Sum sum,
                       BetweenPasses between_passes, AssociateResult& result) {
  check_tlr_policy(config.tlr);
  const bool adaptive = config.mode == PrecisionMode::kAdaptive;
  PreparedTiles prep =
      prepare_tiles(runtime, k, owns,
                    TilePrepareOptions{static_cast<float>(config.alpha),
                                       adaptive, config.tlr});
  if (adaptive) sum(prep.norms);
  const std::size_t nt = k.tile_count();
  result.fp32_bytes = map_storage_bytes(PrecisionMap(nt, Precision::kFp32),
                                        k.n(), k.tile_size());
  result.map = precision_map_from_norms(config, nt, prep.norms);
  between_passes();
  install_prepared(runtime, k, owns, result.map, prep);
  sum(prep.tally.bytes);
  result.factor_bytes = prep.tally.storage_bytes();
  if (config.tlr.tol > 0.0) {
    sum(prep.tally.ranks);
    result.tlr = prep.tally.stats(result.map, k.n(), k.tile_size());
  }
}

}  // namespace kgwas
