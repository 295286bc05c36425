// Mixed-precision tiled Cholesky factorization and solve, driven by the
// dataflow runtime — the paper's Associate-phase solver.
//
// The factorization is the classical right-looking tiled algorithm
// (POTRF / TRSM / SYRK / GEMM per tile), submitted as dataflow tasks whose
// dependencies the runtime infers from tile access modes.  The submission
// loops live in linalg/cholesky_dag.hpp, shared with the distributed
// driver (dist/dist_cholesky.hpp); this file holds the shared-memory
// policy and the breakdown-recovery loop around it.  Each tile keeps
// its assigned storage precision throughout: writing a low-precision tile
// re-quantizes it, which is exactly how the four-precision GPU solver
// behaves when a tile lives in FP16/FP8 device memory.
//
// The solve runs in full working precision (FP32) as in the paper
// ("the Cholesky solve is then performed ... in the full FP32 precision"),
// but reads the factor tiles at their storage precision.
//
// When the matrix carries TLR-compressed tiles (SymmetricTileMatrix::
// has_low_rank, planned by plan_tlr_compression), the same submission
// loop runs with the TLR-aware kernels of linalg/tlr_kernels.hpp: tiles
// dispatch dense-vs-factored per slot at execution time.  Escalation
// recovery works on compressed matrices too: the rollback re-truncates
// each planned-low-rank slot from the rollback source at the escalated
// precision (restore_slot in linalg/cholesky_dag.hpp).  With no
// compressed tiles the dense pipeline runs bit for bit.
#pragma once

#include <cstddef>

#include "linalg/factorization_report.hpp"
#include "mpblas/matrix.hpp"
#include "runtime/runtime.hpp"
#include "tile/tile_matrix.hpp"

namespace kgwas {

struct TiledPotrfOptions {
  /// Numerical-breakdown policy.  kThrow propagates the NumericalError
  /// (the runtime cancels the remaining DAG first, so dependents never
  /// run on a half-factored matrix and the Runtime stays reusable).
  /// kEscalate promotes the failing diagonal tile's row/column band one
  /// step up the precision ladder (widening to the leading sub-triangle
  /// once the band saturates), rolls the tiles back to their
  /// pre-factorization values, and re-runs — bounded by
  /// `max_escalations`.
  BreakdownAction on_breakdown = BreakdownAction::kThrow;
  /// Retry bound for kEscalate; the original NumericalError is rethrown
  /// once exhausted (or when every tile feeding the failing minor is
  /// already at working precision, i.e. the matrix is genuinely not SPD).
  int max_escalations = 8;
  /// Escalation rollback source: the matrix's pre-demotion values (same
  /// n / tile_size as `a`).  When set, every retry re-encodes the tiles
  /// from these values at the escalated precisions — a promoted tile
  /// genuinely regains fidelity, so escalation can repair breakdowns
  /// caused by the storage quantization itself (the common case for a
  /// wrong adaptive-map guess).  associate() passes the original kernel
  /// matrix here and factors a demoted copy, which bounds the recovery
  /// memory at one extra copy of the matrix at storage precision.  When
  /// null, a storage-precision snapshot of `a` is retained instead; that
  /// fallback can only repair breakdowns from requantization error
  /// accumulated *during* the factorization, since the snapshot's values
  /// are already quantized.  On a TLR-compressed matrix a dense source is
  /// re-truncated per planned-low-rank slot at the escalated precision
  /// (see restore_slot); a snapshot source restores the factor pairs
  /// directly.
  const SymmetricTileMatrix* source = nullptr;
  /// Optional per-factorization diagnostics (attempts, escalation events,
  /// final map); always filled when non-null, in both breakdown modes.
  FactorizationReport* report = nullptr;
};

/// Diagonal tile holding the failing leading minor a NumericalError
/// reports (`failing_index` is the error's 1-based global column).
inline std::size_t potrf_breakdown_tile(long failing_index,
                                        std::size_t tile_size,
                                        std::size_t tile_count) {
  if (failing_index <= 0 || tile_size == 0 || tile_count == 0) return 0;
  const std::size_t tile =
      (static_cast<std::size_t>(failing_index) - 1) / tile_size;
  return tile < tile_count ? tile : tile_count - 1;
}

/// Factorizes A = L * L^T in place (lower tiles).  Tiles keep their
/// current storage precision.  Throws NumericalError when a pivot fails
/// and `options.on_breakdown` is kThrow (or recovery is exhausted).
///
/// Tasks carry DPLASMA-style critical-path priorities: earlier panels
/// outrank later ones and, within a panel, POTRF > TRSM > SYRK > GEMM, so
/// the factorization front advances before trailing updates when the
/// scheduler has a choice.
void tiled_potrf(Runtime& runtime, SymmetricTileMatrix& a,
                 const TiledPotrfOptions& options = {});

/// Solves L * L^T * X = B in place over the FP32 right-hand sides B
/// (n x nrhs).  `l` holds the factor from tiled_potrf.
void tiled_potrs(Runtime& runtime, const SymmetricTileMatrix& l,
                 Matrix<float>& b);

/// Convenience: factor + solve.
void tiled_posv(Runtime& runtime, SymmetricTileMatrix& a, Matrix<float>& b);

/// Bytes of tile payload a factorization of `a` moves between tasks,
/// assuming every tile crosses a worker boundary once per consuming task
/// at its storage precision: the modelled data motion behind the
/// mixed-precision communication saving.
std::size_t tiled_potrf_data_motion_bytes(const SymmetricTileMatrix& a);

}  // namespace kgwas
