// The right-looking tiled Cholesky and its triangular-solve sweeps,
// written once as task-submission loops over an execution policy.
//
// tiled_potrf / tiled_potrs (shared memory) and dist::dist_tiled_potrf /
// dist::dist_tiled_potrs (owner-computes over a process grid) submit the
// same tasks — kernels, per-tile update order, DPLASMA-style critical-
// path priorities and FLOP counts.  They differ only in the
// policy: which tiles this executor owns, which runtime handle a task
// reads an operand through, and what happens once a panel tile or an RHS
// row block is final (nothing in shared memory; sends and expected
// receives on a rank).  One loop is what keeps the distributed factor
// and solution bitwise identical to the shared-memory ones.
//
// Factorization policy (`Exec` of submit_potrf_steps):
//   matrix()            the tile store (SymmetricTileMatrix or
//                       dist::DistSymmetricTileMatrix)
//   owns(i, j)          tasks writing tile (i, j) run on this executor
//   handle(i, j)        dependency handle of tile (i, j): an owned tile's,
//                       or the receive event of a remote panel tile read
//                       here
//   panel_done(i, k)    called once per panel tile (i, k), i >= k, right
//                       after its step-k producer was (or, when not owned,
//                       would have been) submitted: ship or expect it
//   static operand(a, i, j)
//                       execution-time read of panel tile (i, j) of `a`
//
// Solve policy (`Exec` of submit_potrs_sweeps):
//   matrix(), rhs()     the factor and the FP32 right-hand sides
//   owns_rhs(t)         RHS row block t is computed on this executor
//   rhs_handle(t, bwd)  dependency handle of row block t in that sweep
//                       (owned, or the receive event of a remote block)
//   rhs_done(k, bwd, p) called after the sweep TRSM of block k (submitted
//                       or not): ship or expect the block
//   factor_deps(i, j, deps)
//                       appends the read of a remote factor tile (i, j)
//   static gemm_rhs(l, b, i, k, bwd)
//                       execution-time X_i -= op(L) X_k
//
// Task bodies only capture the matrices and tile coordinates, never the
// policy object: the policy is submit-time state.
//
// The breakdown-recovery pieces both drivers share live here too: the
// one escalate-or-throw decision and the slot rollback.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/factorization_report.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tile_kernels.hpp"
#include "linalg/tlr_kernels.hpp"
#include "mpblas/matrix.hpp"
#include "mpblas/mixed.hpp"
#include "runtime/runtime.hpp"
#include "tile/precision_map.hpp"
#include "tile/tile_slot.hpp"

namespace kgwas {

/// Kernel kinds of the right-looking factorization, ordered by
/// within-panel priority (POTRF > TRSM > SYRK > GEMM).
enum class PotrfKernel : int { kGemm = 0, kSyrk = 1, kTrsm = 2, kPotrf = 3 };

/// DPLASMA-style critical-path priority of a step-k kernel: panel k
/// outranks panel k+1 and, within a panel, POTRF > TRSM > SYRK > GEMM.
/// (panels-remaining << 2) | kind, so the orderings nest without
/// collisions.
inline int potrf_task_priority(int base, std::size_t nt, std::size_t k,
                               PotrfKernel kind) {
  return base + (static_cast<int>(nt - k) << 2) + static_cast<int>(kind);
}

// --- Breakdown recovery shared by both drivers -------------------------

/// The breakdown decision of one failed factorization attempt, shared by
/// tiled_potrf and dist::dist_tiled_potrf so both drivers escalate — and
/// give up — identically.  `failing_index` is the failing minor's 1-based
/// global column.  With escalation enabled (`map` non-null, the current
/// precision map) and retries left, promotes the failing tile's band one
/// step (escalate_step, capped at the working precision map->get(0, 0)),
/// appends the EscalationRecord to `report` and returns: the caller rolls
/// back to `*map` and retries.  Otherwise — kThrow, retries exhausted, or
/// nothing left to promote (the matrix is not SPD at working precision)
/// — records the factorization's recovery outcome in the profiler and
/// throws the typed NumericalError.
void escalate_or_throw(Runtime& runtime, FactorizationReport& report,
                       PrecisionMap* map, int max_escalations,
                       long failing_index, std::size_t tile_size,
                       std::size_t tile_count);

/// Rollback re-encode of one slot from the pre-factorization source at
/// the (possibly escalated) target precision.  `plan_low_rank` is the
/// slot's representation in the compression plan captured at
/// factorization entry (ownership of the decision stays with the plan,
/// not the possibly-densified current state):
///  * planned dense           — copy the source payload (reconstructed
///                              when the source is factored), convert;
///  * planned LR, LR source   — copy the factor snapshot, re-encoded at
///                              `target` (exact when widening);
///  * planned LR, dense source — re-truncate the pre-demotion values at
///                              the escalated precision (compress_block at
///                              `tol`); an inadmissible result falls back
///                              to a dense restore, logged and counted
///                              under `tlr.fallbacks`.
/// Shared by the shared-memory and distributed recovery loops so the
/// re-encode semantics stay pinned in one place.
void restore_slot(TileSlot& dst, const TileSlot& source, Precision target,
                  bool plan_low_rank, double tol, double max_rank_fraction);

/// Per-lower-slot low-rank plan (column-packed triangle order) of the
/// slots `owns(ti, tj)` selects, captured at factorization entry: the
/// restore target of every retry, immune to mid-attempt densifications
/// (a slot the plan holds low-rank is re-compressed on rollback even if
/// the failed attempt densified it).  Unselected entries are false.
template <class Tiles, class Owns>
std::vector<bool> capture_lr_plan(const Tiles& a, Owns owns) {
  const std::size_t nt = a.tile_count();
  std::vector<bool> plan(nt * (nt + 1) / 2, false);
  std::size_t idx = 0;
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti, ++idx) {
      plan[idx] = owns(ti, tj) && a.slot(ti, tj).is_low_rank();
    }
  }
  return plan;
}

/// Restores the slots `owns(ti, tj)` selects from the pre-factorization
/// rollback source, re-encoded at the (possibly escalated) precisions of
/// `map` via restore_slot.  When the source holds pre-demotion values, a
/// promoted tile is a genuinely higher-fidelity quantization of the
/// original matrix; when it is a storage-precision snapshot, promotion
/// only stops the factorization from re-quantizing intermediate writes.
template <class Tiles, class Owns>
void restore_from_source(Tiles& a, const Tiles& source,
                         const PrecisionMap& map,
                         const std::vector<bool>& plan, Owns owns) {
  const std::size_t nt = a.tile_count();
  std::size_t idx = 0;
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti, ++idx) {
      if (!owns(ti, tj)) continue;
      restore_slot(a.slot(ti, tj), source.slot(ti, tj), map.get(ti, tj),
                   plan[idx], a.tlr_tol(), a.tlr_max_rank_fraction());
    }
  }
}

// --- Submission loops ----------------------------------------------------

/// Submits this executor's tasks of panel steps [k_begin, k_end).  A
/// partial range is one round of a checkpointed factorization: it
/// requires the matrix to hold the exact state after step k_begin - 1
/// (each step only reads the panel column produced within the same
/// round, so rounds compose bitwise).  Does not wait.
template <class Exec>
void submit_potrf_steps(Runtime& runtime, Exec& x, std::size_t k_begin,
                        std::size_t k_end, int base_priority) {
  auto& a = x.matrix();
  const std::size_t nt = a.tile_count();
  const std::size_t ts = a.tile_size();
  const auto prio = [&](std::size_t k, PotrfKernel kind) {
    return potrf_task_priority(base_priority, nt, k, kind);
  };

  for (std::size_t k = k_begin; k < k_end; ++k) {
    if (x.owns(k, k)) {
      runtime.submit(TaskDesc{"potrf",
                              {{x.handle(k, k), Access::kReadWrite}},
                              prio(k, PotrfKernel::kPotrf),
                              potrf_op_count(a.tile_dim(k))},
                     [&a, k, ts] { tile_potrf(a.tile(k, k), k * ts); });
    }
    x.panel_done(k, k);
    for (std::size_t i = k + 1; i < nt; ++i) {
      if (x.owns(i, k)) {
        runtime.submit(TaskDesc{"trsm",
                                {{x.handle(k, k), Access::kRead},
                                 {x.handle(i, k), Access::kReadWrite}},
                                prio(k, PotrfKernel::kTrsm),
                                trsm_op_count(a.tile_dim(k), a.tile_dim(i))},
                       [&a, i, k] {
                         tlr_trsm(Exec::operand(a, k, k).dense(),
                                  a.slot(i, k));
                       });
      }
      x.panel_done(i, k);
    }
    for (std::size_t j = k + 1; j < nt; ++j) {
      if (x.owns(j, j)) {
        // tile_syrk runs a full-tile GEMM update, so account GEMM flops.
        runtime.submit(TaskDesc{"syrk",
                                {{x.handle(j, k), Access::kRead},
                                 {x.handle(j, j), Access::kReadWrite}},
                                prio(k, PotrfKernel::kSyrk),
                                gemm_op_count(a.tile_dim(j), a.tile_dim(j),
                                              a.tile_dim(k))},
                       [&a, j, k] {
                         tlr_syrk(Exec::operand(a, j, k), a.tile(j, j));
                       });
      }
      for (std::size_t i = j + 1; i < nt; ++i) {
        if (!x.owns(i, j)) continue;
        runtime.submit(TaskDesc{"gemm",
                                {{x.handle(i, k), Access::kRead},
                                 {x.handle(j, k), Access::kRead},
                                 {x.handle(i, j), Access::kReadWrite}},
                                prio(k, PotrfKernel::kGemm),
                                gemm_op_count(a.tile_dim(i), a.tile_dim(j),
                                              a.tile_dim(k))},
                       [&a, i, j, k] {
                         tlr_gemm(Exec::operand(a, i, k),
                                  Exec::operand(a, j, k), a.slot(i, j),
                                  a.tlr_tol(), a.tlr_max_rank_fraction());
                       });
      }
    }
  }
}

/// Submits this executor's tasks of the forward (L Y = B) and backward
/// (L^T X = Y) sweeps over the factor.  The diagonal TRSM of step k
/// unblocks the rest of its sweep, so it outranks that step's GEMMs;
/// earlier steps outrank later ones in sweep order.  Does not wait.
template <class Exec>
void submit_potrs_sweeps(Runtime& runtime, Exec& x, int base_priority) {
  const auto& l = x.matrix();
  Matrix<float>& b = x.rhs();
  const std::size_t nt = l.tile_count();
  const std::size_t ts = l.tile_size();
  const std::size_t nrhs = b.cols();

  const auto step = [&](std::size_t k, bool backward) {
    const int level =
        base_priority + (static_cast<int>(backward ? k + 1 : nt - k) << 1);
    if (x.owns_rhs(k)) {
      runtime.submit(TaskDesc{backward ? "trsm_bwd" : "trsm_fwd",
                              {{x.rhs_handle(k, backward), Access::kReadWrite}},
                              level + 1,
                              trsm_op_count(l.tile_dim(k), nrhs)},
                     [&l, &b, k, ts, backward] {
                       tile_trsm_rhs(l.tile(k, k), backward, &b(k * ts, 0),
                                     b.ld(), b.cols());
                     });
    }
    x.rhs_done(k, backward, level + 1);
    const auto update = [&](std::size_t i) {
      if (!x.owns_rhs(i)) return;
      std::vector<Dep> deps{{x.rhs_handle(k, backward), Access::kRead},
                            {x.rhs_handle(i, backward), Access::kReadWrite}};
      // Forward: X_i -= L(i, k) X_k; backward: X_i -= L(k, i)^T X_k
      // (lower storage: the factor tile of the pair has row > column).
      if (backward) {
        x.factor_deps(k, i, deps);
      } else {
        x.factor_deps(i, k, deps);
      }
      runtime.submit(TaskDesc{backward ? "gemm_bwd" : "gemm_fwd",
                              std::move(deps), level,
                              gemm_op_count(l.tile_dim(i), nrhs,
                                            l.tile_dim(k))},
                     [&l, &b, i, k, backward] {
                       Exec::gemm_rhs(l, b, i, k, backward);
                     });
    };
    if (backward) {
      for (std::size_t i = k; i-- > 0;) update(i);
    } else {
      for (std::size_t i = k + 1; i < nt; ++i) update(i);
    }
  };
  for (std::size_t k = 0; k < nt; ++k) step(k, false);
  for (std::size_t k = nt; k-- > 0;) step(k, true);
}

}  // namespace kgwas
