// The right-looking tiled Cholesky and its triangular-solve sweeps,
// written once as task-submission loops over an execution policy.
//
// tiled_potrf / tiled_potrs (shared memory) and dist::dist_tiled_potrf /
// dist::dist_tiled_potrs (owner-computes over a process grid) submit the
// same tasks — kernels, per-tile update order, DPLASMA-style critical-
// path priorities and FLOP counts.  They differ only in the
// policy: which tiles this executor owns, where a task finds an operand
// it reads, and what happens once a panel tile or an RHS row block is
// final (nothing in shared memory; sends and expected receives on a
// rank).  One loop is what keeps the distributed factor and solution
// bitwise identical to the shared-memory ones.
//
// A task names each datum by address (runtime/runtime.hpp), and an
// operand's accessor serves as both the operand and its dependency key:
// a tile is keyed by its TileSlot, never by the Tile inside it, so a
// reader and the writer of the same tile always agree.
//
// Factorization policy (`Exec` of submit_potrf_steps):
//   matrix()            the tile store (SymmetricTileMatrix or
//                       dist::DistSymmetricTileMatrix)
//   owns(i, j)          tasks writing tile (i, j) run on this executor
//   slot(i, j)          panel tile (i, j) as this executor reads it: an
//                       owned slot, or the slot a remote tile is received
//                       into
//   panel_done(i, k)    called once per panel tile (i, k), i >= k, right
//                       after its step-k producer was (or, when not owned,
//                       would have been) submitted: ship or expect it
//
// Solve policy (`Exec` of submit_potrs_sweeps):
//   matrix(), rhs()     the factor and the FP32 right-hand sides
//   owns_rhs(t)         RHS row block t is computed on this executor
//   rhs_datum(t, bwd)   dependency key of row block t in that sweep: its
//                       first element when owned, else its received slot
//   rhs_done(k, bwd, p) called after the sweep TRSM of block k (submitted
//                       or not): ship or expect the block
//   factor(i, j)        factor tile (i, j): owned or received slot
//   gemm_rhs(f, i, k, bwd)
//                       the task body X_i -= op(f) X_k
//
// Task bodies capture the slots and row blocks resolved at submit time,
// never the policy object.  What a policy receives lives in the policy,
// so a policy outlives the graph it submits: every driver waits for the
// graph before the policy goes out of scope.
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
inline int potrf_task_priority(std::size_t nt, std::size_t k,
                               PotrfKernel kind) {
  return (static_cast<int>(nt - k) << 2) + static_cast<int>(kind);
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
/// — records the factorization's recovery outcome in `profiler` (null:
/// not recorded; the distributed driver records on logical rank 0 only,
/// so a world counts one factorization) and throws the typed
/// NumericalError.
void escalate_or_throw(Profiler* profiler, FactorizationReport& report,
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
///                              `tol` under the crossover rule's rank
///                              cap, the plan's compressor); an
///                              inadmissible or non-finite tile falls back
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
                        std::size_t k_end) {
  auto& a = x.matrix();
  const std::size_t nt = a.tile_count();
  const std::size_t ts = a.tile_size();
  const auto prio = [&](std::size_t k, PotrfKernel kind) {
    return potrf_task_priority(nt, k, kind);
  };

  for (std::size_t k = k_begin; k < k_end; ++k) {
    if (x.owns(k, k)) {
      TileSlot& akk = a.slot(k, k);
      runtime.submit(TaskDesc{"potrf",
                              {{&akk, Access::kReadWrite}},
                              prio(k, PotrfKernel::kPotrf),
                              potrf_op_count(a.tile_dim(k))},
                     [&akk, k, ts] { tile_potrf(akk.dense(), k * ts); });
    }
    x.panel_done(k, k);
    for (std::size_t i = k + 1; i < nt; ++i) {
      if (x.owns(i, k)) {
        const TileSlot& lkk = x.slot(k, k);
        TileSlot& aik = a.slot(i, k);
        runtime.submit(TaskDesc{"trsm",
                                {{&lkk, Access::kRead},
                                 {&aik, Access::kReadWrite}},
                                prio(k, PotrfKernel::kTrsm),
                                trsm_op_count(a.tile_dim(k), a.tile_dim(i))},
                       [&lkk, &aik] { tlr_trsm(lkk.dense(), aik); });
      }
      x.panel_done(i, k);
    }
    for (std::size_t j = k + 1; j < nt; ++j) {
      if (x.owns(j, j)) {
        const TileSlot& ljk = x.slot(j, k);
        TileSlot& ajj = a.slot(j, j);
        // tile_syrk updates the lower triangle only: SYRK flops.
        runtime.submit(TaskDesc{"syrk",
                                {{&ljk, Access::kRead},
                                 {&ajj, Access::kReadWrite}},
                                prio(k, PotrfKernel::kSyrk),
                                syrk_op_count(a.tile_dim(j), a.tile_dim(k))},
                       [&ljk, &ajj] { tlr_syrk(ljk, ajj.dense()); });
      }
      for (std::size_t i = j + 1; i < nt; ++i) {
        if (!x.owns(i, j)) continue;
        const TileSlot& lik = x.slot(i, k);
        const TileSlot& ljk = x.slot(j, k);
        TileSlot& aij = a.slot(i, j);
        runtime.submit(TaskDesc{"gemm",
                                {{&lik, Access::kRead},
                                 {&ljk, Access::kRead},
                                 {&aij, Access::kReadWrite}},
                                prio(k, PotrfKernel::kGemm),
                                gemm_op_count(a.tile_dim(i), a.tile_dim(j),
                                              a.tile_dim(k))},
                       [&lik, &ljk, &aij, &a] {
                         tlr_gemm(lik, ljk, aij, a.tlr_tol(),
                                  a.tlr_max_rank_fraction());
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
void submit_potrs_sweeps(Runtime& runtime, Exec& x) {
  const auto& l = x.matrix();
  Matrix<float>& b = x.rhs();
  const std::size_t nt = l.tile_count();
  const std::size_t ts = l.tile_size();
  const std::size_t nrhs = b.cols();

  const auto step = [&](std::size_t k, bool backward) {
    const int level = static_cast<int>(backward ? k + 1 : nt - k) << 1;
    if (x.owns_rhs(k)) {
      runtime.submit(TaskDesc{backward ? "trsm_bwd" : "trsm_fwd",
                              {{x.rhs_datum(k, backward), Access::kReadWrite}},
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
      // Forward: X_i -= L(i, k) X_k; backward: X_i -= L(k, i)^T X_k
      // (lower storage: the factor tile of the pair has row > column).
      const TileSlot& f = backward ? x.factor(k, i) : x.factor(i, k);
      runtime.submit(TaskDesc{backward ? "gemm_bwd" : "gemm_fwd",
                              {{x.rhs_datum(k, backward), Access::kRead},
                               {x.rhs_datum(i, backward), Access::kReadWrite},
                               {&f, Access::kRead}},
                              level,
                              gemm_op_count(l.tile_dim(i), nrhs,
                                            l.tile_dim(k))},
                     x.gemm_rhs(f, i, k, backward));
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
