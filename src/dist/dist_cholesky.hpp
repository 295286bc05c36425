// Distributed mixed-precision tiled Cholesky factorization and solve —
// the multi-rank twin of linalg/tiled_cholesky.
//
// SPMD execution: every rank runs the submission loops of
// linalg/cholesky_dag.hpp — the very loops the shared-memory driver runs —
// over the same global tile indices, with an owner-computes policy: only
// tasks whose *output* tile this rank owns enter its local dataflow
// Runtime.  Panel tiles cross rank boundaries through the Communicator at
// their *storage* precision (an fp16 panel tile costs half the wire bytes
// of an fp32 one), and each arrival completes an external runtime event
// that trailing tasks declare as an ordinary data dependency, so
// communication overlaps computation exactly the way the shared-memory
// scheduler overlaps tasks.  Same kernels, per-tile update order,
// priorities and FLOP counts, and received tiles are adopted bit for bit:
// the distributed factor and solution are **bitwise identical** to the
// single-rank results for every rank count.
//
// One driver, run in rounds of panel steps.  `checkpoint_interval` 0 (the
// default) is the plain factorization: one round over every step, no
// checkpoint writes, no owned copy of the rollback source.  A positive
// interval makes it elastic: each clean round ends with a consistent-cut
// tile checkpoint (dist/checkpoint.hpp), and a rank killed by fault
// injection surfaces on the survivors as PeerUnreachable; they then agree
// on the dead set (world state, read identically by every survivor),
// build a SurvivorComm over the remaining physical ranks, flush stale
// frames between two barriers, agree on the newest cut every survivor
// committed (a min-allreduce), re-ingest the matrix at that cut onto the
// survivor grid, and resume.  A checkpointed cut is bitwise rank-count
// invariant, so the recovered factor is bitwise identical to an
// undisturbed run at the survivor rank count.
//
// Breakdown recovery (either mode): a task failure on any rank triggers
// the runtime's error callback, which broadcasts a Phase::kBreakdown
// wake-up frame to every rank (itself included) so parked progress loops
// unblock; the receiving rank cancels its local DAG, force-signals the
// recv events that can no longer happen, and drains.  The authoritative
// outcome then travels through a deterministic status allreduce: each
// diagonal owner contributes the failing minor index of its own failed
// POTRF (at most one POTRF throws per round globally — every later POTRF
// transitively depends on the throwing one and is cancelled), so every
// rank derives the identical verdict and hands it to the shared
// escalate_or_throw decision.  Under BreakdownAction::kThrow all ranks
// throw the same NumericalError (structured propagation instead of a
// hang); under kEscalate all ranks promote the same tile band, flush stale
// frames between two barriers, roll their owned tiles back and restart
// from step 0 — keeping the recovered factor bitwise rank-invariant.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "dist/communicator.hpp"
#include "dist/dist_tile_matrix.hpp"
#include "linalg/factorization_report.hpp"
#include "mpblas/matrix.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/run_report.hpp"
#include "tile/precision_map.hpp"

namespace kgwas::dist {

struct DistPotrfOptions {
  /// Tile precision assignment (replicated on every rank).  May be null,
  /// except under kEscalate: the escalation state is a map evolution
  /// every rank replays identically.
  const PrecisionMap* precision_map = nullptr;
  /// Numerical-breakdown policy (see linalg/factorization_report.hpp and
  /// the protocol description above).  kThrow: every rank throws the
  /// same NumericalError.  kEscalate: promote the failing band, roll
  /// back, retry — bounded by `max_escalations`.
  BreakdownAction on_breakdown = BreakdownAction::kThrow;
  int max_escalations = 8;
  /// Per-factorization diagnostics; filled on every rank when non-null.
  FactorizationReport* report = nullptr;
  /// Escalation rollback source: pre-demotion values of this rank's owned
  /// tiles (same geometry/distribution as `a`).  When null, a
  /// storage-precision snapshot of the owned tiles is retained instead
  /// (see TiledPotrfOptions::source for what each variant can repair).
  const DistSymmetricTileMatrix* source = nullptr;
  /// Panel steps between consistent-cut checkpoints.  0: plain
  /// factorization (one round, no checkpoints, rank loss propagates as
  /// PeerUnreachable).  > 0: rank-loss recovery onto the survivors.
  long checkpoint_interval = 0;
};

/// Outcome of a factorization on a *surviving* rank (a killed rank never
/// returns: its RankKilled unwinds to run_ranks, which absorbs it).  When
/// ranks were lost, `comm`/`matrix` hold the survivor communicator and the
/// re-gridded factor — the input matrix `a` is stale and must not be
/// used; follow-up collectives (solve, gather) must run over `*comm` and
/// `*matrix`.  Both are null on a loss-free run.
///
/// The tallies are the FaultSummary base.  A checkpointed run ends by
/// summing the four tile and byte tallies over the surviving ranks, so
/// every survivor holds the world's checkpoint and restore IO (a lost
/// rank's writes drop out of the sum); the other fields are identical on
/// every survivor.
struct DistFtResult : telemetry::FaultSummary {
  std::unique_ptr<SurvivorComm> comm;
  std::unique_ptr<DistSymmetricTileMatrix> matrix;

  bool recovered() const noexcept { return rank_losses > 0; }
  /// Communicator follow-up phases must use.
  Communicator& active_comm(Communicator& original) const noexcept {
    return comm ? *comm : original;
  }
  /// Factor matrix follow-up phases must use.
  DistSymmetricTileMatrix& active_matrix(
      DistSymmetricTileMatrix& original) const noexcept {
    return matrix ? *matrix : original;
  }
};

/// Factorizes A = L * L^T in place over the owned tiles of every rank.
/// Collective: every rank of `comm` must call with the same geometry and
/// options.  Throws UnrecoverableFault when checkpointed recovery is
/// impossible (fewer than 2 survivors, a loss before the first checkpoint
/// commit, or a capture whose owner and replica holder both died);
/// PeerUnreachable from a pure receive timeout (no dead set to recover
/// against) propagates unchanged.  Ends with a barrier on the surviving
/// communicator.
DistFtResult dist_tiled_potrf(Runtime& runtime, Communicator& comm,
                              DistSymmetricTileMatrix& a,
                              const DistPotrfOptions& options = {});

/// Solves L * L^T * X = B over a factor distributed by dist_tiled_potrf.
/// `b` (n x nrhs, FP32) must hold the same replicated right-hand sides on
/// every rank; on return it holds the full solution on every rank
/// (solution row blocks are computed by the diagonal owners and
/// allgathered).  Collective; ends with a barrier.
void dist_tiled_potrs(Runtime& runtime, Communicator& comm,
                      const DistSymmetricTileMatrix& l, Matrix<float>& b);

/// KGWAS_CKPT_INTERVAL: panel steps between cuts of a checkpointed
/// factorization (default 4).  A malformed or zero value logs a warning
/// and keeps the default.
long configured_checkpoint_interval();

}  // namespace kgwas::dist
