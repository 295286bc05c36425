#include "dist/dist_cholesky.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "common/status.hpp"
#include "dist/checkpoint.hpp"
#include "dist/cholesky_comm_pattern.hpp"
#include "dist/progress.hpp"
#include "dist/tile_transport.hpp"
#include "linalg/cholesky_dag.hpp"
#include "linalg/tiled_cholesky.hpp"
#include "telemetry/metrics.hpp"
#include "tile/tile_pool.hpp"

namespace kgwas::dist {

namespace {

using detail::ExpectedMap;
using detail::drain_expected;
using detail::rows_as_tile;

/// Lazily-registered data handles for locally-owned tiles / row blocks.
class HandleMap {
 public:
  explicit HandleMap(Runtime& runtime) : runtime_(runtime) {}

  DataHandle operator()(std::size_t ti, std::size_t tj) {
    const std::uint64_t k =
        (static_cast<std::uint64_t>(ti) << 32) | static_cast<std::uint64_t>(tj);
    auto [it, inserted] = handles_.try_emplace(k);
    if (inserted) it->second = runtime_.register_data();
    return it->second;
  }

 private:
  Runtime& runtime_;
  std::unordered_map<std::uint64_t, DataHandle> handles_;
};

/// Wake-up tag of the breakdown-recovery protocol (payload-free; the
/// authoritative verdict travels through the status allreduce).
constexpr std::uint64_t breakdown_wakeup_tag() {
  return make_tile_tag(Phase::kBreakdown, 0, 0);
}

/// Owner-computes factorization policy (see linalg/cholesky_dag.hpp):
/// this rank runs the tasks writing its owned tiles, ships every finished
/// panel tile it owns to the distinct ranks whose tasks read it, and
/// wires the panel tiles it reads from other ranks as receive events.
class DistPotrfExec {
 public:
  DistPotrfExec(Runtime& runtime, Communicator& comm,
                DistSymmetricTileMatrix& a, int base_priority)
      : runtime_(runtime), comm_(comm), a_(a), base_(base_priority),
        local_(runtime) {}

  DistSymmetricTileMatrix& matrix() { return a_; }
  bool owns(std::size_t ti, std::size_t tj) const {
    return a_.is_local(ti, tj);
  }
  DataHandle handle(std::size_t ti, std::size_t tj) {
    return a_.is_local(ti, tj) ? local_(ti, tj) : remote_.at(tag(ti, tj));
  }

  void panel_done(std::size_t m, std::size_t k) {
    const std::size_t nt = a_.tile_count();
    const std::vector<int> consumers =
        m == k ? diag_tile_consumers(a_.grid(), nt, k)
               : panel_tile_consumers(a_.grid(), nt, m, k);
    const std::uint64_t t = tag(m, k);
    const int me = comm_.rank();
    if (a_.is_local(m, k)) {
      const std::vector<int> dests = excluding(consumers, me);
      if (dests.empty()) return;
      runtime_.submit(
          TaskDesc{m == k ? "send_diag" : "send_panel",
                   {{local_(m, k), Access::kRead}},
                   potrf_task_priority(base_, nt, k, PotrfKernel::kTrsm)},
          [&a = a_, &comm = comm_, dests, t, m, k] {
            for (const int d : dests) send_slot(comm, d, t, a.slot(m, k));
          });
    } else if (contains(consumers, me)) {
      detail::expect_tile(
          runtime_, a_.cache_slot(t), remote_, expected_, t,
          potrf_task_priority(base_, nt, k,
                              m == k ? PotrfKernel::kPotrf
                                     : PotrfKernel::kTrsm));
    }
  }

  static const TileSlot& operand(const DistSymmetricTileMatrix& a,
                                 std::size_t ti, std::size_t tj) {
    return a.is_local(ti, tj) ? a.slot(ti, tj) : a.cached_slot(tag(ti, tj));
  }

  ExpectedMap& expected() { return expected_; }

 private:
  static std::uint64_t tag(std::size_t ti, std::size_t tj) {
    return make_tile_tag(Phase::kPotrfPanel, ti, tj);
  }

  Runtime& runtime_;
  Communicator& comm_;
  DistSymmetricTileMatrix& a_;
  int base_;
  HandleMap local_;
  std::unordered_map<std::uint64_t, DataHandle> remote_;
  ExpectedMap expected_;
};

/// Owner-computes solve policy: RHS row block t lives with the owner of
/// diagonal tile (t, t), so every sweep TRSM reads its factor tile
/// locally.  A finished block ships to the ranks whose GEMMs read it;
/// remote factor tiles are pushed once, before the sweeps (ship_factor).
class DistSolveExec {
 public:
  DistSolveExec(Runtime& runtime, Communicator& comm,
                const DistSymmetricTileMatrix& l, Matrix<float>& b)
      : runtime_(runtime), comm_(comm), l_(l), b_(b), local_(runtime) {}

  const DistSymmetricTileMatrix& matrix() const { return l_; }
  Matrix<float>& rhs() { return b_; }
  bool owns_rhs(std::size_t t) const { return owner(l_, t) == l_.rank(); }
  DataHandle rhs_handle(std::size_t t, bool backward) {
    return owns_rhs(t) ? local_(t, 0) : remote_.at(rhs_tag(t, backward));
  }

  void rhs_done(std::size_t k, bool backward, int priority) {
    std::vector<int> dests;
    const std::size_t begin = backward ? 0 : k + 1;
    const std::size_t end = backward ? k : l_.tile_count();
    for (std::size_t i = begin; i < end; ++i) dests.push_back(owner(l_, i));
    std::sort(dests.begin(), dests.end());
    dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
    const std::uint64_t tag = rhs_tag(k, backward);
    const int me = l_.rank();
    if (owns_rhs(k)) {
      const std::vector<int> remote = excluding(dests, me);
      if (remote.empty()) return;
      runtime_.submit(
          TaskDesc{backward ? "send_x_bwd" : "send_x_fwd",
                   {{local_(k, 0), Access::kRead}},
                   priority},
          [&b = b_, &comm = comm_, &l = l_, remote, tag, k] {
            const Tile t = rows_as_tile(b, k * l.tile_size(), l.tile_dim(k));
            for (const int d : remote) send_dense_slot(comm, d, tag, t);
          });
    } else if (contains(dests, me)) {
      expect(tag, priority);
    }
  }

  void factor_deps(std::size_t ta, std::size_t tb, std::vector<Dep>& deps) {
    if (!l_.is_local(ta, tb)) {
      deps.push_back({remote_.at(factor_tag(ta, tb)), Access::kRead});
    }
  }

  /// Factor-tile transport.  The factor is final before the solve starts,
  /// so owners push each off-diagonal tile to its (at most two) solve
  /// consumers synchronously; receivers wire arrivals as events.
  /// Consumers of L(a, b), a > b: the forward GEMM on owner(a) and the
  /// backward GEMM on owner(b).
  void ship_factor(int priority) {
    const std::size_t nt = l_.tile_count();
    const int me = l_.rank();
    for (std::size_t tb = 0; tb < nt; ++tb) {
      for (std::size_t ta = tb + 1; ta < nt; ++ta) {
        const std::uint64_t tag = factor_tag(ta, tb);
        std::vector<int> consumers{owner(l_, ta), owner(l_, tb)};
        std::sort(consumers.begin(), consumers.end());
        consumers.erase(std::unique(consumers.begin(), consumers.end()),
                        consumers.end());
        if (l_.is_local(ta, tb)) {
          for (const int d : excluding(consumers, me)) {
            send_slot(comm_, d, tag, l_.slot(ta, tb));
          }
        } else if (contains(consumers, me)) {
          expect(tag, priority);
        }
      }
    }
  }

  /// X_i -= op(L) X_k.  A remote RHS block decodes from its cached
  /// transport tile into pooled scratch (exact for FP32 payloads); the
  /// factor operand stays a slot, so a compressed tile applies through
  /// its factors bitwise identically to the shared-memory path.
  static void gemm_rhs(const DistSymmetricTileMatrix& l, Matrix<float>& b,
                       std::size_t i, std::size_t k, bool backward) {
    const std::size_t ta = backward ? k : i;
    const std::size_t tb = backward ? i : k;
    const TileSlot& f = l.is_local(ta, tb)
                            ? l.slot(ta, tb)
                            : l.cached_slot(factor_tag(ta, tb));
    const std::size_t ts = l.tile_size();
    float* xi = &b(i * ts, 0);
    if (owner(l, k) == l.rank()) {
      tlr_gemm_rhs(f, backward, &b(k * ts, 0), b.ld(), xi, b.ld(), b.cols());
      return;
    }
    const Tile& xk = l.cached(rhs_tag(k, backward));
    PooledF32 scratch(TilePool::global(), xk.elements());
    xk.decode_to(scratch.data());
    tlr_gemm_rhs(f, backward, scratch.data(), xk.rows(), xi, b.ld(),
                 b.cols());
  }

  ExpectedMap& expected() { return expected_; }

 private:
  static int owner(const DistSymmetricTileMatrix& l, std::size_t t) {
    return l.grid().diagonal_owner(t);
  }
  static std::uint64_t rhs_tag(std::size_t t, bool backward) {
    return make_tile_tag(
        backward ? Phase::kSolveBackward : Phase::kSolveForward, t, 0);
  }
  static std::uint64_t factor_tag(std::size_t ta, std::size_t tb) {
    return make_tile_tag(Phase::kSolveFactor, ta, tb);
  }
  void expect(std::uint64_t tag, int priority) {
    detail::expect_tile(runtime_, l_.cache_slot(tag), remote_, expected_, tag,
                        priority);
  }

  Runtime& runtime_;
  Communicator& comm_;
  const DistSymmetricTileMatrix& l_;
  Matrix<float>& b_;
  HandleMap local_;
  std::unordered_map<std::uint64_t, DataHandle> remote_;
  ExpectedMap expected_;
};

/// Deterministic world-wide breakdown verdict of one round: each diagonal
/// owner contributes the failing minor of its own failed POTRF.  At most
/// one POTRF throws per round globally — every later POTRF transitively
/// depends on the throwing one (panel TRSMs -> trailing updates) and is
/// cancelled — so the summed vector is identical on every rank and
/// independent of scheduling, which keeps the escalated map (and the
/// recovered factor) bitwise rank-invariant.  Returns the failing minor
/// (0: the round succeeded everywhere).
long agree_on_breakdown(Communicator& comm, long local_failing,
                        std::size_t tile_size, std::size_t nt) {
  std::vector<double> status(nt, 0.0);
  if (local_failing != 0) {
    status[potrf_breakdown_tile(local_failing, tile_size, nt)] =
        static_cast<double>(local_failing);
  }
  comm.allreduce_sum(status.data(), status.size());
  for (const double s : status) {
    if (s != 0.0) return static_cast<long>(s);
  }
  return 0;
}

/// Flushes an aborted round.  Between the two barriers every frame of the
/// round is already delivered (all runtimes have drained) and none of the
/// next round's frames exist yet, so the flush never eats live traffic —
/// and stale wake-up/tile frames cannot poison a later protocol on this
/// communicator (a retry, or the caller's next factorization after a
/// throw).
void flush_round(Communicator& comm, const DistSymmetricTileMatrix& a) {
  comm.barrier();
  a.clear_cache();
  comm.discard_pending();
  comm.barrier();
}

/// Replicates an owned-entries plan on every rank (each lower tile has
/// exactly one owner, so the sum is exact) so it survives re-gridding
/// onto survivors: ownership changes, the plan does not.
void replicate_lr_plan(Communicator& comm, std::vector<bool>& plan) {
  std::vector<double> votes(plan.size(), 0.0);
  for (std::size_t i = 0; i < plan.size(); ++i) votes[i] = plan[i] ? 1.0 : 0.0;
  comm.allreduce_sum(votes.data(), votes.size());
  for (std::size_t i = 0; i < plan.size(); ++i) plan[i] = votes[i] != 0.0;
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII registration of a matrix-cache discard hook: discard_pending()
/// must drop wire-tag-keyed remote-tile caches along with the queued
/// frames, or a tile adopted just before a fault survives the flush and a
/// post-recovery resume reads stale pre-fault data.
class DiscardHookGuard {
 public:
  DiscardHookGuard(Communicator& comm, DistSymmetricTileMatrix** mat)
      : comm_(comm) {
    comm_.add_discard_hook([mat]() {
      const std::size_t n = (*mat)->cache_tiles();
      (*mat)->clear_cache();
      return n;
    });
  }
  ~DiscardHookGuard() { comm_.clear_discard_hooks(); }

 private:
  Communicator& comm_;
};

}  // namespace

DistFtResult dist_tiled_potrf(Runtime& runtime, Communicator& comm,
                              DistSymmetricTileMatrix& a,
                              const DistPotrfOptions& options) {
  const std::size_t nt = a.tile_count();
  DistFtResult result;
  result.final_ranks.resize(static_cast<std::size_t>(comm.size()));
  std::iota(result.final_ranks.begin(), result.final_ranks.end(), 0);

  FactorizationReport scratch;
  FactorizationReport& report = options.report ? *options.report : scratch;
  report = FactorizationReport{};
  report.attempts = 1;
  if (nt == 0) {
    comm.barrier();
    return result;
  }
  KGWAS_CHECK_ARG(a.grid().ranks() == comm.size(),
                  "matrix grid does not match the communicator world");
  const bool escalate = options.on_breakdown == BreakdownAction::kEscalate;
  KGWAS_CHECK_ARG(!escalate || options.precision_map != nullptr,
                  "distributed breakdown escalation requires a precision map");
  KGWAS_CHECK_ARG(options.checkpoint_interval >= 0,
                  "checkpoint interval must be non-negative");
  const bool ft = options.checkpoint_interval > 0;
  const long steps = static_cast<long>(nt);
  const long interval = ft ? options.checkpoint_interval : steps;

  PrecisionMap current =
      options.precision_map ? *options.precision_map : PrecisionMap{};
  const PrecisionMap* map = options.precision_map ? &current : nullptr;

  // Escalation rollback source.  A plain run rolls back from the
  // caller's source in place; a checkpointed run owns a copy so it can
  // re-grid it onto the survivors after a rank loss (the caller's matrix
  // is pinned to the original grid).  Rollback restores a planned-low-
  // rank slot in factored form; the checkpointed run replicates the plan
  // so it keeps working after re-gridding.
  std::optional<DistSymmetricTileMatrix> owned_source;
  const DistSymmetricTileMatrix* rollback = options.source;
  std::vector<bool> lr_plan;
  if (escalate) {
    if (rollback != nullptr) {
      KGWAS_CHECK_ARG(rollback->n() == a.n() &&
                          rollback->tile_size() == a.tile_size(),
                      "escalation source geometry mismatch");
    }
    if (ft || rollback == nullptr) {
      rollback = &owned_source.emplace(rollback != nullptr ? *rollback : a);
    }
    lr_plan = capture_lr_plan(a, [&a](std::size_t ti, std::size_t tj) {
      return a.is_local(ti, tj);
    });
    if (ft && a.tlr_tol() > 0.0) replicate_lr_plan(comm, lr_plan);
  }

  // Topology state: `active`/`mat` flip to the survivor instances after a
  // recovery; `ckpt_ranks` is the physical rank list the *committed*
  // checkpoints were written under (the restore path maps old owners and
  // ring buddies through it).
  Communicator* active = &comm;
  DistSymmetricTileMatrix* mat = &a;
  std::vector<int> ckpt_ranks = result.final_ranks;
  TileCheckpoint store;
  TileCheckpoint source_store;
  std::size_t counted_dead = 0;

  DiscardHookGuard hook_guard(comm, &mat);

  // Any task failure wakes every rank's progress loop; the frames carry
  // no authority (the status allreduce does), they only unpark recv_any.
  // The callback is scoped to this factorization.
  struct CallbackGuard {
    Runtime& runtime;
    ~CallbackGuard() { runtime.set_error_callback(nullptr); }
  } guard{runtime};
  const auto arm_callback = [&runtime](Communicator* c) {
    runtime.set_error_callback([c](const std::exception_ptr&) {
      for (int r = 0; r < c->size(); ++r) {
        c->send(r, breakdown_wakeup_tag(), {});
      }
    });
  };
  arm_callback(active);

  auto& registry = telemetry::MetricRegistry::global();
  const auto record_span = [&runtime](const char* name, std::uint64_t t0) {
    runtime.profiler().record(TaskSpan{name, t0, steady_ns(), -1, 0.0});
  };
  const auto checkpoint_all = [&](long cut) {
    active->set_phase_label("checkpoint");
    const std::uint64_t t0 = steady_ns();
    const CheckpointIo io = write_checkpoint(*active, store, *mat, cut);
    result.checkpoints += 1;
    result.checkpoint_tiles += io.tiles;
    result.checkpoint_bytes += io.bytes;
    if (escalate) {
      const CheckpointIo sio = write_checkpoint(
          *active, source_store, *owned_source, 0, Phase::kCheckpointSource);
      result.checkpoint_tiles += sio.tiles;
      result.checkpoint_bytes += sio.bytes;
    }
    record_span("ckpt_write", t0);
    active->set_phase_label("factorize");
  };

  long resume_k = 0;
  bool need_recovery = false;
  bool timeline_started = false;

  for (;;) {
    try {
      if (need_recovery) {
        // ---- Rank-loss recovery -----------------------------------------
        const std::uint64_t rec_t0 = steady_ns();
        runtime.set_error_callback(nullptr);
        comm.set_phase_label("recovery");
        runtime.cancel();
        try {
          runtime.wait();
        } catch (...) {
          // The aborted round's task errors are expected collateral.
        }
        comm.acknowledge_failures();
        const std::vector<int> dead = comm.dead_ranks();
        std::vector<int> survivors;
        for (int r = 0; r < comm.size(); ++r) {
          if (!std::binary_search(dead.begin(), dead.end(), r)) {
            survivors.push_back(r);
          }
        }
        registry.counter("recovery.rank_loss.events").add(1);
        registry.counter("recovery.rank_loss.ranks_lost")
            .add(dead.size() - counted_dead);
        result.rank_losses += static_cast<int>(dead.size() - counted_dead);
        counted_dead = dead.size();
        if (survivors.size() < 2) {
          throw UnrecoverableFault(
              "rank loss left fewer than 2 survivors; cannot redistribute");
        }
        auto next_comm = std::make_unique<SurvivorComm>(
            comm, survivors, static_cast<std::uint64_t>(dead.size()));
        next_comm->set_phase_label("recovery");
        // Flush between two barriers: after the first every survivor has
        // quiesced its runtime (no new frames), so discarding pending
        // application frames + purging stale reserved frames of older
        // generations can never eat live traffic; nobody proceeds past
        // the second until everyone has flushed.
        next_comm->barrier();
        comm.discard_pending();
        comm.purge_stale(static_cast<std::uint64_t>(dead.size()) << 32);
        next_comm->barrier();
        // Cut agreement: the newest cut *every* survivor committed.  A
        // kill during a checkpoint barrier can leave one cut of skew; the
        // store keeps two committed generations, so the minimum is always
        // restorable.  A negative minimum means some survivor never
        // committed — the loss predates the first checkpoint.
        std::vector<double> cuts(survivors.size(), 0.0);
        cuts[static_cast<std::size_t>(next_comm->rank())] =
            static_cast<double>(store.committed_cut());
        next_comm->allreduce_sum(cuts.data(), cuts.size());
        long restore_cut = steps;
        for (const double c : cuts) {
          restore_cut = std::min(restore_cut, static_cast<long>(c));
        }
        if (restore_cut < 0) {
          throw UnrecoverableFault(
              "rank lost before the first checkpoint commit");
        }
        store.discard_staged();
        source_store.discard_staged();
        // Re-ingest the full matrix state at the agreed cut onto the
        // survivor grid (every tile, not just orphans: survivors may have
        // advanced past the cut before the fault surfaced).
        const ProcessGrid new_grid(static_cast<int>(survivors.size()));
        const Precision working = map ? current.get(0, 0) : Precision::kFp32;
        auto next_mat = std::make_unique<DistSymmetricTileMatrix>(
            a.n(), a.tile_size(), new_grid, next_comm->rank(), working);
        next_mat->set_tlr_options(a.tlr_tol(), a.tlr_max_rank_fraction());
        next_comm->set_phase_label("restore");
        const std::uint64_t res_t0 = steady_ns();
        const CheckpointIo rio = restore_from_checkpoint(
            *next_comm, store, ckpt_ranks, dead, *next_mat, restore_cut);
        result.restored_tiles += rio.tiles;
        result.restored_bytes += rio.bytes;
        if (escalate) {
          DistSymmetricTileMatrix fresh_source(
              a.n(), a.tile_size(), new_grid, next_comm->rank(), working);
          fresh_source.set_tlr_options(a.tlr_tol(), a.tlr_max_rank_fraction());
          restore_from_checkpoint(*next_comm, source_store, ckpt_ranks, dead,
                                  fresh_source, 0, Phase::kRestoreSource);
          rollback = &owned_source.emplace(std::move(fresh_source));
        }
        record_span("ckpt_restore", res_t0);
        // Adopt the survivor topology (destroying any previous
        // SurvivorComm folds its wire ledger into the physical comm).
        result.comm = std::move(next_comm);
        result.matrix = std::move(next_mat);
        active = result.comm.get();
        mat = result.matrix.get();
        ckpt_ranks = survivors;
        result.final_ranks = survivors;
        result.last_restore_cut = restore_cut;
        // Fresh checkpoint timeline on the new topology (new ring, new
        // grid): re-checkpoint the restored state so a *second* loss is
        // recoverable too.
        store.reset();
        source_store.reset();
        checkpoint_all(restore_cut);
        arm_callback(active);
        resume_k = restore_cut;
        need_recovery = false;
        record_span("rank_loss_recovery", rec_t0);
      }

      if (!timeline_started) {
        // Cut 0: the pristine input, so any loss after this point is
        // recoverable (a loss before the first commit is not).
        if (ft) checkpoint_all(0);
        timeline_started = true;
      }

      while (resume_k < steps) {
        active->set_phase_label("factorize");
        if (ft) active->fault_point(static_cast<std::uint64_t>(resume_k));
        const long k_end = std::min(resume_k + interval, steps);
        long local_failing = 0;
        {
          DistPotrfExec x(runtime, *active, *mat, options.base_priority);
          submit_potrf_steps(runtime, x, static_cast<std::size_t>(resume_k),
                             static_cast<std::size_t>(k_end),
                             options.base_priority);
          // Progress loop with the breakdown watch armed: a kBreakdown
          // frame cancels this rank's not-yet-run tasks and force-signals
          // the recv events that can no longer happen, so the graph
          // drains.
          drain_expected(runtime, *active, x.expected(),
                         breakdown_wakeup_tag());
          try {
            runtime.wait();
          } catch (const NumericalError& e) {
            local_failing = e.index() > 0 ? e.index() : -1;
          }
        }
        const long failing =
            agree_on_breakdown(*active, local_failing, a.tile_size(), nt);
        if (failing == 0) {
          if (ft && k_end < steps) checkpoint_all(k_end);
          resume_k = k_end;
          continue;
        }
        // Every rank is here, so the flush barriers align whether the
        // verdict is a retry or a throw.
        flush_round(*active, *mat);
        escalate_or_throw(runtime, report, escalate ? &current : nullptr,
                          options.max_escalations, failing, a.tile_size(),
                          nt);
        report.attempts = report.escalations() + 1;
        // Roll back to the pristine source and restart the factorization
        // — and the checkpoint timeline with it.  The store reset is what
        // makes the cut-0 re-commit legal (commit() version-guards
        // against double-applying a stale timeline); the staged state of
        // any in-flight write was never committed and dies with it.
        restore_from_source(*mat, *rollback, current, lr_plan,
                            [mat](std::size_t ti, std::size_t tj) {
                              return mat->is_local(ti, tj);
                            });
        if (ft) {
          store.reset();
          checkpoint_all(0);
        }
        resume_k = 0;
      }
      break;  // factorization complete
    } catch (const PeerUnreachable& e) {
      // A pure receive timeout carries no dead set — there is nothing to
      // recover against, so it propagates as detection-only; so does any
      // loss in a plain run, which has no checkpoint to recover from.
      if (!ft || e.dead_ranks().empty()) throw;
      need_recovery = true;
    }
  }

  report.recovered = report.escalations() > 0 || result.rank_losses > 0;
  if (map != nullptr) report.final_map = current;
  runtime.profiler().record_recovery(report.attempts, report.events.size(),
                                     report.tiles_promoted);
  // Every consumer of a cached panel tile has completed; drop the cache
  // so peak memory stays bounded to one phase's working set (the solve
  // re-ships the factor tiles it needs under its own tags).
  mat->clear_cache();
  active->set_phase_label("factorize");
  active->barrier();
  return result;
}

void dist_tiled_potrs(Runtime& runtime, Communicator& comm,
                      const DistSymmetricTileMatrix& l, Matrix<float>& b,
                      int base_priority) {
  const std::size_t nt = l.tile_count();
  KGWAS_CHECK_ARG(b.rows() == l.n(), "solve RHS row count mismatch");
  if (nt == 0 || b.cols() == 0) {
    comm.barrier();
    return;
  }
  KGWAS_CHECK_ARG(l.grid().ranks() == comm.size(),
                  "matrix grid does not match the communicator world");
  DistSolveExec x(runtime, comm, l, b);
  // Factor tiles arrive above every sweep task's priority.
  x.ship_factor(base_priority + (static_cast<int>(nt) << 1) + 2);
  submit_potrs_sweeps(runtime, x, base_priority);
  drain_expected(runtime, comm, x.expected());
  runtime.wait();
  l.clear_cache();  // factor/RHS copies are dead once the tasks drained
  // Every rank must be past its progress loop before any gather frame is
  // posted: recv_any in a still-draining rank must never see them.
  comm.barrier();
  detail::allgather_row_blocks(
      comm, b, nt, l.tile_size(), Phase::kSolveGather,
      [&l](std::size_t t) { return l.grid().diagonal_owner(t); },
      [&l](std::size_t t) { return l.tile_dim(t); });
  comm.barrier();
}

long configured_checkpoint_interval() {
  constexpr long kDefault = 4;
  const char* env = std::getenv("KGWAS_CKPT_INTERVAL");
  if (env == nullptr || *env == '\0') return kDefault;
  const std::size_t v = env_size_t("KGWAS_CKPT_INTERVAL", 0);
  if (v == 0 || v > static_cast<std::size_t>(std::numeric_limits<long>::max())) {
    KGWAS_LOG_WARN("ignoring KGWAS_CKPT_INTERVAL='"
                   << env << "' (want a positive integer); using "
                   << kDefault);
    return kDefault;
  }
  return static_cast<long>(v);
}

}  // namespace kgwas::dist
