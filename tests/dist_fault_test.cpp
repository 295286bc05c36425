// Fault-tolerance tests for the distributed layer (ctest label `fault`):
// the KGWAS_FAULT_PLAN grammar, deterministic drop/dup/delay/kill
// injection, deadline-armed receives, the tile checkpoint store's
// versioning rules, and the rank-loss recovery protocol — including the
// central elasticity contract: a factorization that loses a rank
// mid-flight recovers onto the survivors **bitwise identical** to an
// undisturbed run at the survivor rank count.
//
// Every multi-rank body runs under the 60 s per-test watchdog the CMake
// tier sets: a protocol hang is a test failure, not a stuck CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "dist/checkpoint.hpp"
#include "dist/communicator.hpp"
#include "dist/dist_cholesky.hpp"
#include "dist/dist_krr.hpp"
#include "dist/dist_tile_matrix.hpp"
#include "dist/fault.hpp"
#include "dist/process_grid.hpp"
#include "dist/tile_transport.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tiled_cholesky.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/run_report.hpp"

namespace kgwas {
namespace {

using dist::Communicator;
using dist::FaultAction;
using dist::FaultPlan;
using dist::FaultTrigger;
using dist::Message;
using dist::PeerUnreachable;
using dist::Phase;
using dist::SurvivorComm;
using dist::TileCheckpoint;
using dist::UnrecoverableFault;
using dist::WorldAborted;
using dist::make_tile_tag;
using dist::run_ranks;

/// Scoped environment override (the world reads its knobs at
/// construction, so tests set them before run_ranks and restore after).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) old_ = old;
    had_old_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string old_;
  bool had_old_ = false;
};

// ------------------------------------------------------ fault plan grammar

TEST(FaultPlanGrammar, ParsesActionsTriggersAndDelay) {
  const FaultPlan plan = FaultPlan::parse(
      "kill:rank=2:recv=3;drop:rank=0:send=1;"
      "delay:rank=1:send=2:ms=20;dup:rank=3:step=4");
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].action, FaultAction::kKill);
  EXPECT_EQ(plan.events[0].rank, 2);
  EXPECT_EQ(plan.events[0].trigger, FaultTrigger::kRecv);
  EXPECT_EQ(plan.events[0].n, 3u);
  EXPECT_EQ(plan.events[1].action, FaultAction::kDrop);
  EXPECT_EQ(plan.events[1].trigger, FaultTrigger::kSend);
  EXPECT_EQ(plan.events[2].action, FaultAction::kDelay);
  EXPECT_EQ(plan.events[2].delay_ms, 20u);
  EXPECT_EQ(plan.events[3].action, FaultAction::kDup);
  EXPECT_EQ(plan.events[3].trigger, FaultTrigger::kStep);
  EXPECT_EQ(plan.events[3].n, 4u);
}

TEST(FaultPlanGrammar, MalformedSpecThrowsInvalidArgument) {
  EXPECT_THROW(FaultPlan::parse("explode:rank=0:send=1"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("kill:rank=0"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("kill:send=1"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("kill:rank=x:send=1"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("kill:rank=0:tick=1"), InvalidArgument);
}

TEST(FaultPlanGrammar, FromEnvDegradesGracefullyOnMalformedSpec) {
  // Injection must never crash the run it was meant to disturb: a broken
  // env spec is logged and ignored, not thrown.
  const ScopedEnv env("KGWAS_FAULT_PLAN", "kill:rank=");
  EXPECT_TRUE(FaultPlan::from_env().empty());
}

// --------------------------------------------------- checkpoint versioning

TEST(TileCheckpointStore, CommitVersionGuardsAgainstStaleCuts) {
  TileCheckpoint store;
  EXPECT_EQ(store.committed_cut(), -1);
  store.stage_own(1, 0, {std::byte{1}});
  store.commit(2);
  EXPECT_EQ(store.committed_cut(), 2);
  // The double-rollback guard: a breakdown rollback arriving while a
  // checkpoint write was in flight must not re-apply an old cut.
  EXPECT_THROW(store.commit(2), InvalidArgument);
  EXPECT_THROW(store.commit(1), InvalidArgument);
  store.commit(3);
  EXPECT_EQ(store.committed_cut(), 3);
  store.reset();
  EXPECT_EQ(store.committed_cut(), -1);
  store.commit(0);  // a fresh timeline restarts from cut 0
  EXPECT_EQ(store.committed_cut(), 0);
}

TEST(TileCheckpointStore, AbortedStagingIsDiscardedWithoutCorruption) {
  TileCheckpoint store;
  store.stage_own(3, 3, {std::byte{7}});
  store.commit(2);
  const std::vector<std::byte>* committed = store.find_own(3, 3, 2);
  ASSERT_NE(committed, nullptr);
  // A fault mid-write: the staged generation dies, the committed one
  // survives untouched.
  store.stage_own(3, 3, {std::byte{9}});
  store.discard_staged();
  const std::vector<std::byte>* after = store.find_own(3, 3, 2);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ((*after)[0], std::byte{7});
  EXPECT_EQ(store.committed_cut(), 2);
}

TEST(TileCheckpointStore, RetainsTwoNewestCapturesAndFinalVersions) {
  TileCheckpoint store;
  // In-progress tile (3,3): re-captured each cut, only the exact-cut
  // capture restores, history depth 2.
  store.stage_own(3, 3, {std::byte{2}});
  store.stage_own(1, 0, {std::byte{10}});  // final since step 1 (tj=0)
  store.commit(2);
  store.stage_own(3, 3, {std::byte{3}});
  store.commit(3);
  ASSERT_NE(store.find_own(3, 3, 3), nullptr);
  EXPECT_EQ((*store.find_own(3, 3, 3))[0], std::byte{3});
  ASSERT_NE(store.find_own(3, 3, 2), nullptr);
  EXPECT_EQ((*store.find_own(3, 3, 2))[0], std::byte{2});
  store.stage_own(3, 3, {std::byte{4}});
  store.commit(4);
  EXPECT_EQ(store.find_own(3, 3, 2), nullptr);  // trimmed to two newest
  ASSERT_NE(store.find_own(3, 3, 4), nullptr);
  // The finalized tile's single capture serves every later cut.
  for (long cut = 2; cut <= 4; ++cut) {
    ASSERT_NE(store.find_own(1, 0, cut), nullptr) << "cut=" << cut;
    EXPECT_EQ((*store.find_own(1, 0, cut))[0], std::byte{10});
  }
}

// --------------------------------------------- typed detection, no hangs

TEST(Communicator, RecvTimeoutSurfacesTypedPeerUnreachable) {
  const ScopedEnv timeout("KGWAS_COMM_TIMEOUT_MS", "20");
  const ScopedEnv retries("KGWAS_COMM_RETRIES", "1");
  std::atomic<bool> typed{false};
  std::atomic<bool> dead_set_empty{false};
  run_ranks(2, [&](Communicator& comm) {
    if (comm.rank() != 0) return;  // rank 1 never sends
    try {
      comm.recv(make_tile_tag(Phase::kGatherFull, 5, 5));
      FAIL() << "receive of a frame nobody sends must time out";
    } catch (const PeerUnreachable& e) {
      typed = true;
      dead_set_empty = e.dead_ranks().empty();
    }
  });
  EXPECT_TRUE(typed.load());
  // A pure timeout carries no dead set: detection only, the caller (not
  // the recovery protocol) decides what it means.
  EXPECT_TRUE(dead_set_empty.load());
}

TEST(Communicator, DroppedFrameSurfacesAsRecvTimeout) {
  const ScopedEnv timeout("KGWAS_COMM_TIMEOUT_MS", "20");
  const ScopedEnv retries("KGWAS_COMM_RETRIES", "1");
  const FaultPlan plan = FaultPlan::parse("drop:rank=0:send=1");
  std::atomic<bool> timed_out{false};
  run_ranks(2, plan, [&](Communicator& comm) {
    const std::uint64_t tag = make_tile_tag(Phase::kGatherFull, 1, 0);
    if (comm.rank() == 0) {
      comm.send(1, tag, {std::byte{42}});  // injector eats this frame
    } else {
      try {
        comm.recv(tag);
      } catch (const PeerUnreachable& e) {
        timed_out = e.dead_ranks().empty();
      }
    }
  });
  EXPECT_TRUE(timed_out.load());
}

TEST(Communicator, WorldAbortedCarriesOriginRankAndPhase) {
  std::atomic<int> seen_origin{-2};
  std::mutex phase_mutex;
  std::string seen_phase;
  EXPECT_THROW(
      run_ranks(3,
                [&](Communicator& comm) {
                  if (comm.rank() == 1) {
                    comm.set_phase_label("checkpoint");
                    throw NumericalError("synthetic failure", 3);
                  }
                  try {
                    comm.recv(make_tile_tag(Phase::kGatherFull, 9, 9));
                  } catch (const WorldAborted& e) {
                    seen_origin = e.origin_rank();
                    std::lock_guard<std::mutex> lock(phase_mutex);
                    seen_phase = e.phase();
                    throw;
                  }
                }),
      NumericalError);  // root cause wins over the secondary aborts
  EXPECT_EQ(seen_origin.load(), 1);
  EXPECT_EQ(seen_phase, "checkpoint");
}

TEST(Communicator, DiscardPendingDropsQueuedApplicationFramesOnly) {
  // A retried round starts from an empty wire: discard_pending drops and
  // counts every application frame already delivered.  Collective frames
  // stay: a peer may already be in the next barrier while this rank
  // discards, and that barrier must still pair up.
  run_ranks(2, [](Communicator& comm) {
    const int peer = 1 - comm.rank();
    comm.send(peer, make_tile_tag(Phase::kPotrfPanel, 1, 0), {std::byte{5}});
    comm.send(peer, make_tile_tag(Phase::kPotrfPanel, 2, 0), {std::byte{6}});
    comm.barrier();  // both frames are queued behind the barrier
    EXPECT_EQ(comm.discard_pending(), 2u);
    EXPECT_EQ(comm.discard_pending(), 0u);
    comm.barrier();
    // The wire still carries the frames sent after the discard.
    const std::uint64_t tag = make_tile_tag(Phase::kPotrfPanel, 1, 0);
    comm.send(peer, tag, {std::byte{7}});
    const Message m = comm.recv(tag);
    EXPECT_EQ(m.src, peer);
    ASSERT_EQ(m.payload.size(), 1u);
    EXPECT_EQ(static_cast<int>(m.payload[0]), 7);
  });
}

// ----------------------------------------------------- factorization rigs

/// Deterministic SPD matrix (same construction as the dist tests).
Matrix<float> spd_dense(std::size_t n) {
  Matrix<float> a(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = (static_cast<double>(i) - static_cast<double>(j)) /
                       static_cast<double>(n);
      a(i, j) = static_cast<float>(std::exp(-40.0 * d * d));
    }
  }
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0f;
  return a;
}

SymmetricTileMatrix reference_factor(std::size_t n, std::size_t ts,
                                     const PrecisionMap& map) {
  SymmetricTileMatrix a(n, ts);
  a.from_dense(spd_dense(n));
  map.apply(a);
  Runtime rt(2);
  tiled_potrf(rt, a);
  return a;
}

bool factors_bitwise_equal(const SymmetricTileMatrix& a,
                           const SymmetricTileMatrix& b) {
  if (a.n() != b.n() || a.tile_size() != b.tile_size()) return false;
  for (std::size_t tj = 0; tj < a.tile_count(); ++tj) {
    for (std::size_t ti = tj; ti < a.tile_count(); ++ti) {
      const Tile& ta = a.tile(ti, tj);
      const Tile& tb = b.tile(ti, tj);
      if (ta.precision() != tb.precision() ||
          ta.storage_bytes() != tb.storage_bytes()) {
        return false;
      }
      if (std::memcmp(ta.raw(), tb.raw(), ta.storage_bytes()) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// Plain (non-FT) distributed factor under a fault plan, gathered on
/// rank 0 — for the faults dist_tiled_potrf must shrug off (dup, delay).
SymmetricTileMatrix dist_factor_with_plan(std::size_t n, std::size_t ts,
                                          int ranks, const PrecisionMap& map,
                                          const FaultPlan& plan) {
  SymmetricTileMatrix full(n, ts);
  full.from_dense(spd_dense(n));
  map.apply(full);
  SymmetricTileMatrix gathered;
  run_ranks(ranks, plan, [&](Communicator& comm) {
    Runtime rt(1);
    const ProcessGrid grid(ranks);
    dist::DistSymmetricTileMatrix a(n, ts, grid, comm.rank());
    a.from_full(full);
    dist::DistPotrfOptions options;
    options.precision_map = &map;
    dist::dist_tiled_potrf(rt, comm, a, options);
    SymmetricTileMatrix out = a.gather_full(comm);
    if (comm.rank() == 0) gathered = std::move(out);
  });
  return gathered;
}

/// Outcome of one fault-tolerant run visible to the test: rank-0's
/// gathered factor plus the (replicated) recovery bookkeeping.
struct FtOutcome {
  SymmetricTileMatrix factor;
  int rank_losses = -1;
  long last_restore_cut = -2;
  std::uint64_t checkpoints = 0;
  std::uint64_t restored_tiles = 0;
  std::vector<int> final_ranks;
};

/// Runs the checkpointed dist_tiled_potrf on `ranks` ranks under `plan`
/// and gathers the recovered factor over whatever communicator/matrix
/// survived.
FtOutcome ft_factor(std::size_t n, std::size_t ts, int ranks,
                    const PrecisionMap& map, const FaultPlan& plan,
                    long interval) {
  SymmetricTileMatrix full(n, ts);
  full.from_dense(spd_dense(n));
  map.apply(full);
  FtOutcome outcome;
  std::mutex mutex;
  run_ranks(ranks, plan, [&](Communicator& comm) {
    Runtime rt(1);
    const ProcessGrid grid(ranks);
    dist::DistSymmetricTileMatrix a(n, ts, grid, comm.rank());
    a.from_full(full);
    dist::DistPotrfOptions options;
    options.precision_map = &map;
    options.checkpoint_interval = interval;
    dist::DistFtResult result = dist::dist_tiled_potrf(rt, comm, a, options);
    Communicator& active = result.active_comm(comm);
    SymmetricTileMatrix out = result.active_matrix(a).gather_full(active);
    if (active.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      outcome.factor = std::move(out);
      outcome.rank_losses = result.rank_losses;
      outcome.last_restore_cut = result.last_restore_cut;
      outcome.checkpoints = result.checkpoints;
      outcome.restored_tiles = result.restored_tiles;
      outcome.final_ranks = result.final_ranks;
    }
  });
  return outcome;
}

PrecisionMap band_map(std::size_t nt) {
  return band_precision_map(nt, 0.34, Precision::kFp16, Precision::kFp32);
}

/// The fault-tolerance tallies every surviving rank returns from one
/// checkpointed run (in no particular order).
std::vector<telemetry::FaultSummary> ft_tallies(std::size_t n, std::size_t ts,
                                                int ranks,
                                                const FaultPlan& plan,
                                                long interval) {
  SymmetricTileMatrix full(n, ts);
  full.from_dense(spd_dense(n));
  const PrecisionMap map = band_map(full.tile_count());
  map.apply(full);
  std::vector<telemetry::FaultSummary> tallies;
  std::mutex mutex;
  run_ranks(ranks, plan, [&](Communicator& comm) {
    Runtime rt(1);
    const ProcessGrid grid(ranks);
    dist::DistSymmetricTileMatrix a(n, ts, grid, comm.rank());
    a.from_full(full);
    dist::DistPotrfOptions options;
    options.precision_map = &map;
    options.checkpoint_interval = interval;
    const dist::DistFtResult result =
        dist::dist_tiled_potrf(rt, comm, a, options);
    std::lock_guard<std::mutex> lock(mutex);
    tallies.push_back(result);
  });
  return tallies;
}

// ------------------------------------------------- injected-fault survival

TEST(DistFaultInjection, DuplicatedPanelFramesAreIgnoredBitwise) {
  const std::size_t n = 128, ts = 32;
  const PrecisionMap map = band_map(n / ts);
  const SymmetricTileMatrix reference = reference_factor(n, ts, map);
  const FaultPlan plan =
      FaultPlan::parse("dup:rank=0:send=2;dup:rank=1:send=3");
  const SymmetricTileMatrix factor =
      dist_factor_with_plan(n, ts, 2, map, plan);
  EXPECT_TRUE(factors_bitwise_equal(reference, factor));
}

TEST(DistFaultInjection, DelayedPanelFrameIsBenign) {
  const std::size_t n = 128, ts = 32;
  const PrecisionMap map = band_map(n / ts);
  const SymmetricTileMatrix reference = reference_factor(n, ts, map);
  const FaultPlan plan = FaultPlan::parse("delay:rank=1:send=2:ms=25");
  const SymmetricTileMatrix factor =
      dist_factor_with_plan(n, ts, 2, map, plan);
  EXPECT_TRUE(factors_bitwise_equal(reference, factor));
}

// ------------------------------------------------------ rank-loss recovery

TEST(DistFaultTolerance, FaultFreeFtRunMatchesPlainFactorBitwise) {
  const std::size_t n = 192, ts = 32;
  const PrecisionMap map = band_map(n / ts);
  const SymmetricTileMatrix reference = reference_factor(n, ts, map);
  const FtOutcome outcome = ft_factor(n, ts, 4, map, FaultPlan{}, 2);
  EXPECT_EQ(outcome.rank_losses, 0);
  EXPECT_EQ(outcome.last_restore_cut, -1);
  EXPECT_GT(outcome.checkpoints, 0u);  // cuts were written even fault-free
  EXPECT_EQ(outcome.restored_tiles, 0u);
  ASSERT_EQ(outcome.final_ranks.size(), 4u);
  EXPECT_TRUE(factors_bitwise_equal(reference, outcome.factor));
}

TEST(DistFaultTolerance, KillAtRoundBoundaryRecoversBitwiseOntoSurvivors) {
  // The acceptance scenario: 4 ranks, rank 2 dies after the cut-2
  // checkpoint committed; the 3 survivors remap the grid, re-ingest cut 2
  // and finish — bitwise identical to a run that never saw the fault
  // (which, by rank-count invariance, equals the 3-rank run's factor).
  const std::size_t n = 192, ts = 32;
  const PrecisionMap map = band_map(n / ts);
  const SymmetricTileMatrix reference = reference_factor(n, ts, map);
  const FaultPlan plan = FaultPlan::parse("kill:rank=2:step=2");
  const FtOutcome outcome = ft_factor(n, ts, 4, map, plan, 2);
  EXPECT_EQ(outcome.rank_losses, 1);
  EXPECT_EQ(outcome.last_restore_cut, 2);
  EXPECT_GT(outcome.restored_tiles, 0u);
  ASSERT_EQ(outcome.final_ranks.size(), 3u);
  EXPECT_EQ(outcome.final_ranks, (std::vector<int>{0, 1, 3}));
  EXPECT_TRUE(factors_bitwise_equal(reference, outcome.factor));
  // The undisturbed survivor-count run, explicitly: the recovered factor
  // must match it tile-for-tile, byte-for-byte.
  const SymmetricTileMatrix undisturbed =
      dist_factor_with_plan(n, ts, 3, map, FaultPlan{});
  EXPECT_TRUE(factors_bitwise_equal(undisturbed, outcome.factor));
}

TEST(DistFaultTolerance, KillMidTrailingUpdateRecoversBitwise) {
  // The kill fires on rank 1's 5th progress-loop receive — inside a
  // round, with trailing-update tasks in flight on every rank.
  const std::size_t n = 192, ts = 32;
  const PrecisionMap map = band_map(n / ts);
  const SymmetricTileMatrix reference = reference_factor(n, ts, map);
  const FaultPlan plan = FaultPlan::parse("kill:rank=1:recv=5");
  const FtOutcome outcome = ft_factor(n, ts, 4, map, plan, 2);
  EXPECT_EQ(outcome.rank_losses, 1);
  EXPECT_GE(outcome.last_restore_cut, 0);
  ASSERT_EQ(outcome.final_ranks.size(), 3u);
  EXPECT_EQ(outcome.final_ranks, (std::vector<int>{0, 2, 3}));
  EXPECT_TRUE(factors_bitwise_equal(reference, outcome.factor));
}

TEST(DistFaultTolerance, SweepKillStepAcrossRankCountsAndIntervals) {
  const std::size_t n = 160, ts = 32;
  const std::size_t nt = n / ts;  // 5 panel steps
  const PrecisionMap map = band_map(nt);
  const SymmetricTileMatrix reference = reference_factor(n, ts, map);
  for (const int ranks : {4, 6}) {
    for (const long interval : {1L, 2L, 3L}) {
      for (const long step : {interval, 2 * interval}) {
        if (step >= static_cast<long>(nt)) continue;
        const FaultPlan plan = FaultPlan::parse(
            "kill:rank=" + std::to_string(ranks - 1) +
            ":step=" + std::to_string(step));
        const FtOutcome outcome = ft_factor(n, ts, ranks, map, plan, interval);
        const std::string label = "ranks=" + std::to_string(ranks) +
                                  " interval=" + std::to_string(interval) +
                                  " step=" + std::to_string(step);
        EXPECT_EQ(outcome.rank_losses, 1) << label;
        EXPECT_EQ(outcome.last_restore_cut, step) << label;
        ASSERT_EQ(outcome.final_ranks.size(),
                  static_cast<std::size_t>(ranks - 1))
            << label;
        EXPECT_TRUE(factors_bitwise_equal(reference, outcome.factor)) << label;
      }
    }
  }
}

TEST(DistFaultTolerance, TalliesAreWorldTotalsOnEverySurvivor) {
  // nt = 8 at interval 2: cuts 0, 2, 4 and 6 capture the lower tiles with
  // tj >= the previous cut, 36 + 36 + 21 + 10 of them.  Each capture is
  // written once by its owner and, past one rank, shipped once to the
  // owner's ring buddy.
  const std::size_t n = 256, ts = 32;
  const std::vector<telemetry::FaultSummary> one =
      ft_tallies(n, ts, 1, FaultPlan{}, 2);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].checkpoint_tiles, 103u);
  const std::vector<telemetry::FaultSummary> four =
      ft_tallies(n, ts, 4, FaultPlan{}, 2);
  ASSERT_EQ(four.size(), 4u);
  for (const telemetry::FaultSummary& t : four) {
    EXPECT_EQ(t.checkpoint_tiles, one[0].checkpoint_tiles);
    EXPECT_EQ(t.checkpoint_bytes, 2 * one[0].checkpoint_bytes);
    EXPECT_EQ(t.restored_tiles, 0u);
  }
  // After a loss every survivor holds the same world checkpoint and
  // restore IO.
  const std::vector<telemetry::FaultSummary> killed =
      ft_tallies(n, ts, 4, FaultPlan::parse("kill:rank=2:step=2"), 2);
  ASSERT_EQ(killed.size(), 3u);
  EXPECT_GT(killed[0].restored_tiles, 0u);
  for (const telemetry::FaultSummary& t : killed) {
    EXPECT_EQ(t.checkpoint_tiles, killed[0].checkpoint_tiles);
    EXPECT_EQ(t.checkpoint_bytes, killed[0].checkpoint_bytes);
    EXPECT_EQ(t.restored_tiles, killed[0].restored_tiles);
    EXPECT_EQ(t.restored_bytes, killed[0].restored_bytes);
  }
}

TEST(DistFaultTolerance, KillWithTwoRanksIsUnrecoverable) {
  // One survivor cannot redistribute: every survivor must throw the same
  // typed UnrecoverableFault instead of hanging or crashing.
  const std::size_t n = 160, ts = 32;
  const PrecisionMap map = band_map(n / ts);
  const FaultPlan plan = FaultPlan::parse("kill:rank=1:step=2");
  EXPECT_THROW(ft_factor(n, ts, 2, map, plan, 2), UnrecoverableFault);
}

// ------------------------------------------------- TLR fault tolerance

/// Smooth Gaussian kernel: off-diagonal tiles compress at tol 1e-4.
Matrix<float> tlr_spd(std::size_t n) {
  Matrix<float> k(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = static_cast<double>(i) - static_cast<double>(j);
      k(i, j) = static_cast<float>(std::exp(-d * d / 900.0));
    }
  }
  for (std::size_t i = 0; i < n; ++i) k(i, i) += 2.0f;
  return k;
}

/// Compressed input: TLR planning before the precision map applies.
SymmetricTileMatrix tlr_input(std::size_t n, std::size_t ts,
                              const PrecisionMap& map) {
  SymmetricTileMatrix full(n, ts);
  full.from_dense(tlr_spd(n));
  TlrPolicy policy;
  policy.tol = 1e-4;
  plan_tlr_compression(full, map, policy);
  map.apply(full);
  return full;
}

/// Representation-aware bitwise comparison (factors_bitwise_equal's
/// dense-only tile() access throws on a low-rank slot).
bool slots_bitwise_equal(const SymmetricTileMatrix& a,
                         const SymmetricTileMatrix& b) {
  if (a.n() != b.n() || a.tile_size() != b.tile_size()) return false;
  for (std::size_t tj = 0; tj < a.tile_count(); ++tj) {
    for (std::size_t ti = tj; ti < a.tile_count(); ++ti) {
      const TileSlot& sa = a.slot(ti, tj);
      const TileSlot& sb = b.slot(ti, tj);
      if (sa.is_low_rank() != sb.is_low_rank() ||
          sa.precision() != sb.precision() ||
          sa.storage_bytes() != sb.storage_bytes()) {
        return false;
      }
      if (sa.is_low_rank()) {
        const TlrTile& la = sa.low_rank();
        const TlrTile& lb = sb.low_rank();
        if (la.rank() != lb.rank()) return false;
        if (la.u().storage_bytes() != 0 &&
            (std::memcmp(la.u().raw(), lb.u().raw(),
                         la.u().storage_bytes()) != 0 ||
             std::memcmp(la.v().raw(), lb.v().raw(),
                         la.v().storage_bytes()) != 0)) {
          return false;
        }
      } else if (std::memcmp(sa.dense().raw(), sb.dense().raw(),
                             sa.storage_bytes()) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// Checkpointed dist_tiled_potrf over a compressed input, gathered on the
/// active world's rank 0 (the TLR twin of ft_factor).
FtOutcome tlr_ft_factor(const SymmetricTileMatrix& full, int ranks,
                        const PrecisionMap& map, const FaultPlan& plan,
                        long interval) {
  const std::size_t n = full.n(), ts = full.tile_size();
  FtOutcome outcome;
  std::mutex mutex;
  run_ranks(ranks, plan, [&](Communicator& comm) {
    Runtime rt(1);
    const ProcessGrid grid(ranks);
    dist::DistSymmetricTileMatrix a(n, ts, grid, comm.rank());
    a.from_full(full);
    dist::DistPotrfOptions options;
    options.precision_map = &map;
    options.checkpoint_interval = interval;
    dist::DistFtResult result = dist::dist_tiled_potrf(rt, comm, a, options);
    Communicator& active = result.active_comm(comm);
    SymmetricTileMatrix out = result.active_matrix(a).gather_full(active);
    if (active.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      outcome.factor = std::move(out);
      outcome.rank_losses = result.rank_losses;
      outcome.last_restore_cut = result.last_restore_cut;
      outcome.checkpoints = result.checkpoints;
      outcome.restored_tiles = result.restored_tiles;
      outcome.final_ranks = result.final_ranks;
    }
  });
  return outcome;
}

TEST(DistFaultTolerance, TlrCheckpointRoundTripsFactorsBitwise) {
  // A compressed tile checkpoints at factor-byte cost and restores in
  // factored form, bit for bit: slot frames staged in the store must
  // decode back to identical representations, low-rank and dense alike.
  const std::size_t n = 160, ts = 32;
  const std::size_t nt = n / ts;
  const PrecisionMap map(nt, Precision::kFp32);
  const SymmetricTileMatrix full = tlr_input(n, ts, map);
  ASSERT_TRUE(full.has_low_rank());
  TileCheckpoint store;
  std::size_t lr_frames = 0, dense_bytes = 0, frame_bytes = 0;
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      const TileSlot& slot = full.slot(ti, tj);
      std::vector<std::byte> frame = dist::encode_slot(slot);
      frame_bytes += frame.size();
      dense_bytes += slot.rows() * slot.cols() *
                     bytes_per_element(slot.precision());
      if (slot.is_low_rank()) ++lr_frames;
      store.stage_own(ti, tj, std::move(frame));
    }
  }
  ASSERT_GT(lr_frames, 0u);
  // Factor-byte cost: compressed captures undercut the dense footprint.
  EXPECT_LT(frame_bytes, dense_bytes);
  store.commit(0);
  SymmetricTileMatrix back(n, ts);
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      const std::vector<std::byte>* frame = store.find_own(ti, tj, 0);
      ASSERT_NE(frame, nullptr);
      dist::decode_slot(*frame, back.slot(ti, tj));
    }
  }
  EXPECT_TRUE(slots_bitwise_equal(full, back));
}

TEST(DistFaultTolerance, TlrKillAtRoundBoundaryRecoversBitwise) {
  // The TLR acceptance scenario: rank 2 of 4 dies mid-TLR-factorization
  // (after the cut-2 checkpoint committed); the survivors re-ingest the
  // factored captures and finish bitwise identical to an undisturbed run
  // at the survivor rank count — compressed tiles included.
  const std::size_t n = 192, ts = 32;
  const std::size_t nt = n / ts;
  const PrecisionMap map =
      band_precision_map(nt, 0.34, Precision::kFp16, Precision::kFp32);
  const SymmetricTileMatrix full = tlr_input(n, ts, map);
  ASSERT_TRUE(full.has_low_rank());

  // Shared-memory reference factor of the same compressed input.
  SymmetricTileMatrix reference = full;
  {
    Runtime rt(2);
    tiled_potrf(rt, reference);
  }

  const FaultPlan plan = FaultPlan::parse("kill:rank=2:step=2");
  const FtOutcome outcome = tlr_ft_factor(full, 4, map, plan, 2);
  EXPECT_EQ(outcome.rank_losses, 1);
  EXPECT_EQ(outcome.last_restore_cut, 2);
  EXPECT_GT(outcome.restored_tiles, 0u);
  ASSERT_EQ(outcome.final_ranks.size(), 3u);
  EXPECT_TRUE(outcome.factor.has_low_rank());  // recovered in factored form
  EXPECT_TRUE(slots_bitwise_equal(reference, outcome.factor));

  // The undisturbed survivor-count run, explicitly.
  const FtOutcome undisturbed = tlr_ft_factor(full, 3, map, FaultPlan{}, 2);
  EXPECT_EQ(undisturbed.rank_losses, 0);
  EXPECT_TRUE(slots_bitwise_equal(undisturbed.factor, outcome.factor));
}

TEST(DistFaultTolerance, TlrSketchedTilesFtRunMatchesPlainBitwise) {
  // 128-wide tiles: the input's factors come from the randomized range
  // finder, not the Jacobi of the 32-wide twins above.  A fault-free
  // checkpointed run must equal the plain dist run and the shared-memory
  // factor, compressed tiles included.
  const std::size_t n = 768, ts = 128;
  const PrecisionMap map = band_map(n / ts);
  const SymmetricTileMatrix full = tlr_input(n, ts, map);
  ASSERT_TRUE(full.has_low_rank());
  SymmetricTileMatrix reference = full;
  {
    Runtime rt(2);
    tiled_potrf(rt, reference);
  }
  const FtOutcome ft = tlr_ft_factor(full, 4, map, FaultPlan{}, 2);
  EXPECT_EQ(ft.rank_losses, 0);
  EXPECT_GT(ft.checkpoints, 0u);
  EXPECT_TRUE(ft.factor.has_low_rank());
  EXPECT_TRUE(slots_bitwise_equal(reference, ft.factor));
  const FtOutcome plain = tlr_ft_factor(full, 4, map, FaultPlan{}, 0);
  EXPECT_TRUE(slots_bitwise_equal(plain.factor, ft.factor));
}

TEST(DistFaultTolerance, TlrSketchedTilesKillRecoversBitwise) {
  // The rank-kill scenario on sketch-compressed 128-wide tiles: rank 2 of
  // 4 dies after the cut-2 checkpoint; the survivors finish bitwise equal
  // to the shared-memory factor and to an undisturbed 3-rank run.
  const std::size_t n = 768, ts = 128;
  const PrecisionMap map = band_map(n / ts);
  const SymmetricTileMatrix full = tlr_input(n, ts, map);
  ASSERT_TRUE(full.has_low_rank());
  SymmetricTileMatrix reference = full;
  {
    Runtime rt(2);
    tiled_potrf(rt, reference);
  }
  const FaultPlan plan = FaultPlan::parse("kill:rank=2:step=2");
  const FtOutcome outcome = tlr_ft_factor(full, 4, map, plan, 2);
  EXPECT_EQ(outcome.rank_losses, 1);
  EXPECT_EQ(outcome.last_restore_cut, 2);
  EXPECT_GT(outcome.restored_tiles, 0u);
  ASSERT_EQ(outcome.final_ranks.size(), 3u);
  EXPECT_TRUE(outcome.factor.has_low_rank());
  EXPECT_TRUE(slots_bitwise_equal(reference, outcome.factor));
  const FtOutcome undisturbed = tlr_ft_factor(full, 3, map, FaultPlan{}, 2);
  EXPECT_TRUE(slots_bitwise_equal(undisturbed.factor, outcome.factor));
}

TEST(DistFaultTolerance, KillBeforeFirstCommitIsUnrecoverable) {
  // Rank 2's very first application send is a cut-0 replica frame: it
  // dies inside the initial checkpoint write, before any survivor could
  // commit — the cut agreement resolves to "no common cut" and every
  // survivor throws the same typed error.
  const std::size_t n = 160, ts = 32;
  const PrecisionMap map = band_map(n / ts);
  const FaultPlan plan = FaultPlan::parse("kill:rank=2:send=1");
  EXPECT_THROW(ft_factor(n, ts, 3, map, plan, 2), UnrecoverableFault);
}

}  // namespace
}  // namespace kgwas
