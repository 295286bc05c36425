// Tests for the priority-aware work-stealing Scheduler and its
// integration with the dataflow runtime: priority observance, stealing
// under blocked owners, randomized stress DAGs, nested-submit draining.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/scheduler.hpp"
#include "runtime/runtime.hpp"

namespace kgwas {
namespace {

/// Busy-wait latch usable from scheduler workers (yields, never sleeps on
/// a lock a worker might need).
class SpinLatch {
 public:
  void release() { released_.store(true, std::memory_order_release); }
  void await() const {
    while (!released_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

 private:
  std::atomic<bool> released_{false};
};

TEST(Scheduler, PriorityOrderObservedOnSingleWorker) {
  Scheduler sched(1);
  SpinLatch started, release;
  sched.submit([&] {
    started.release();
    release.await();
  });
  started.await();  // the worker is now pinned inside the blocker

  const std::vector<int> priorities = {3, 9, 1, 7, 5, 2, 8, 4, 6};
  std::vector<int> order;
  std::mutex order_mutex;
  for (const int p : priorities) {
    sched.submit(
        [&, p] {
          std::lock_guard<std::mutex> lock(order_mutex);
          order.push_back(p);
        },
        p);
  }
  release.release();
  sched.wait_idle();

  std::vector<int> expected = priorities;
  std::sort(expected.rbegin(), expected.rend());
  EXPECT_EQ(order, expected);
}

TEST(Scheduler, StealsFromBlockedWorkerDeque) {
  Scheduler sched(2);
  // Block both workers so the quick tasks pile up in both deques.
  SpinLatch a_started, b_started, a_release, b_release;
  sched.submit([&] {
    a_started.release();
    a_release.await();
  });
  sched.submit([&] {
    b_started.release();
    b_release.await();
  });
  a_started.await();
  b_started.await();

  // External submissions round-robin across both deques.
  constexpr int kQuick = 20;
  std::atomic<int> quick_done{0};
  for (int i = 0; i < kQuick; ++i) {
    sched.submit([&] { quick_done.fetch_add(1); });
  }
  // Free one worker; it must drain BOTH deques (the other owner is still
  // blocked), so about half the quick tasks can only arrive via stealing.
  a_release.release();
  while (quick_done.load() < kQuick) std::this_thread::yield();
  b_release.release();
  sched.wait_idle();

  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.tasks_executed, static_cast<std::uint64_t>(kQuick) + 2);
  EXPECT_GE(stats.tasks_stolen, static_cast<std::uint64_t>(kQuick) / 2);
  // Steal-half batching: one successful attempt may net several tasks.
  EXPECT_GE(stats.steal_attempts, 1u);
  EXPECT_EQ(stats.workers.size(), 2u);
  EXPECT_EQ(stats.queue_depth_samples, static_cast<std::uint64_t>(kQuick) + 2);
}

/// Regression: push() counted a task in the queue depth only after
/// releasing its deque lock, so the pop or steal that took the task could
/// decrement first, and a concurrent depth sample recorded 2^64 - 1 as
/// max_queue_depth (about one trial in ten on 4 workers).  Chains of
/// write -> read -> read-write tasks on independent data make every
/// completion push a successor that an idle worker steals at once.
TEST(Scheduler, QueueDepthNeverExceedsTasksSubmitted) {
  constexpr int kTrials = 100;
  constexpr int kChains = 1500;
  for (int trial = 0; trial < kTrials; ++trial) {
    Runtime rt(4);
    const std::vector<int> chains(kChains);
    for (const int& h : chains) {
      rt.submit({"write", {{&h, Access::kWrite}}}, [] {});
      rt.submit({"read", {{&h, Access::kRead}}}, [] {});
      rt.submit({"update", {{&h, Access::kReadWrite}}}, [] {});
    }
    rt.wait();
    const SchedulerStats stats = rt.profiler().scheduler_stats();
    ASSERT_EQ(stats.tasks_executed, rt.tasks_submitted());
    ASSERT_LE(stats.max_queue_depth, rt.tasks_submitted())
        << "trial " << trial;
  }
}

TEST(Scheduler, CurrentWorkerIdentity) {
  Scheduler sched(3);
  EXPECT_EQ(sched.current_worker(), -1);  // external thread
  std::atomic<int> seen_id{-2};
  sched.submit([&] { seen_id.store(sched.current_worker()); });
  sched.wait_idle();
  EXPECT_GE(seen_id.load(), 0);
  EXPECT_LT(seen_id.load(), 3);
}

TEST(Scheduler, NestedSpawnsDrainAndCountersAdd) {
  Scheduler sched(4);
  // Each task at depth d spawns 3 children down to depth 0:
  // total = 3^0 + .. + 3^4 roots... we submit 4 roots of depth 4.
  std::atomic<int> executed{0};
  std::function<void(int)> spawn = [&](int depth) {
    executed.fetch_add(1);
    if (depth == 0) return;
    for (int c = 0; c < 3; ++c) {
      sched.submit([&spawn, depth] { spawn(depth - 1); }, depth);
    }
  };
  for (int r = 0; r < 4; ++r) {
    sched.submit([&spawn] { spawn(4); });
  }
  sched.wait_idle();
  // 4 * (1 + 3 + 9 + 27 + 81) = 484
  EXPECT_EQ(executed.load(), 484);
  EXPECT_EQ(sched.stats().tasks_executed, 484u);
  sched.reset_stats();
  EXPECT_EQ(sched.stats().tasks_executed, 0u);
  EXPECT_EQ(sched.stats().queue_depth_samples, 0u);
}

// Coverage migrated from the deleted ThreadPool facade: plain fork-join
// submission drains, and a parallel-for-shaped fan-out covers every index
// exactly once.  (Exception propagation, the facade's third behavior,
// lives at the Runtime layer — see Runtime tests below / runtime_test.)
TEST(Scheduler, ForkJoinSubmitAndWaitIdle) {
  Scheduler sched(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    sched.submit([&] { counter.fetch_add(1); });
  }
  sched.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(Scheduler, FanOutCoversAllIndicesExactlyOnce) {
  Scheduler sched(4);
  std::vector<std::atomic<int>> hits(257);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    sched.submit([&hits, i] { hits[i].fetch_add(1); });
  }
  sched.wait_idle();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Runtime, PrioritySubmitOverloadsObserveOrder) {
  Runtime rt(1);
  const int blocker_datum = 0;
  SpinLatch started, release;
  rt.submit({"blocker", {{&blocker_datum, Access::kWrite}}}, [&] {
    started.release();
    release.await();
  });
  started.await();

  std::vector<std::string> order;
  std::mutex order_mutex;
  auto record = [&](std::string tag) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(std::move(tag));
  };
  // Independent data, so the scheduler's priority order fully
  // determines execution order; the first TaskDesc leaves the priority at
  // its default of 0.
  const int ha = 0, hb = 0, hc = 0;
  rt.submit({"low", {{&ha, Access::kWrite}}}, [&] { record("low"); });
  rt.submit(TaskDesc{"high", {{&hb, Access::kWrite}}, 20},
            [&] { record("high"); });
  rt.submit(TaskDesc{"mid", {{&hc, Access::kWrite}}, 10},
            [&] { record("mid"); });
  release.release();
  rt.wait();

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "high");
  EXPECT_EQ(order[1], "mid");
  EXPECT_EQ(order[2], "low");
}

TEST(Runtime, SchedulerStatsExposedViaProfiler) {
  Runtime rt(2);
  const int datum = 0;
  for (int i = 0; i < 10; ++i) {
    rt.submit({"t", {{&datum, Access::kReadWrite}}}, [] {});
  }
  rt.wait();
  const SchedulerStats stats = rt.profiler().scheduler_stats();
  EXPECT_EQ(stats.tasks_executed, 10u);
  EXPECT_EQ(stats.workers.size(), 2u);
  EXPECT_GE(stats.max_queue_depth, 1u);
}

/// Work-stealing correctness: a randomized program over shared cells with
/// random read/write sets and random priorities must match serial
/// execution exactly, whatever order the scheduler picks.
TEST(Runtime, RandomizedStressDagMatchesSerialExecution) {
  constexpr int kCells = 16;
  constexpr int kTasks = 1500;
  Rng rng(20240901);

  struct Op {
    int target;
    std::vector<int> sources;
    int priority;
  };
  std::vector<Op> program;
  program.reserve(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    Op op;
    op.target = static_cast<int>(rng.uniform_index(kCells));
    const int n_src = 1 + static_cast<int>(rng.uniform_index(4));
    for (int s = 0; s < n_src; ++s) {
      op.sources.push_back(static_cast<int>(rng.uniform_index(kCells)));
    }
    op.priority = static_cast<int>(rng.uniform_index(64)) - 32;
    program.push_back(std::move(op));
  }

  auto apply = [](std::vector<long>& cells, const Op& op) {
    long acc = 7;
    for (int s : op.sources) acc = (acc * 131 + cells[s]) % 1000003;
    cells[op.target] = acc;
  };

  // Serial reference.
  std::vector<long> serial(kCells);
  std::iota(serial.begin(), serial.end(), 1);
  for (const Op& op : program) apply(serial, op);

  // Runtime execution with 4 workers and randomized priorities: the DAG
  // edges, not the priorities, must decide the visible ordering.
  std::vector<long> cells(kCells);
  std::iota(cells.begin(), cells.end(), 1);
  Runtime rt(4);
  for (const Op& op : program) {
    std::vector<Dep> deps{{&cells[op.target], Access::kReadWrite}};
    for (int s : op.sources) deps.push_back({&cells[s], Access::kRead});
    rt.submit(TaskDesc{"op", std::move(deps), op.priority},
              [&cells, &apply, &op] { apply(cells, op); });
  }
  rt.wait();
  EXPECT_EQ(cells, serial);
}

/// Regression: wait() must drain tasks submitted by tasks, transitively,
/// even for deep chains interleaved with fan-out.
TEST(Runtime, WaitDrainsNestedSubmits) {
  Runtime rt(2);
  const int chain = 0;
  std::vector<int> sides(100);
  std::atomic<int> executed{0};
  std::function<void(int)> spawn = [&](int depth) {
    executed.fetch_add(1);
    if (depth == 0) return;
    rt.submit(TaskDesc{"chain", {{&chain, Access::kReadWrite}}, depth},
              [&spawn, depth] { spawn(depth - 1); });
    rt.submit({"side", {{&sides[depth - 1], Access::kWrite}}},
              [&executed] { executed.fetch_add(1); });
  };
  rt.submit({"root", {{&chain, Access::kReadWrite}}},
            [&spawn] { spawn(100); });
  rt.wait();
  // Chain: root + 100 links = 101; each of the 100 spawning levels also
  // fires one side task.
  EXPECT_EQ(executed.load(), 201);
}

}  // namespace
}  // namespace kgwas
