// Priority-aware work-stealing scheduler — the execution substrate under
// the dataflow runtime (src/runtime).
//
// Design (the standard recipe from PaRSEC/StarPU-class task runtimes):
//
//  * Each worker owns a deque of priority buckets.  The owner pushes and
//    pops at the back of the highest-priority bucket (LIFO: the task it
//    just made ready is the cache-hot one), thieves take from the front
//    (FIFO: the oldest task is the largest remaining subtree).
//  * Tasks submitted from a worker thread land in that worker's own deque;
//    external submissions round-robin across workers.
//  * An idle worker sweeps the other deques in a randomized order before
//    sleeping, always stealing the highest-priority task the victim holds.
//  * Priorities are plain ints, higher runs first.  The tiled solvers use
//    them to keep the Cholesky critical path (panel POTRF/TRSM) ahead of
//    trailing-update GEMMs.
//
// Tasks must not let exceptions escape; callers (e.g. Runtime) wrap user
// code in their own try/catch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace kgwas {

/// Per-worker counters, snapshotted by stats().
struct WorkerStats {
  std::uint64_t executed = 0;        // tasks this worker ran
  std::uint64_t stolen = 0;          // ... of which were stolen from others
  std::uint64_t steal_attempts = 0;  // victim probes (successful or not)
};

/// Aggregate scheduler counters; exposed to callers via Profiler.
struct SchedulerStats {
  std::vector<WorkerStats> workers;
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_stolen = 0;
  std::uint64_t steal_attempts = 0;
  // Queue depth is sampled at every submission (total tasks waiting across
  // all deques, after the push).
  std::uint64_t queue_depth_samples = 0;
  std::uint64_t queue_depth_sum = 0;
  std::uint64_t max_queue_depth = 0;

  double avg_queue_depth() const noexcept {
    return queue_depth_samples == 0
               ? 0.0
               : static_cast<double>(queue_depth_sum) /
                     static_cast<double>(queue_depth_samples);
  }
};

class Scheduler {
 public:
  /// `num_workers` = 0 selects std::thread::hardware_concurrency().
  explicit Scheduler(std::size_t num_workers = 0);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues a task; higher `priority` runs first.
  void submit(std::function<void()> fn, int priority = 0);

  /// Blocks until every submitted task (including tasks submitted by
  /// running tasks) has completed.
  void wait_idle();

  std::size_t workers() const noexcept { return threads_.size(); }

  /// Snapshot of the steal/queue-depth counters.
  SchedulerStats stats() const;
  void reset_stats();

  /// Index of the calling thread within this scheduler, -1 when called
  /// from a thread the scheduler does not own.
  int current_worker() const noexcept;

 private:
  struct Task {
    std::function<void()> fn;
    int priority = 0;
  };

  // One deque of priority buckets per worker; highest priority first.
  // A plain mutex per deque keeps the implementation obviously correct —
  // tile tasks are far coarser than the lock hold times.  `size` is
  // atomic so thieves can skip empty victims without taking the lock.
  struct WorkerQueue {
    mutable std::mutex mutex;
    std::map<int, std::deque<Task>, std::greater<int>> buckets;
    std::atomic<std::size_t> size{0};  // total tasks across buckets

    alignas(64) std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
    std::atomic<std::uint64_t> steal_attempts{0};
  };

  void worker_loop(std::size_t worker_index);
  bool pop_local(std::size_t worker_index, Task& out);
  bool steal(std::size_t thief_index, Task& out);
  void push(std::size_t queue_index, Task task);
  void sample_queue_depth();
  void notify_work();

  // Log rank of the thread that constructed this scheduler; workers adopt
  // it so multi-rank log interleavings stay attributable (see logging.hpp).
  const int creator_log_rank_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;

  std::atomic<std::uint64_t> queued_{0};   // tasks waiting in deques
  std::atomic<std::uint64_t> pending_{0};  // submitted and not yet finished
  std::atomic<std::uint64_t> next_external_{0};  // round-robin for externals

  std::atomic<std::uint64_t> depth_samples_{0};
  std::atomic<std::uint64_t> depth_sum_{0};
  std::atomic<std::uint64_t> depth_max_{0};

  mutable std::mutex control_mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::atomic<int> sleepers_{0};  // workers parked on work_available_
  std::atomic<bool> stopping_{false};
};

}  // namespace kgwas
