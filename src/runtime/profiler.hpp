// Lightweight task profiler: records one span per executed task and
// aggregates totals per task name and per worker.  The benchmark harness
// uses the aggregate view to break runs down into Build / Associate /
// Predict the way the paper's Fig. 14 does, and the scheduler-efficiency
// reports use the per-worker view plus the steal/queue-depth counters,
// read live from the owning runtime's Scheduler.
//
// Record path: spans land in *sharded* per-thread buffers — each
// recording thread is assigned one of kSpanShards slots, so the
// per-task-span cost is an uncontended shard-local mutex, never a global
// one (the old single-mutex design serialized every worker of a busy
// scheduler through one lock per task).  Readers fold the shards and sort
// by start time, so the reported timeline is deterministic regardless of
// which shard a span landed in.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/scheduler.hpp"

namespace kgwas {

struct TaskSpan {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int worker = -1;
  double flops = 0.0;  ///< useful FLOPs of this task (0 = not accounted)
};

struct TaskStats {
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double flops = 0.0;  ///< summed per-task FLOP counts of the class

  /// Achieved GFLOP/s of the task class (0 when unaccounted/zero time).
  double gflops() const noexcept {
    return total_seconds > 0.0 ? flops / total_seconds * 1e-9 : 0.0;
  }
};

/// Per-worker aggregation of the recorded spans.
struct WorkerSpanStats {
  std::uint64_t tasks = 0;
  double busy_seconds = 0.0;
};

/// Cumulative breakdown-recovery counters recorded by the tiled
/// factorizations (see linalg/factorization_report.hpp): how many
/// factorizations ran, how many attempts they took in total, and how many
/// escalation retries / band-tile promotions the recovery loop performed.
struct RecoveryStats {
  std::uint64_t factorizations = 0;
  std::uint64_t attempts = 0;
  std::uint64_t escalations = 0;
  std::uint64_t tiles_promoted = 0;
};

class Profiler {
 public:
  /// `scheduler` (may be null) is the one store scheduler_stats() reads;
  /// it must outlive the profiler.
  explicit Profiler(bool enabled = false,
                    const Scheduler* scheduler = nullptr)
      : enabled_(enabled), scheduler_(scheduler) {}

  bool enabled() const noexcept { return enabled_; }

  /// The rank this profiler's spans belong to; becomes the pid lane of
  /// trace output (0 for single-process runs).  Set once before running.
  void set_rank(int rank) noexcept { rank_ = rank; }
  int rank() const noexcept { return rank_; }

  void record(TaskSpan span);

  /// All recorded spans, sorted by start time (copy; safe while idle).
  std::vector<TaskSpan> spans() const;
  /// Aggregated duration/count per task name.
  std::map<std::string, TaskStats> stats() const;
  /// Aggregated duration/count per worker id.
  std::map<int, WorkerSpanStats> worker_stats() const;
  /// Wall-clock span covered by the trace in seconds (0 when empty).
  double makespan_seconds() const;
  /// Sum of busy time over `workers` divided by workers * makespan —
  /// 1.0 means every worker was busy for the whole trace.
  double parallel_efficiency(std::size_t workers) const;

  /// The scheduler's counters (steals, queue depths) as of now, kept
  /// regardless of span profiling; zeros without a scheduler.
  SchedulerStats scheduler_stats() const;

  /// Accumulates one factorization's recovery outcome; recorded by
  /// tiled_potrf and, on logical rank 0 only, dist_tiled_potrf,
  /// regardless of span profiling so the escalation benches can always
  /// read retry overhead.
  void record_recovery(int attempts, std::size_t escalations,
                       std::size_t tiles_promoted);
  RecoveryStats recovery_stats() const;

  /// Drops the spans and the recovery stats (Runtime::reset_profiling
  /// also zeroes the scheduler's counters).
  void clear();

 private:
  // Threads hash onto span shards by a process-wide arrival index, so
  // any realistic worker count gets collision-free shards and the mutex
  // below is effectively thread-private (it still exists so readers can
  // fold safely while recording continues).
  static constexpr std::size_t kSpanShards = 64;
  struct SpanShard {
    std::mutex mutex;
    std::vector<TaskSpan> spans;
  };
  SpanShard& local_shard() const;

  const bool enabled_;
  const Scheduler* scheduler_;
  int rank_ = 0;
  mutable std::array<SpanShard, kSpanShards> shards_;
  mutable std::mutex recovery_mutex_;
  RecoveryStats recovery_stats_;
};

}  // namespace kgwas
