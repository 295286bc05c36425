#include "runtime/profiler.hpp"

#include <algorithm>
#include <atomic>

namespace kgwas {

namespace {

// Process-wide thread arrival index: thread k records into shard
// k % kSpanShards of every profiler it touches.  Worker counts are far
// below kSpanShards in practice, so shards are collision-free and the
// shard mutex is uncontended on the record path.
std::atomic<unsigned> g_thread_slot{0};
thread_local const unsigned t_span_slot =
    g_thread_slot.fetch_add(1, std::memory_order_relaxed);

}  // namespace

Profiler::SpanShard& Profiler::local_shard() const {
  return shards_[t_span_slot % kSpanShards];
}

void Profiler::record(TaskSpan span) {
  if (!enabled_) return;
  SpanShard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.spans.push_back(std::move(span));
}

std::vector<TaskSpan> Profiler::spans() const {
  std::vector<TaskSpan> out;
  for (SpanShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    out.insert(out.end(), shard.spans.begin(), shard.spans.end());
  }
  // Shard placement depends on which thread recorded: sort so the fold is
  // a deterministic timeline.
  std::stable_sort(out.begin(), out.end(),
                   [](const TaskSpan& a, const TaskSpan& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

std::map<std::string, TaskStats> Profiler::stats() const {
  std::map<std::string, TaskStats> out;
  for (SpanShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const TaskSpan& span : shard.spans) {
      auto& entry = out[span.name];
      ++entry.count;
      entry.total_seconds +=
          static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      entry.flops += span.flops;
    }
  }
  return out;
}

std::map<int, WorkerSpanStats> Profiler::worker_stats() const {
  std::map<int, WorkerSpanStats> out;
  for (SpanShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const TaskSpan& span : shard.spans) {
      auto& entry = out[span.worker];
      ++entry.tasks;
      entry.busy_seconds +=
          static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  return out;
}

double Profiler::makespan_seconds() const {
  bool any = false;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  for (SpanShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const TaskSpan& span : shard.spans) {
      if (!any) {
        lo = span.start_ns;
        hi = span.end_ns;
        any = true;
      } else {
        lo = std::min(lo, span.start_ns);
        hi = std::max(hi, span.end_ns);
      }
    }
  }
  return any ? static_cast<double>(hi - lo) * 1e-9 : 0.0;
}

double Profiler::parallel_efficiency(std::size_t workers) const {
  const double makespan = makespan_seconds();
  if (workers == 0 || makespan <= 0.0) return 0.0;
  double busy = 0.0;
  for (SpanShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const TaskSpan& span : shard.spans) {
      busy += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  return busy / (static_cast<double>(workers) * makespan);
}

SchedulerStats Profiler::scheduler_stats() const {
  return scheduler_ != nullptr ? scheduler_->stats() : SchedulerStats{};
}

void Profiler::record_recovery(int attempts, std::size_t escalations,
                               std::size_t tiles_promoted) {
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  recovery_stats_.factorizations += 1;
  recovery_stats_.attempts += static_cast<std::uint64_t>(attempts);
  recovery_stats_.escalations += escalations;
  recovery_stats_.tiles_promoted += tiles_promoted;
}

RecoveryStats Profiler::recovery_stats() const {
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  return recovery_stats_;
}

void Profiler::clear() {
  for (SpanShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.spans.clear();
  }
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  recovery_stats_ = RecoveryStats{};
}

}  // namespace kgwas
