// Sharded metrics registry — the process-wide counter substrate of the
// observability layer.
//
// Hot paths (scheduler pops, pool acquires, mailbox pushes, tile sends)
// record into *per-thread shards*: every thread owns a private array of
// atomic cells, so a tight-loop increment is one relaxed fetch_add on a
// cacheline no other thread writes — there is no shared mutex and no
// shared-cacheline contention on the record path.  Reads (`snapshot`,
// `Counter::total`, `Histogram::data`) fold the shards under the registry
// mutex; reads are rare (report/trace writing), writes are constant.
//
// Metric kinds:
//  * Counter    — monotonically increasing u64 (one shard cell).
//  * Gauge      — instantaneous signed level (set/add/update_max); gauges
//                 are *not* sharded: a level has one true current value,
//                 and every gauge user here already serializes its updates
//                 (e.g. TilePool under its own mutex).
//  * Histogram  — log2-bucketed u64 distribution: value v lands in bucket
//                 bit_width(v) (0 -> bucket 0, [2^(b-1), 2^b) -> bucket b),
//                 plus a running sum.  65 buckets cover the full u64 range.
//
// Lifetime: metric handles are references into the registry and stay valid
// for the registry's lifetime.  `MetricRegistry::global()` is a leaked
// singleton (the TilePool::global pattern), so handles cached in
// function-local statics at instrumentation sites never dangle.  Shards of
// exited threads are retained (their counts are part of the cumulative
// totals); memory is bounded by kCellsPerShard * 8 bytes per thread ever
// seen (~8 KiB).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace kgwas::telemetry {

class MetricRegistry;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Folded view of one histogram.
struct HistogramData {
  /// Number of log2 buckets (bit_width of a u64 is in [0, 64]).
  static constexpr std::size_t kNumBuckets = 65;
  std::array<std::uint64_t, kNumBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Inclusive lower bound of bucket `b` (bucket 0 holds only value 0).
  static std::uint64_t bucket_lo(std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  /// Inclusive upper bound of bucket `b`.
  static std::uint64_t bucket_hi(std::size_t b) noexcept {
    return b == 0 ? 0
           : b >= 64 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << b) - 1;
  }
};

/// Folded view of one metric (see MetricRegistry::snapshot).
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;  ///< counter total (counters only)
  std::int64_t level = 0;   ///< gauge value (gauges only)
  HistogramData hist;       ///< histograms only
};

/// Monotonic counter; one cell per thread shard.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept;
  std::uint64_t total() const;

 private:
  friend class MetricRegistry;
  Counter(MetricRegistry* registry, std::uint32_t cell)
      : registry_(registry), cell_(cell) {}
  MetricRegistry* registry_;
  std::uint32_t cell_;
};

/// Instantaneous level; plain shared atomic (not sharded — see header).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  /// Adds `delta` (may be negative) and returns the new level.
  std::int64_t add(std::int64_t delta) noexcept {
    return value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  }
  /// Raises the level to `v` if above the current value (high-water marks).
  void update_max(std::int64_t v) noexcept {
    std::int64_t seen = value_.load(std::memory_order_relaxed);
    while (v > seen && !value_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricRegistry;
  Gauge() = default;
  std::atomic<std::int64_t> value_{0};
};

/// Log2-bucketed distribution; kNumBuckets + 1 cells per thread shard
/// (buckets then sum).
class Histogram {
 public:
  void record(std::uint64_t value) noexcept;
  HistogramData data() const;

 private:
  friend class MetricRegistry;
  Histogram(MetricRegistry* registry, std::uint32_t first_cell)
      : registry_(registry), first_cell_(first_cell) {}
  MetricRegistry* registry_;
  std::uint32_t first_cell_;
};

class MetricRegistry {
 public:
  MetricRegistry();
  ~MetricRegistry();

  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Process-wide registry every built-in instrumentation site records
  /// into.  Leaked singleton: handles cached in static storage stay valid.
  static MetricRegistry& global();

  /// Returns the metric named `name`, creating it on first use.  Name
  /// lookups take the registry mutex — cache the returned reference at the
  /// instrumentation site (e.g. in a function-local static) instead of
  /// resolving per record.  Throws Error when `name` already names a
  /// metric of a different kind, or when the shard cell budget
  /// (kCellsPerShard) is exhausted.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Folded view of every metric, sorted by name.
  std::vector<MetricSnapshot> snapshot() const;

  /// Zeroes every cell of every shard and every gauge.  Not linearizable
  /// against concurrent writers (a racing increment may survive or be
  /// lost); call between runs, not during one.
  void reset();

  /// Fixed cell budget of one shard; metric creation past it throws.
  static constexpr std::size_t kCellsPerShard = 1024;

 private:
  friend class Counter;
  friend class Histogram;

  struct Shard {
    std::array<std::atomic<std::uint64_t>, kCellsPerShard> cells{};
  };

  /// The calling thread's shard of this registry (registered on first use;
  /// cached in a thread-local keyed by the registry's unique id).
  Shard& local_shard();
  Shard& register_shard();

  std::uint64_t fold_cell(std::uint32_t cell) const;

  const std::uint64_t id_;  // process-unique, never reused

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unordered_map<std::thread::id, Shard*> shards_by_thread_;

  struct Entry {
    std::string name;
    MetricKind kind;
    std::uint32_t index;  // into the kind's storage below
  };
  std::vector<Entry> entries_;
  std::unordered_map<std::string, std::uint32_t> by_name_;  // -> entries_
  // Deques-of-one-chunk via unique_ptr: stable addresses for handles.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::uint32_t next_cell_ = 0;
};

inline void Counter::add(std::uint64_t n) noexcept {
  registry_->local_shard().cells[cell_].fetch_add(n,
                                                  std::memory_order_relaxed);
}

inline void Histogram::record(std::uint64_t value) noexcept {
  const std::uint32_t bucket =
      static_cast<std::uint32_t>(std::bit_width(value));
  auto& cells = registry_->local_shard().cells;
  cells[first_cell_ + bucket].fetch_add(1, std::memory_order_relaxed);
  cells[first_cell_ + HistogramData::kNumBuckets].fetch_add(
      value, std::memory_order_relaxed);
}

}  // namespace kgwas::telemetry
