#include "telemetry/metrics.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace kgwas::telemetry {

namespace {

std::atomic<std::uint64_t> g_next_registry_id{1};

// Thread-local shard cache: maps a registry's process-unique id to this
// thread's shard.  Ids are never reused, so a stale entry for a destroyed
// registry can never alias a live one — it just goes unmatched until its
// slot is evicted.  The fixed size keeps the hot-path scan branch-light;
// a miss falls back to the registry's thread map under its mutex.
struct ShardCache {
  static constexpr std::size_t kSlots = 8;
  struct Slot {
    std::uint64_t registry_id = 0;
    void* shard = nullptr;
  };
  std::array<Slot, kSlots> slots{};
  std::size_t next_victim = 0;
};
thread_local ShardCache t_shard_cache;

}  // namespace

MetricRegistry::MetricRegistry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

MetricRegistry::~MetricRegistry() = default;

MetricRegistry& MetricRegistry::global() {
  // Leaked on purpose: instrumentation sites cache metric handles in
  // function-local statics, and those must stay valid through static
  // destruction (same rationale as TilePool::global).
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

MetricRegistry::Shard& MetricRegistry::local_shard() {
  for (auto& slot : t_shard_cache.slots) {
    if (slot.registry_id == id_) return *static_cast<Shard*>(slot.shard);
  }
  return register_shard();
}

MetricRegistry::Shard& MetricRegistry::register_shard() {
  Shard* shard = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A thread id can recur here after cache eviction (or, post join, a
    // recycled id): reattach to the existing shard instead of growing.
    auto& slot = shards_by_thread_[std::this_thread::get_id()];
    if (slot == nullptr) {
      shards_.push_back(std::make_unique<Shard>());
      slot = shards_.back().get();
    }
    shard = slot;
  }
  auto& victim =
      t_shard_cache.slots[t_shard_cache.next_victim++ % ShardCache::kSlots];
  victim.registry_id = id_;
  victim.shard = shard;
  return *shard;
}

Counter& MetricRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    const Entry& e = entries_[it->second];
    if (e.kind != MetricKind::kCounter) {
      throw Error("metric '" + std::string(name) + "' is not a counter");
    }
    return *counters_[e.index];
  }
  if (next_cell_ + 1 > kCellsPerShard) {
    throw Error("metric registry cell budget exhausted");
  }
  counters_.push_back(
      std::unique_ptr<Counter>(new Counter(this, next_cell_)));
  next_cell_ += 1;
  by_name_.emplace(std::string(name),
                   static_cast<std::uint32_t>(entries_.size()));
  entries_.push_back({std::string(name), MetricKind::kCounter,
                      static_cast<std::uint32_t>(counters_.size() - 1)});
  return *counters_.back();
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    const Entry& e = entries_[it->second];
    if (e.kind != MetricKind::kGauge) {
      throw Error("metric '" + std::string(name) + "' is not a gauge");
    }
    return *gauges_[e.index];
  }
  gauges_.push_back(std::unique_ptr<Gauge>(new Gauge()));
  by_name_.emplace(std::string(name),
                   static_cast<std::uint32_t>(entries_.size()));
  entries_.push_back({std::string(name), MetricKind::kGauge,
                      static_cast<std::uint32_t>(gauges_.size() - 1)});
  return *gauges_.back();
}

Histogram& MetricRegistry::histogram(std::string_view name) {
  constexpr std::uint32_t kCells = HistogramData::kNumBuckets + 1;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    const Entry& e = entries_[it->second];
    if (e.kind != MetricKind::kHistogram) {
      throw Error("metric '" + std::string(name) + "' is not a histogram");
    }
    return *histograms_[e.index];
  }
  if (next_cell_ + kCells > kCellsPerShard) {
    throw Error("metric registry cell budget exhausted");
  }
  histograms_.push_back(
      std::unique_ptr<Histogram>(new Histogram(this, next_cell_)));
  next_cell_ += kCells;
  by_name_.emplace(std::string(name),
                   static_cast<std::uint32_t>(entries_.size()));
  entries_.push_back({std::string(name), MetricKind::kHistogram,
                      static_cast<std::uint32_t>(histograms_.size() - 1)});
  return *histograms_.back();
}

std::uint64_t MetricRegistry::fold_cell(std::uint32_t cell) const {
  // Caller holds mutex_ (shards_ is append-only under it).
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->cells[cell].load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Counter::total() const {
  std::lock_guard<std::mutex> lock(registry_->mutex_);
  return registry_->fold_cell(cell_);
}

HistogramData Histogram::data() const {
  HistogramData out;
  std::lock_guard<std::mutex> lock(registry_->mutex_);
  for (std::size_t b = 0; b < HistogramData::kNumBuckets; ++b) {
    out.buckets[b] =
        registry_->fold_cell(first_cell_ + static_cast<std::uint32_t>(b));
    out.count += out.buckets[b];
  }
  out.sum = registry_->fold_cell(
      first_cell_ + static_cast<std::uint32_t>(HistogramData::kNumBuckets));
  return out;
}

std::vector<MetricSnapshot> MetricRegistry::snapshot() const {
  std::vector<MetricSnapshot> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    MetricSnapshot s;
    s.name = e.name;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        s.value = fold_cell(counters_[e.index]->cell_);
        break;
      case MetricKind::kGauge:
        s.level = gauges_[e.index]->value();
        break;
      case MetricKind::kHistogram: {
        const std::uint32_t first = histograms_[e.index]->first_cell_;
        for (std::size_t b = 0; b < HistogramData::kNumBuckets; ++b) {
          s.hist.buckets[b] =
              fold_cell(first + static_cast<std::uint32_t>(b));
          s.hist.count += s.hist.buckets[b];
        }
        s.hist.sum = fold_cell(
            first + static_cast<std::uint32_t>(HistogramData::kNumBuckets));
        break;
      }
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

void MetricRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& shard : shards_) {
    for (auto& cell : shard->cells) cell.store(0, std::memory_order_relaxed);
  }
  for (auto& gauge : gauges_) gauge->set(0);
}

}  // namespace kgwas::telemetry
