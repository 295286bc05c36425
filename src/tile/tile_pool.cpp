#include "tile/tile_pool.hpp"

#include <utility>

#include "telemetry/metrics.hpp"

namespace kgwas {

namespace {

// Bytes in use are counted only in the registry: gauge deltas from every
// pool sum into one process level, so "pool.bytes_in_use" is the combined
// footprint and the high-water gauge tracks the max of that combined
// level.  The pool's own mutex serializes each pool's updates (gauges
// aren't sharded).
void note_acquire(std::size_t bytes) {
  static telemetry::Gauge& in_use =
      telemetry::MetricRegistry::global().gauge("pool.bytes_in_use");
  static telemetry::Gauge& high_water =
      telemetry::MetricRegistry::global().gauge("pool.bytes_high_water");
  static telemetry::Histogram& acquire_bytes =
      telemetry::MetricRegistry::global().histogram("pool.acquire_bytes");
  high_water.update_max(in_use.add(static_cast<std::int64_t>(bytes)));
  acquire_bytes.record(bytes);
}

void note_release(std::size_t bytes) {
  static telemetry::Gauge& in_use =
      telemetry::MetricRegistry::global().gauge("pool.bytes_in_use");
  in_use.add(-static_cast<std::int64_t>(bytes));
}

}  // namespace

bool TilePool::caching_enabled() noexcept {
#ifdef KGWAS_SANITIZE
  // Recycling buffers would hide use-after-release from AddressSanitizer
  // (a parked or re-handed buffer is still addressable memory): under the
  // sanitizer build every acquire allocates and every release frees, so
  // lifetime bugs in pooled buffers fault loudly.
  return false;
#else
  return true;
#endif
}

TilePool::TilePool(std::size_t max_cached_bytes)
    : max_cached_bytes_(caching_enabled() ? max_cached_bytes : 0) {}

TilePool& TilePool::global() {
  // Leaked on purpose: pool-backed tiles with static storage duration may
  // be destroyed after any function-local static would be, and the pool
  // must still accept their release.
  static TilePool* pool = new TilePool();
  return *pool;
}

AlignedVector<std::byte> TilePool::acquire(std::size_t bytes) {
  if (bytes == 0) return {};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    note_acquire(bytes);
    auto it = bytes_.find(bytes);
    if (it != bytes_.end() && !it->second.empty()) {
      AlignedVector<std::byte> buffer = std::move(it->second.back());
      it->second.pop_back();
      cached_bytes_ -= bytes;
      stats_.cached_bytes = cached_bytes_;
      ++stats_.reuses;
      return buffer;
    }
    ++stats_.fresh_allocations;
  }
  return AlignedVector<std::byte>(bytes);
}

void TilePool::release(AlignedVector<std::byte>&& buffer) {
  const std::size_t bytes = buffer.size();
  if (bytes == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.releases;
  note_release(bytes);
  if (cached_bytes_ + bytes > max_cached_bytes_) {
    ++stats_.dropped;
    return;  // buffer freed on scope exit
  }
  bytes_[bytes].push_back(std::move(buffer));
  cached_bytes_ += bytes;
  stats_.cached_bytes = cached_bytes_;
}

AlignedVector<float> TilePool::acquire_f32(std::size_t elements) {
  if (elements == 0) return {};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    note_acquire(elements * sizeof(float));
    auto it = f32_.find(elements);
    if (it != f32_.end() && !it->second.empty()) {
      AlignedVector<float> buffer = std::move(it->second.back());
      it->second.pop_back();
      cached_bytes_ -= elements * sizeof(float);
      stats_.cached_bytes = cached_bytes_;
      ++stats_.reuses;
      return buffer;
    }
    ++stats_.fresh_allocations;
  }
  return AlignedVector<float>(elements);
}

void TilePool::release_f32(AlignedVector<float>&& buffer) {
  const std::size_t elements = buffer.size();
  if (elements == 0) return;
  const std::size_t bytes = elements * sizeof(float);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.releases;
  note_release(bytes);
  if (cached_bytes_ + bytes > max_cached_bytes_) {
    ++stats_.dropped;
    return;
  }
  f32_[elements].push_back(std::move(buffer));
  cached_bytes_ += bytes;
  stats_.cached_bytes = cached_bytes_;
}

TilePool::Stats TilePool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void TilePool::trim() {
  std::lock_guard<std::mutex> lock(mutex_);
  bytes_.clear();
  f32_.clear();
  cached_bytes_ = 0;
  stats_.cached_bytes = 0;
}

}  // namespace kgwas
