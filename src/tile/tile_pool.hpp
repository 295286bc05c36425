// Precision-aware tile memory pool.
//
// The tiled solvers churn through short-lived buffers at tile granularity:
// tile payloads are created and destroyed for every Build, re-allocated on
// every precision conversion, and every tile kernel needs FP32 decode
// scratch.  On repeated solves the allocator dominates the dispatch-side
// cost of the small tile kernels the paper's performance story depends on.
//
// `TilePool` is a size-classed free-list arena for exactly those buffers:
//
//  * byte buffers (tile storage in any precision) keyed by byte count;
//  * FP32 scratch buffers (kernel decode workspace) keyed by element count.
//
// Tile sizes in a tiled matrix form a tiny set (interior tiles plus the
// edge remainders, times the precisions in the map), so exact-size classes
// hit the free list essentially always after the first sweep — repeated
// solves run with zero steady-state allocations, which the unit tests
// assert via `stats().fresh_allocations`.
//
// Thread safety: all operations are mutex-protected; tile tasks are far
// coarser than the lock hold times.  The global pool is a leaked singleton
// so pool-backed objects with static storage duration can never outlive it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/aligned_buffer.hpp"

namespace kgwas {

class TilePool {
 public:
  struct Stats {
    std::uint64_t fresh_allocations = 0;  ///< buffers actually allocated
    std::uint64_t reuses = 0;             ///< acquires served by the free list
    std::uint64_t releases = 0;           ///< buffers returned to the pool
    std::uint64_t dropped = 0;            ///< releases freed due to the cap
    std::size_t cached_bytes = 0;         ///< bytes currently parked
  };

  /// `max_cached_bytes` caps the bytes parked in free lists; releases past
  /// the cap free their buffer instead (the pool never caps *outstanding*
  /// buffers, only idle ones).  Bytes in use and their high-water mark
  /// are the registry gauges `pool.bytes_in_use` / `pool.bytes_high_water`.
  explicit TilePool(std::size_t max_cached_bytes = kDefaultMaxCachedBytes);

  TilePool(const TilePool&) = delete;
  TilePool& operator=(const TilePool&) = delete;

  /// Process-wide pool used by Tile storage and the tile kernels.
  static TilePool& global();

  /// False in KGWAS_SANITIZE builds, where the pool deliberately degrades
  /// to plain allocate/free so AddressSanitizer can see buffer lifetimes
  /// (a recycled buffer would mask use-after-release).  Tests asserting
  /// reuse counters gate on this.
  static bool caching_enabled() noexcept;

  /// Tile storage: an aligned byte buffer of exactly `bytes` bytes.
  AlignedVector<std::byte> acquire(std::size_t bytes);
  void release(AlignedVector<std::byte>&& buffer);

  /// Kernel scratch: an aligned FP32 buffer of exactly `elements` floats.
  AlignedVector<float> acquire_f32(std::size_t elements);
  void release_f32(AlignedVector<float>&& buffer);

  Stats stats() const;
  /// Drops every cached buffer (outstanding buffers are unaffected).
  void trim();

  static constexpr std::size_t kDefaultMaxCachedBytes = 256u << 20;  // 256 MiB

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::size_t, std::vector<AlignedVector<std::byte>>> bytes_;
  std::unordered_map<std::size_t, std::vector<AlignedVector<float>>> f32_;
  std::size_t cached_bytes_ = 0;
  const std::size_t max_cached_bytes_;
  Stats stats_;
};

/// RAII FP32 scratch buffer drawn from a TilePool — the tile kernels'
/// replacement for per-call Matrix<float> temporaries.  Move-only; the
/// buffer returns to the pool on destruction.
class PooledF32 {
 public:
  PooledF32() = default;
  PooledF32(TilePool& pool, std::size_t elements)
      : pool_(&pool), buffer_(pool.acquire_f32(elements)) {}
  ~PooledF32() { reset(); }

  PooledF32(PooledF32&& other) noexcept
      : pool_(other.pool_), buffer_(std::move(other.buffer_)) {
    other.pool_ = nullptr;
  }
  PooledF32& operator=(PooledF32&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = other.pool_;
      buffer_ = std::move(other.buffer_);
      other.pool_ = nullptr;
    }
    return *this;
  }
  PooledF32(const PooledF32&) = delete;
  PooledF32& operator=(const PooledF32&) = delete;

  float* data() noexcept { return buffer_.data(); }
  const float* data() const noexcept { return buffer_.data(); }
  std::size_t size() const noexcept { return buffer_.size(); }
  bool empty() const noexcept { return buffer_.empty(); }

  void reset() {
    if (pool_ != nullptr && !buffer_.empty()) {
      pool_->release_f32(std::move(buffer_));
    }
    pool_ = nullptr;
  }

 private:
  TilePool* pool_ = nullptr;
  AlignedVector<float> buffer_;
};

}  // namespace kgwas
