// TilePool unit tests: free-list reuse, zero steady-state allocation
// growth, the cached-bytes cap, and pool-backed Tile storage.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "mpblas/kernels.hpp"
#include "tile/tile.hpp"
#include "tile/tile_pool.hpp"

namespace kgwas {
namespace {

TEST(TilePool, AcquireReleaseReusesBuffers) {
  if (!TilePool::caching_enabled()) {
    GTEST_SKIP() << "pool caching disabled under sanitizers";
  }
  TilePool pool;
  auto a = pool.acquire(1024);
  EXPECT_EQ(a.size(), 1024u);
  EXPECT_EQ(pool.stats().fresh_allocations, 1u);

  pool.release(std::move(a));
  EXPECT_EQ(pool.stats().cached_bytes, 1024u);

  auto b = pool.acquire(1024);
  const TilePool::Stats stats = pool.stats();
  EXPECT_EQ(stats.fresh_allocations, 1u);  // served from the free list
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.cached_bytes, 0u);
  pool.release(std::move(b));
}

TEST(TilePool, SizeClassesAreExact) {
  TilePool pool;
  auto a = pool.acquire(512);
  pool.release(std::move(a));
  // A different size must not be served by the cached 512-byte buffer.
  auto b = pool.acquire(1024);
  EXPECT_EQ(b.size(), 1024u);
  EXPECT_EQ(pool.stats().fresh_allocations, 2u);
  pool.release(std::move(b));
}

TEST(TilePool, ZeroSteadyStateAllocationGrowth) {
  if (!TilePool::caching_enabled()) {
    GTEST_SKIP() << "pool caching disabled under sanitizers";
  }
  TilePool pool;
  const std::vector<std::size_t> sizes{256, 1024, 4096, 256, 1024};

  // Warm-up cycle populates every size class.
  for (std::size_t s : sizes) pool.release(pool.acquire(s));
  for (std::size_t s : sizes) pool.release_f32(pool.acquire_f32(s));
  const std::uint64_t after_warmup = pool.stats().fresh_allocations;

  for (int cycle = 0; cycle < 50; ++cycle) {
    for (std::size_t s : sizes) pool.release(pool.acquire(s));
    for (std::size_t s : sizes) pool.release_f32(pool.acquire_f32(s));
  }
  EXPECT_EQ(pool.stats().fresh_allocations, after_warmup)
      << "steady-state acquire/release cycles must not allocate";
}

TEST(TilePool, CapDropsReleasesInsteadOfCaching) {
  if (!TilePool::caching_enabled()) {
    GTEST_SKIP() << "pool caching disabled under sanitizers";
  }
  TilePool pool(/*max_cached_bytes=*/1024);
  auto a = pool.acquire(1024);
  auto b = pool.acquire(1024);
  pool.release(std::move(a));
  pool.release(std::move(b));  // would exceed the cap
  const TilePool::Stats stats = pool.stats();
  EXPECT_EQ(stats.cached_bytes, 1024u);
  EXPECT_EQ(stats.dropped, 1u);
}

TEST(TilePool, TrimDropsCachedBuffers) {
  if (!TilePool::caching_enabled()) {
    GTEST_SKIP() << "pool caching disabled under sanitizers";
  }
  TilePool pool;
  pool.release(pool.acquire(2048));
  EXPECT_GT(pool.stats().cached_bytes, 0u);
  pool.trim();
  EXPECT_EQ(pool.stats().cached_bytes, 0u);
  // Next acquire is fresh again.
  auto a = pool.acquire(2048);
  EXPECT_EQ(pool.stats().fresh_allocations, 2u);
  pool.release(std::move(a));
}

TEST(TilePool, PooledF32ReturnsBufferOnDestruction) {
  if (!TilePool::caching_enabled()) {
    GTEST_SKIP() << "pool caching disabled under sanitizers";
  }
  TilePool pool;
  {
    PooledF32 scratch(pool, 64);
    scratch.data()[0] = 1.0f;
    EXPECT_EQ(scratch.size(), 64u);
  }
  EXPECT_EQ(pool.stats().releases, 1u);
  EXPECT_EQ(pool.stats().cached_bytes, 64 * sizeof(float));
  PooledF32 again(pool, 64);
  EXPECT_EQ(pool.stats().reuses, 1u);
}

TEST(TilePool, PooledF32MoveTransfersOwnership) {
  TilePool pool;
  PooledF32 a(pool, 32);
  PooledF32 b = std::move(a);
  EXPECT_EQ(b.size(), 32u);
  b = PooledF32(pool, 16);  // releases the 32-element buffer
  EXPECT_EQ(pool.stats().releases, 1u);
}

TEST(TilePool, ConcurrentAcquireReleaseIsSafe) {
  TilePool pool;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < 200; ++i) {
        auto buffer = pool.acquire(512);
        pool.release(std::move(buffer));
        PooledF32 scratch(pool, 128);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const TilePool::Stats stats = pool.stats();
  EXPECT_EQ(stats.releases, 4u * 200u * 2u);
  if (TilePool::caching_enabled()) {
    // At most one fresh buffer per thread per size class.
    EXPECT_LE(stats.fresh_allocations, 8u);
  }
}

TEST(TilePool, TileStorageRecyclesThroughGlobalPool) {
  if (!TilePool::caching_enabled()) {
    GTEST_SKIP() << "pool caching disabled under sanitizers";
  }
  Rng rng(11);
  Matrix<float> values(32, 32);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values.data()[i] = static_cast<float>(rng.normal());
  }

  // Warm-up: one full construct/convert/destroy cycle seeds the size
  // classes this loop needs.
  for (int i = 0; i < 2; ++i) {
    Tile tile(32, 32, Precision::kFp32);
    tile.from_fp32(values);
    tile.convert_to(Precision::kFp16);
    tile.convert_to(Precision::kFp32);
  }
  const std::uint64_t after_warmup =
      TilePool::global().stats().fresh_allocations;

  for (int i = 0; i < 20; ++i) {
    Tile tile(32, 32, Precision::kFp32);
    tile.from_fp32(values);
    tile.convert_to(Precision::kFp16);
    tile.convert_to(Precision::kFp32);
  }
  EXPECT_EQ(TilePool::global().stats().fresh_allocations, after_warmup)
      << "repeated tile construction + conversion must reuse pooled buffers";
}

TEST(TilePool, PackBuffersAreFootprintKeyedAcrossShapes) {
  if (!TilePool::caching_enabled()) {
    GTEST_SKIP() << "pool caching disabled under sanitizers";
  }
  // The engine's per-thread pack buffers are sized from the tuned
  // blocking footprint (mc*kc / kc*nc), not the operand shape, so
  // cycling through many different GEMM shapes must not grow the pool
  // once the footprint-sized classes are seeded.
  namespace kernels = mpblas::kernels;
  struct Restore {
    ~Restore() {
      kernels::set_gemm_blocking(std::nullopt);
      kernels::set_pack_threads(std::nullopt);
    }
  } restore;
  kernels::set_pack_threads(1);  // keep all pool traffic on this thread

  Rng rng(29);
  const std::size_t kMaxDim = 160;
  std::vector<float> a(kMaxDim * kMaxDim), b(kMaxDim * kMaxDim),
      c(kMaxDim * kMaxDim);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());

  const auto run = [&](std::size_t m, std::size_t n, std::size_t k) {
    const auto av = kernels::fp32_view(a.data(), m, Trans::kNoTrans);
    const auto bv = kernels::fp32_view(b.data(), k, Trans::kNoTrans);
    kernels::gemm_view(m, n, k, 1.0f, av, bv, 0.0f, c.data(), m);
  };

  run(kMaxDim, kMaxDim, kMaxDim);  // warm-up seeds the footprint classes
  const std::uint64_t after_warmup =
      TilePool::global().stats().fresh_allocations;

  for (int iter = 0; iter < 24; ++iter) {
    const std::size_t m = 1 + rng.uniform_index(kMaxDim);
    const std::size_t n = 1 + rng.uniform_index(kMaxDim);
    const std::size_t k = 1 + rng.uniform_index(kMaxDim);
    run(m, n, k);
  }
  EXPECT_EQ(TilePool::global().stats().fresh_allocations, after_warmup)
      << "pack buffers must be keyed off the blocking footprint, not the "
         "operand shape";
}

}  // namespace
}  // namespace kgwas
