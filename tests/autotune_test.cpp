// Unit tests for the packed engine's analytic cache blocking
// (kernels::analytic_blocking): occupancy bounds against the probed
// cache hierarchy, and that the engine runs exactly that blocking.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

#include "mpblas/cpu_features.hpp"
#include "mpblas/kernels.hpp"

namespace kgwas {
namespace {

namespace kernels = mpblas::kernels;

TEST(Autotune, AnalyticBlockingRespectsOccupancyBounds) {
  const auto& f = mpblas::cpu_features();
  for (const auto [mr, nr] :
       {std::pair<std::size_t, std::size_t>{8, 6}, {16, 6}}) {
    const kernels::Blocking blk = kernels::analytic_blocking(mr, nr);
    SCOPED_TRACE("mr=" + std::to_string(mr) + " nr=" + std::to_string(nr));
    ASSERT_GT(blk.kc, 0u);
    ASSERT_GT(blk.mc, 0u);
    ASSERT_GT(blk.nc, 0u);
    // Streaming granularity: panels tile cleanly over the packed layout.
    EXPECT_EQ(blk.kc % kernels::kKR, 0u);
    EXPECT_EQ(blk.mc % mr, 0u);
    EXPECT_EQ(blk.nc % nr, 0u);
    // BLIS occupancy model: one A micro-panel plus one B micro-panel in
    // about half of L1d; caps keep mc/nc bounded even on huge LLCs.
    EXPECT_LE((mr + nr) * blk.kc * sizeof(float), f.l1d_bytes)
        << "kc overflows L1d";
    EXPECT_LE(blk.mc, std::size_t{1024});
    EXPECT_LE(blk.nc, std::size_t{2048});
  }
}

TEST(Autotune, AnalyticModeFeedsEngineBlocking) {
  kernels::set_gemm_blocking(std::nullopt);  // no test override in force
  const kernels::Blocking want =
      kernels::analytic_blocking(kernels::gemm_mr(), kernels::gemm_nr());
  const kernels::Blocking got = kernels::gemm_blocking();
  EXPECT_EQ(got.mc, want.mc);
  EXPECT_EQ(got.kc, want.kc);
  EXPECT_EQ(got.nc, want.nc);
}

}  // namespace
}  // namespace kgwas
