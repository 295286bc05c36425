// Tests for the mixed-precision tiled Cholesky pipeline: correctness vs
// dense reference, residual bounds per precision, policy properties,
// iterative refinement.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "common/rng.hpp"
#include "linalg/cholesky_dag.hpp"
#include "linalg/iterative_refinement.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tile_kernels.hpp"
#include "linalg/tiled_cholesky.hpp"
#include "mpblas/blas.hpp"
#include "runtime/runtime.hpp"

namespace kgwas {
namespace {

/// SPD test matrix with decaying off-diagonal blocks (kernel-matrix-like):
/// A_ij = exp(-|i-j| / corr_len) + alpha on the diagonal.
Matrix<float> kernel_like_spd(std::size_t n, double corr_len, float alpha) {
  Matrix<float> a(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = static_cast<double>(i > j ? i - j : j - i);
      a(i, j) = static_cast<float>(std::exp(-d / corr_len));
    }
    a(j, j) += alpha;
  }
  return a;
}

double relative_residual(const Matrix<float>& a, const Matrix<float>& x,
                         const Matrix<float>& b) {
  // ||b - A x||_F / (||A||_F ||x||_F)
  Matrix<double> r = b.cast<double>();
  const Matrix<double> ad = a.cast<double>();
  const Matrix<double> xd = x.cast<double>();
  gemm(Trans::kNoTrans, Trans::kNoTrans, a.rows(), x.cols(), a.cols(), -1.0,
       ad.data(), ad.ld(), xd.data(), xd.ld(), 1.0, r.data(), r.ld());
  const double rn = frobenius_norm(r.rows(), r.cols(), r.data(), r.ld());
  const double an = frobenius_norm(a.rows(), a.cols(), ad.data(), ad.ld());
  const double xn = frobenius_norm(x.rows(), x.cols(), xd.data(), xd.ld());
  return rn / (an * xn);
}

TEST(TileKernels, PotrfMatchesDense) {
  const std::size_t n = 24;
  const Matrix<float> a = kernel_like_spd(n, 4.0, 1.0f);
  Tile tile(n, n, Precision::kFp32);
  tile.from_fp32(a);
  tile_potrf(tile);
  Matrix<float> dense = a;
  ASSERT_EQ(potrf(Uplo::kLower, n, dense.data(), dense.ld()), 0);
  const Matrix<float> factored = tile.to_fp32();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j; i < n; ++i) {
      EXPECT_NEAR(factored(i, j), dense(i, j), 1e-5);
    }
    for (std::size_t i = 0; i < j; ++i) {
      EXPECT_EQ(factored(i, j), 0.0f);  // upper zeroed
    }
  }
}

TEST(TileKernels, PotrfThrowsWithGlobalIndex) {
  Tile tile(4, 4, Precision::kFp32);
  Matrix<float> bad(4, 4, 0.0f);
  bad(0, 0) = 1.0f;
  bad(1, 1) = -2.0f;
  bad(2, 2) = 1.0f;
  bad(3, 3) = 1.0f;
  tile.from_fp32(bad);
  try {
    tile_potrf(tile, /*global_offset=*/8);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.index(), 10);  // 8 + local pivot 2
  }
}

class TiledCholeskyParam
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TiledCholeskyParam, MatchesDenseFp32) {
  const auto [n, ts] = GetParam();
  const Matrix<float> a = kernel_like_spd(n, 6.0, 2.0f);
  SymmetricTileMatrix tiles(n, ts);
  tiles.from_dense(a);
  Runtime rt(4);
  tiled_potrf(rt, tiles);

  Matrix<float> dense = a;
  ASSERT_EQ(potrf(Uplo::kLower, n, dense.data(), dense.ld()), 0);
  const Matrix<float> tiled_dense = tiles.to_dense();
  for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j) {
    for (std::size_t i = j; i < static_cast<std::size_t>(n); ++i) {
      EXPECT_NEAR(tiled_dense(i, j), dense(i, j), 2e-4)
          << "n=" << n << " ts=" << ts << " (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShapesAndTiles, TiledCholeskyParam,
                         ::testing::Values(std::tuple{16, 4},
                                           std::tuple{33, 8},
                                           std::tuple{64, 16},
                                           std::tuple{100, 32},
                                           std::tuple{96, 96}));

TEST(TiledCholesky, SolveResidualFp32) {
  const std::size_t n = 80, nrhs = 3;
  const Matrix<float> a = kernel_like_spd(n, 5.0, 1.0f);
  Rng rng(3);
  Matrix<float> b(n, nrhs);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = static_cast<float>(rng.normal());
  }
  SymmetricTileMatrix tiles(n, 16);
  tiles.from_dense(a);
  Runtime rt(4);
  Matrix<float> x = b;
  tiled_posv(rt, tiles, x);
  EXPECT_LT(relative_residual(a, x, b), 1e-5);
}

TEST(TiledCholesky, NonSpdThrowsThroughRuntime) {
  const std::size_t n = 32;
  Matrix<float> a(n, n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = 1.0f;
  a(20, 20) = -1.0f;
  SymmetricTileMatrix tiles(n, 8);
  tiles.from_dense(a);
  Runtime rt(2);
  EXPECT_THROW(tiled_potrf(rt, tiles), NumericalError);
}

// tile_syrk updates only the lower triangle of a diagonal tile, so its
// strict upper triangle must never be read before tile_potrf zeroes it.
// Off-diagonal tiles are FP16, as the pipeline's precision map stores
// them; n = 100 at tile 32 leaves a 4 x 4 edge tile.
TEST(TiledCholesky, DiagonalTileUpperTriangleIsNeverRead) {
  const std::size_t n = 100, ts = 32;
  const Matrix<float> a = kernel_like_spd(n, 6.0, 2.0f);
  const auto load = [&] {
    SymmetricTileMatrix tiles(n, ts);
    tiles.from_dense(a);
    for (std::size_t j = 0; j < tiles.tile_count(); ++j) {
      for (std::size_t i = j + 1; i < tiles.tile_count(); ++i) {
        tiles.tile(i, j).convert_to(Precision::kFp16);
      }
    }
    return tiles;
  };
  SymmetricTileMatrix clean = load();
  SymmetricTileMatrix poisoned = load();
  for (std::size_t k = 0; k < poisoned.tile_count(); ++k) {
    Tile& t = poisoned.tile(k, k);
    float* p = t.fp32_payload();
    for (std::size_t j = 1; j < t.cols(); ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        p[i + j * t.rows()] = std::numeric_limits<float>::quiet_NaN();
      }
    }
  }
  Runtime rt(4);
  tiled_potrf(rt, clean);
  tiled_potrf(rt, poisoned);
  for (std::size_t j = 0; j < clean.tile_count(); ++j) {
    for (std::size_t i = j; i < clean.tile_count(); ++i) {
      const Tile& c = clean.tile(i, j);
      const Tile& q = poisoned.tile(i, j);
      ASSERT_EQ(c.storage_bytes(), q.storage_bytes());
      EXPECT_EQ(std::memcmp(c.raw(), q.raw(), c.storage_bytes()), 0)
          << "tile (" << i << ", " << j << ")";
    }
  }
}

/// Mixed-precision residual bound: with off-diagonal tiles stored in
/// precision p, the factorization residual should scale with u_p but stay
/// far below the all-p error and meet c * u_p * kappa-ish bounds.
class MixedCholeskyParam : public ::testing::TestWithParam<Precision> {};

TEST_P(MixedCholeskyParam, SolveErrorScalesWithStoragePrecision) {
  const Precision low = GetParam();
  const std::size_t n = 96, nrhs = 2;
  const Matrix<float> a = kernel_like_spd(n, 3.0, 1.5f);
  Rng rng(4);
  Matrix<float> b(n, nrhs);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = static_cast<float>(rng.normal());
  }

  SymmetricTileMatrix tiles(n, 16);
  tiles.from_dense(a);
  PrecisionMap map = band_precision_map(tiles.tile_count(), 0.0, low);
  map.apply(tiles);
  Runtime rt(4);
  Matrix<float> x = b;
  tiled_posv(rt, tiles, x);

  const double residual = relative_residual(a, x, b);
  // Storage quantization perturbs off-diagonal tiles by <= u_p relatively;
  // the solve then has residual O(u_p) (modest constant).
  EXPECT_LT(residual, 30.0 * unit_roundoff(low)) << to_string(low);
  // And it must genuinely solve the system (not garbage).
  EXPECT_LT(residual, 0.2);
}

INSTANTIATE_TEST_SUITE_P(
    NarrowFormats, MixedCholeskyParam,
    ::testing::Values(Precision::kFp16, Precision::kBf16,
                      Precision::kFp8E4M3),
    [](const auto& info) { return to_string(info.param); });

TEST(PrecisionPolicy, AdaptiveMeetsHighamMaryCriterion) {
  const std::size_t n = 64, ts = 8;
  const Matrix<float> a = kernel_like_spd(n, 2.0, 1.0f);
  SymmetricTileMatrix tiles(n, ts);
  tiles.from_dense(a);

  AdaptivePolicy policy;
  policy.epsilon = 1e-5;
  policy.available = {Precision::kFp16, Precision::kFp8E4M3};
  const PrecisionMap map = adaptive_precision_map(tiles, policy);

  // Recompute the budget and check every off-diagonal decision.
  double sum_sq = 0.0;
  const std::size_t nt = tiles.tile_count();
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      const double norm = tiles.tile(ti, tj).frobenius_norm();
      sum_sq += (ti == tj ? 1.0 : 2.0) * norm * norm;
    }
  }
  const double budget = policy.epsilon * std::sqrt(sum_sq) / nt;
  for (std::size_t tj = 0; tj < nt; ++tj) {
    EXPECT_EQ(map.get(tj, tj), Precision::kFp32);  // diagonal stays working
    for (std::size_t ti = tj + 1; ti < nt; ++ti) {
      const double norm = tiles.tile(ti, tj).frobenius_norm();
      const Precision p = map.get(ti, tj);
      if (p != Precision::kFp32) {
        EXPECT_LE(unit_roundoff(p) * norm, budget * (1 + 1e-12));
      }
      // Optimality: the next-cheaper precision must violate the budget.
      if (p == Precision::kFp32) {
        EXPECT_GT(unit_roundoff(Precision::kFp16) * norm, budget);
      } else if (p == Precision::kFp16) {
        EXPECT_GT(unit_roundoff(Precision::kFp8E4M3) * norm, budget);
      }
    }
  }
}

TEST(PrecisionPolicy, AdaptiveLooseEpsilonDropsEverythingToCheapest) {
  const std::size_t n = 32;
  const Matrix<float> a = kernel_like_spd(n, 2.0, 1.0f);
  SymmetricTileMatrix tiles(n, 8);
  tiles.from_dense(a);
  AdaptivePolicy policy;
  policy.epsilon = 10.0;  // absurdly loose
  policy.available = {Precision::kFp16, Precision::kFp8E4M3};
  const PrecisionMap map = adaptive_precision_map(tiles, policy);
  EXPECT_DOUBLE_EQ(map.off_diagonal_fraction(Precision::kFp8E4M3), 1.0);
}

TEST(PrecisionPolicy, BandStructure) {
  const PrecisionMap map = band_precision_map(10, 0.3, Precision::kFp16);
  // keep = round(0.3 * 9) = 3 tile diagonals in FP32.
  for (std::size_t tj = 0; tj < 10; ++tj) {
    for (std::size_t ti = tj; ti < 10; ++ti) {
      const std::size_t d = ti - tj;
      if (d == 0 || d <= 3) {
        EXPECT_EQ(map.get(ti, tj), Precision::kFp32);
      } else {
        EXPECT_EQ(map.get(ti, tj), Precision::kFp16);
      }
    }
  }
  // Fraction edge cases.
  EXPECT_DOUBLE_EQ(
      band_precision_map(6, 1.0, Precision::kFp16).off_diagonal_fraction(
          Precision::kFp16),
      0.0);
  EXPECT_DOUBLE_EQ(
      band_precision_map(6, 0.0, Precision::kFp16).off_diagonal_fraction(
          Precision::kFp16),
      1.0);
}

TEST(PrecisionPolicy, MapStorageBytes) {
  PrecisionMap map(2, Precision::kFp32);
  map.set(1, 0, Precision::kFp8E4M3);
  // n=16, ts=8: three lower tiles of 64 elements.
  EXPECT_EQ(map_storage_bytes(map, 16, 8), 64u * 4 + 64u * 1 + 64u * 4);
}

TEST(IterativeRefinement, RecoversFp64AccuracyFromFp8Factor) {
  const std::size_t n = 64, nrhs = 2;
  const Matrix<float> af = kernel_like_spd(n, 3.0, 1.5f);
  const Matrix<double> a = af.cast<double>();
  Rng rng(5);
  Matrix<double> b(n, nrhs);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal();

  PrecisionMap map = band_precision_map(n / 16, 0.0, Precision::kFp8E4M3);
  Runtime rt(4);
  RefinementOptions options;
  options.tolerance = 1e-7;
  options.max_iterations = 30;  // FP8 factor contracts slowly
  const RefinementResult result =
      solve_with_refinement(rt, a, b, 16, map, options);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.final_residual, 1e-7);
  EXPECT_GT(result.iterations, 0);  // fp8 factor cannot be right immediately
}

TEST(IterativeRefinement, Fp32FactorConvergesFast) {
  const std::size_t n = 48;
  const Matrix<double> a = kernel_like_spd(n, 4.0, 2.0f).cast<double>();
  Matrix<double> b(n, 1, 1.0);
  PrecisionMap map(n / 16, Precision::kFp32);
  Runtime rt(2);
  const RefinementResult result = solve_with_refinement(rt, a, b, 16, map);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 2);
}

TEST(DataMotion, LowPrecisionReducesLedger) {
  const std::size_t n = 64, ts = 16;
  const Matrix<float> a = kernel_like_spd(n, 4.0, 2.0f);

  auto run_bytes = [&](Precision low) {
    SymmetricTileMatrix tiles(n, ts);
    tiles.from_dense(a);
    PrecisionMap map = band_precision_map(tiles.tile_count(), 0.0, low);
    map.apply(tiles);
    return tiled_potrf_data_motion_bytes(tiles);
  };
  const auto fp32_bytes = run_bytes(Precision::kFp32);
  const auto fp8_bytes = run_bytes(Precision::kFp8E4M3);
  EXPECT_LT(fp8_bytes, fp32_bytes / 2);
}


TEST(CholeskyDag, TaskPrioritiesNest) {
  // DPLASMA-style critical-path priorities: every (step, kernel) pair
  // gets its own priority, panel k outranks panel k + 1, and within a
  // panel POTRF > TRSM > SYRK > GEMM.
  const PotrfKernel by_rank[] = {PotrfKernel::kPotrf, PotrfKernel::kTrsm,
                                 PotrfKernel::kSyrk, PotrfKernel::kGemm};
  for (const std::size_t nt : {std::size_t{1}, std::size_t{5},
                               std::size_t{64}}) {
    std::set<int> seen;
    for (std::size_t k = 0; k < nt; ++k) {
      for (std::size_t i = 0; i < 4; ++i) {
        const int p = potrf_task_priority(nt, k, by_rank[i]);
        EXPECT_TRUE(seen.insert(p).second) << "nt " << nt << ", k " << k;
        if (i + 1 < 4) {
          EXPECT_GT(p, potrf_task_priority(nt, k, by_rank[i + 1]))
              << "nt " << nt << ", k " << k;
        }
      }
      if (k + 1 < nt) {
        // Panel k's lowest task outranks panel k + 1's highest.
        EXPECT_GT(potrf_task_priority(nt, k, PotrfKernel::kGemm),
                  potrf_task_priority(nt, k + 1, PotrfKernel::kPotrf))
            << "nt " << nt << ", k " << k;
      }
    }
    EXPECT_EQ(seen.size(), 4 * nt);
  }
}

}  // namespace
}  // namespace kgwas
