// TLR (tile low-rank) suite: truncation semantics of the low-rank core
// (relative tolerance, rank-0 zero tiles, rank-deficient / non-square
// Jacobi), the TlrTile payload and SymmetricTileMatrix sidecar, the joint
// rank + precision compression planner, and the TLR-routed tiled Cholesky
// factorize/solve against its dense twin.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "krr/associate.hpp"
#include "linalg/low_rank.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tiled_cholesky.hpp"
#include "linalg/tlr_kernels.hpp"
#include "mpblas/blas.hpp"
#include "runtime/runtime.hpp"
#include "tile/tile_matrix.hpp"
#include "tile/tlr_tile.hpp"

namespace kgwas {
namespace {

Matrix<float> random_matrix(std::size_t m, std::size_t n, unsigned seed) {
  Rng rng(seed);
  Matrix<float> a(m, n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.normal());
  }
  return a;
}

double relative_error(const Matrix<float>& approx, const Matrix<float>& ref) {
  double err_sq = 0.0, ref_sq = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double d =
        static_cast<double>(approx.data()[i]) - ref.data()[i];
    err_sq += d * d;
    ref_sq += static_cast<double>(ref.data()[i]) * ref.data()[i];
  }
  return ref_sq > 0.0 ? std::sqrt(err_sq / ref_sq) : std::sqrt(err_sq);
}

/// Gaussian kernel over a smooth 1D geometry: off-diagonal tiles are
/// numerically low-rank (the paper's TLR motivation), and + alpha*I is
/// comfortably SPD.
Matrix<float> smooth_spd_kernel(std::size_t n, float alpha) {
  Matrix<float> k(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = static_cast<double>(i) - static_cast<double>(j);
      k(i, j) = static_cast<float>(std::exp(-d * d / 900.0));
    }
  }
  for (std::size_t i = 0; i < n; ++i) k(i, i) += alpha;
  return k;
}

/// Near-singular RBF kernel over clustered 1-D points (the escalation
/// suite's fixture): an over-aggressive fp8 map genuinely breaks the
/// factorization while the fp32 matrix stays comfortably SPD.
Matrix<float> clustered_kernel(std::size_t n, double alpha,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(i / 8) + 0.01 * rng.normal();
  }
  Matrix<float> a(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = x[i] - x[j];
      a(i, j) = static_cast<float>(std::exp(-0.5 * d * d));
    }
    a(j, j) += static_cast<float>(alpha);
  }
  return a;
}

// -------------------------------------------------- truncation semantics

TEST(LowRankSemantics, ZeroMatrixTruncatesToRankZero) {
  const Matrix<float> zero(16, 12, 0.0f);
  const LowRankFactor factor = compress_block(zero, 1e-3);
  EXPECT_EQ(factor.rank(), 0u);
  const Matrix<float> recon = reconstruct(factor);
  ASSERT_EQ(recon.rows(), 16u);
  ASSERT_EQ(recon.cols(), 12u);
  for (std::size_t i = 0; i < recon.size(); ++i) {
    EXPECT_EQ(recon.data()[i], 0.0f);
  }
}

TEST(LowRankSemantics, RankChoiceIsScaleInvariant) {
  // The tolerance is relative to sigma_0, so scaling the input must not
  // change the chosen rank.
  const Matrix<float> a = random_matrix(24, 20, 11);
  const LowRankFactor base = compress_block(a, 0.1);
  ASSERT_GT(base.rank(), 0u);
  for (const float scale : {1e-6f, 1e-3f, 1e3f}) {
    Matrix<float> scaled = a;
    for (std::size_t i = 0; i < scaled.size(); ++i) scaled.data()[i] *= scale;
    const LowRankFactor factor = compress_block(scaled, 0.1);
    EXPECT_EQ(factor.rank(), base.rank()) << "scale " << scale;
  }
}

TEST(LowRankSemantics, TinyButNonzeroMatrixKeepsItsRank) {
  // A rank-1 matrix with norm ~1e-18 must not be mistaken for zero (the
  // rule compares against sigma_0, not an absolute threshold).
  Matrix<float> a(8, 8, 0.0f);
  for (std::size_t j = 0; j < 8; ++j) {
    for (std::size_t i = 0; i < 8; ++i) {
      a(i, j) = 1e-19f * static_cast<float>(i + 1);
    }
  }
  const LowRankFactor factor = compress_block(a, 1e-3);
  EXPECT_EQ(factor.rank(), 1u);
}

TEST(LowRankSemantics, JacobiHandlesRankDeficientInput) {
  // Rank 2 in a 12x10: columns are combinations of two basis vectors.
  // The collapsed-column guard must converge instead of spinning on
  // underflowed norm products until the sweep cap.
  Rng rng(7);
  std::vector<float> x(12), y(12);
  for (auto& e : x) e = static_cast<float>(rng.normal());
  for (auto& e : y) e = static_cast<float>(rng.normal());
  Matrix<float> a(12, 10);
  for (std::size_t j = 0; j < 10; ++j) {
    const float cx = static_cast<float>(rng.normal());
    const float cy = static_cast<float>(rng.normal());
    for (std::size_t i = 0; i < 12; ++i) a(i, j) = cx * x[i] + cy * y[i];
  }
  const Svd svd = jacobi_svd(a);
  // Exactly two significant singular values.
  ASSERT_GE(svd.sigma.size(), 2u);
  EXPECT_GT(svd.sigma[1], 0.0f);
  for (std::size_t j = 2; j < svd.sigma.size(); ++j) {
    EXPECT_LT(svd.sigma[j], 1e-3f * svd.sigma[0]);
  }
  const LowRankFactor factor = compress_block(a, 1e-3);
  EXPECT_EQ(factor.rank(), 2u);
  EXPECT_LT(relative_error(reconstruct(factor), a), 1e-4);
}

TEST(LowRankSemantics, JacobiHandlesWideInput) {
  // m < n: the one-sided sweep runs over n columns of which at most m can
  // be independent — the remaining ones collapse and must not stall
  // convergence.
  const Matrix<float> a = random_matrix(6, 14, 23);
  const Svd svd = jacobi_svd(a);
  Matrix<float> us = svd.u;
  for (std::size_t j = 0; j < svd.sigma.size(); ++j) {
    for (std::size_t i = 0; i < us.rows(); ++i) us(i, j) *= svd.sigma[j];
  }
  const Matrix<float> recon =
      matmul(us, svd.v, Trans::kNoTrans, Trans::kTrans);
  EXPECT_LT(relative_error(recon, a), 1e-4);
}

TEST(LowRankSemantics, SurveyReportsNormRelativeError) {
  // A kernel scaled by 1e-4: the absolute reconstruction error shrinks by
  // the same factor, and the *relative* survey error must not change.
  const std::size_t n = 96, ts = 24;
  Matrix<float> k = smooth_spd_kernel(n, 0.0f);
  SymmetricTileMatrix tiles(n, ts);
  tiles.from_dense(k);
  const CompressionSurvey base = survey_low_rank(tiles, 1e-3);

  for (std::size_t i = 0; i < k.size(); ++i) k.data()[i] *= 1e-4f;
  SymmetricTileMatrix scaled(n, ts);
  scaled.from_dense(k);
  const CompressionSurvey survey = survey_low_rank(scaled, 1e-3);
  EXPECT_NEAR(survey.max_error, base.max_error, 1e-3);
  EXPECT_EQ(survey.mean_rank, base.mean_rank);
  EXPECT_LT(survey.max_error, 0.01);
}

TEST(LowRankSemantics, RecompressProductMatchesDenseProduct) {
  const Matrix<float> x = random_matrix(20, 5, 31);
  const Matrix<float> y = random_matrix(16, 5, 32);
  const Matrix<float> dense = matmul(x, y, Trans::kNoTrans, Trans::kTrans);
  const LowRankFactor factor = recompress_product(x, y, 1e-5);
  EXPECT_LE(factor.rank(), 5u);
  EXPECT_LT(relative_error(reconstruct(factor), dense), 1e-4);
}

TEST(LowRankSemantics, RecompressProductRemovesRedundantColumns) {
  // Stacking [X | X][Y | Y]^T = 2 X Y^T doubles the column count but not
  // the rank — exactly the accumulation shape of a TLR Schur update.
  const Matrix<float> x = random_matrix(24, 3, 41);
  const Matrix<float> y = random_matrix(18, 3, 42);
  Matrix<float> xx(24, 6), yy(18, 6);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t r = 0; r < 24; ++r) xx(r, c) = xx(r, c + 3) = x(r, c);
    for (std::size_t r = 0; r < 18; ++r) yy(r, c) = yy(r, c + 3) = y(r, c);
  }
  const LowRankFactor factor = recompress_product(xx, yy, 1e-4);
  EXPECT_EQ(factor.rank(), 3u);
  Matrix<float> expected = matmul(x, y, Trans::kNoTrans, Trans::kTrans);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected.data()[i] *= 2.0f;
  }
  EXPECT_LT(relative_error(reconstruct(factor), expected), 1e-4);
}

// ------------------------------------------------------- TlrTile payload

TEST(TlrTile, RoundTripsThroughFactorsAndPrecision) {
  const Matrix<float> u = random_matrix(24, 4, 51);
  const Matrix<float> v = random_matrix(20, 4, 52);
  const TlrTile lr(u, v, Precision::kFp32);
  EXPECT_TRUE(lr.active());
  EXPECT_EQ(lr.rows(), 24u);
  EXPECT_EQ(lr.cols(), 20u);
  EXPECT_EQ(lr.rank(), 4u);
  EXPECT_EQ(lr.storage_bytes(), (24u + 20u) * 4u * sizeof(float));
  const Matrix<float> expected = matmul(u, v, Trans::kNoTrans, Trans::kTrans);
  EXPECT_LT(relative_error(lr.to_dense(), expected), 1e-6);

  // Narrowing the factor storage behaves like narrowing a dense tile:
  // the reconstruction degrades to roughly FP16 fidelity, and the
  // footprint halves.
  TlrTile half = lr;
  half.convert_to(Precision::kFp16);
  EXPECT_EQ(half.storage_bytes(), lr.storage_bytes() / 2);
  EXPECT_LT(relative_error(half.to_dense(), expected), 5e-3);
}

TEST(TlrTile, RankZeroReconstructsToZero) {
  const Matrix<float> u(10, 0);
  const Matrix<float> v(8, 0);
  const TlrTile lr(u, v, Precision::kFp32);
  EXPECT_TRUE(lr.active());
  EXPECT_EQ(lr.rank(), 0u);
  EXPECT_EQ(lr.storage_bytes(), 0u);
  const Matrix<float> dense = lr.to_dense();
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(dense.data()[i], 0.0f);
  }
}

TEST(TlrSidecar, SetDensifyAndFootprintAgree) {
  const std::size_t n = 64, ts = 16;
  const Matrix<float> k = smooth_spd_kernel(n, 1.0f);
  SymmetricTileMatrix tiles(n, ts);
  tiles.from_dense(k);
  EXPECT_FALSE(tiles.has_low_rank());
  const std::size_t dense_bytes = tiles.storage_bytes();

  const LowRankFactor factor =
      compress_block(tiles.tile(3, 0).to_fp32(), 1e-4);
  tiles.set_low_rank(3, 0, TlrTile(factor.u, factor.v, Precision::kFp32));
  EXPECT_TRUE(tiles.has_low_rank());
  EXPECT_TRUE(tiles.is_low_rank(3, 0));
  EXPECT_FALSE(tiles.is_low_rank(2, 0));
  // The slot's dense payload is released; the footprint shrinks by the
  // difference between the dense tile and its factors.
  EXPECT_LT(tiles.storage_bytes(), dense_bytes);
  // Dense access to a low-rank slot is a typed error naming the tile;
  // representation-generic readers go through slot().
  EXPECT_THROW(tiles.tile(3, 0), InvalidArgument);
  EXPECT_EQ(tiles.slot(3, 0).storage_bytes(),
            tiles.slot(3, 0).low_rank().storage_bytes());

  // to_dense reconstructs the compressed slot.
  const Matrix<float> round = tiles.to_dense();
  EXPECT_LT(relative_error(round, k), 1e-4);

  tiles.densify(3, 0);
  EXPECT_FALSE(tiles.has_low_rank());
  EXPECT_FALSE(tiles.is_low_rank(3, 0));
  EXPECT_EQ(tiles.storage_bytes(), dense_bytes);

  // Diagonal tiles can never go low rank.
  EXPECT_THROW(
      tiles.set_low_rank(1, 1, TlrTile(factor.u, factor.v, Precision::kFp32)),
      InvalidArgument);
}

// ----------------------------------------------------- compression plan

TEST(TlrPlan, SmoothKernelCompressesAtLeastTwofold) {
  const std::size_t n = 192, ts = 32;
  const Matrix<float> k = smooth_spd_kernel(n, 1.0f);
  SymmetricTileMatrix tiles(n, ts);
  tiles.from_dense(k);

  TlrPolicy policy;
  policy.tol = 1e-4;
  const PrecisionMap map(tiles.tile_count(), Precision::kFp32);
  const TlrCompressionStats stats = plan_tlr_compression(tiles, map, policy);
  EXPECT_GT(stats.tiles_compressed, 0u);
  // The PR's acceptance bar: >= 2x compressed-vs-dense off-diagonal
  // bytes on a smooth kernel.
  EXPECT_GE(stats.dense_bytes, 2 * stats.compressed_bytes);
  EXPECT_GT(stats.mean_rank, 0.0);
  EXPECT_LE(stats.mean_rank, static_cast<double>(stats.max_rank));
  EXPECT_EQ(tiles.tlr_tol(), policy.tol);
  EXPECT_LT(relative_error(tiles.to_dense(), k), 1e-3);
}

TEST(TlrPlan, ZeroToleranceIsANoOp) {
  const std::size_t n = 64, ts = 16;
  SymmetricTileMatrix tiles(n, ts);
  tiles.from_dense(smooth_spd_kernel(n, 1.0f));
  const TlrCompressionStats stats = plan_tlr_compression(
      tiles, PrecisionMap(tiles.tile_count(), Precision::kFp32), TlrPolicy{});
  EXPECT_EQ(stats.tiles_compressed, 0u);
  EXPECT_EQ(stats.compressed_bytes, 0u);
  EXPECT_FALSE(tiles.has_low_rank());
}

TEST(TlrPlan, FactorsStoreAtTheMappedPrecision) {
  const std::size_t n = 128, ts = 32;
  SymmetricTileMatrix tiles(n, ts);
  tiles.from_dense(smooth_spd_kernel(n, 1.0f));
  PrecisionMap map(tiles.tile_count(), Precision::kFp32);
  map.set(3, 0, Precision::kFp16);
  TlrPolicy policy;
  policy.tol = 1e-3;
  plan_tlr_compression(tiles, map, policy);
  ASSERT_TRUE(tiles.is_low_rank(3, 0));
  EXPECT_EQ(tiles.low_rank_tile(3, 0).precision(), Precision::kFp16);
  ASSERT_TRUE(tiles.is_low_rank(2, 0));
  EXPECT_EQ(tiles.low_rank_tile(2, 0).precision(), Precision::kFp32);
}

// ------------------------------------------------------ TLR factorization

TEST(TlrCholesky, FactorizeAndSolveTracksDenseWithinTolerance) {
  const std::size_t n = 192, ts = 32, nrhs = 3;
  const Matrix<float> k = smooth_spd_kernel(n, 2.0f);
  const Matrix<float> b = random_matrix(n, nrhs, 61);
  Runtime runtime;

  // Dense reference factorize + solve.
  SymmetricTileMatrix dense(n, ts);
  dense.from_dense(k);
  Matrix<float> x_dense = b;
  tiled_potrf(runtime, dense);
  tiled_potrs(runtime, dense, x_dense);

  // TLR factorize + solve at tol = 1e-4.
  SymmetricTileMatrix tlr(n, ts);
  tlr.from_dense(k);
  TlrPolicy policy;
  policy.tol = 1e-4;
  const TlrCompressionStats stats = plan_tlr_compression(
      tlr, PrecisionMap(tlr.tile_count(), Precision::kFp32), policy);
  ASSERT_GT(stats.tiles_compressed, 0u);
  tiled_potrf(runtime, tlr);
  Matrix<float> x_tlr = b;
  tiled_potrs(runtime, tlr, x_tlr);

  // Recorded tolerances: at tol = 1e-4 with alpha = 2 the TLR solution
  // tracks the dense one to ~100x the compression tolerance (the
  // conditioning amplification of (K + alpha I)^-1 here), and the
  // backward error ||K x - b|| / ||b|| stays small.
  EXPECT_LT(relative_error(x_tlr, x_dense), 1e-2);

  Matrix<float> residual = b;
  gemm(Trans::kNoTrans, Trans::kNoTrans, n, nrhs, n, -1.0f, k.data(), k.ld(),
       x_tlr.data(), x_tlr.ld(), 1.0f, residual.data(), residual.ld());
  double res_sq = 0.0, b_sq = 0.0;
  for (std::size_t i = 0; i < residual.size(); ++i) {
    res_sq += static_cast<double>(residual.data()[i]) * residual.data()[i];
    b_sq += static_cast<double>(b.data()[i]) * b.data()[i];
  }
  EXPECT_LT(std::sqrt(res_sq / b_sq), 1e-2);
}

TEST(TlrCholesky, TighterToleranceGivesMoreAccurateSolve) {
  const std::size_t n = 128, ts = 32;
  const Matrix<float> k = smooth_spd_kernel(n, 2.0f);
  const Matrix<float> b = random_matrix(n, 2, 62);
  Runtime runtime;

  SymmetricTileMatrix dense(n, ts);
  dense.from_dense(k);
  Matrix<float> x_ref = b;
  tiled_potrf(runtime, dense);
  tiled_potrs(runtime, dense, x_ref);

  double prev_err = 1e9;
  for (const double tol : {1e-2, 1e-5}) {
    SymmetricTileMatrix tlr(n, ts);
    tlr.from_dense(k);
    TlrPolicy policy;
    policy.tol = tol;
    plan_tlr_compression(
        tlr, PrecisionMap(tlr.tile_count(), Precision::kFp32), policy);
    tiled_potrf(runtime, tlr);
    Matrix<float> x = b;
    tiled_potrs(runtime, tlr, x);
    const double err = relative_error(x, x_ref);
    EXPECT_LT(err, prev_err);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-3);  // tol = 1e-5 endpoint
}

TEST(TlrCholesky, CrossoverDensifiesInsteadOfGrowingRank) {
  // A tiny max_rank_fraction forces every accumulated tile over the
  // crossover: the factorization must densify (exactly) rather than carry
  // inadmissible ranks, and still produce a usable factor.
  const std::size_t n = 128, ts = 32;
  const Matrix<float> k = smooth_spd_kernel(n, 2.0f);
  Runtime runtime;

  SymmetricTileMatrix dense(n, ts);
  dense.from_dense(k);
  Matrix<float> b = random_matrix(n, 2, 63);
  Matrix<float> x_ref = b;
  tiled_potrf(runtime, dense);
  tiled_potrs(runtime, dense, x_ref);

  SymmetricTileMatrix tlr(n, ts);
  tlr.from_dense(k);
  TlrPolicy policy;
  policy.tol = 1e-5;
  policy.max_rank_fraction = 0.06;  // admits only rank <= ~1 at 32x32
  plan_tlr_compression(
      tlr, PrecisionMap(tlr.tile_count(), Precision::kFp32), policy);
  tiled_potrf(runtime, tlr);
  Matrix<float> x = b;
  tiled_potrs(runtime, tlr, x);
  EXPECT_LT(relative_error(x, x_ref), 1e-2);
}

TEST(TlrCholesky, HalfPrecisionFactorsStillSolve) {
  const std::size_t n = 128, ts = 32;
  const Matrix<float> k = smooth_spd_kernel(n, 2.0f);
  Runtime runtime;

  SymmetricTileMatrix dense(n, ts);
  dense.from_dense(k);
  Matrix<float> b = random_matrix(n, 2, 64);
  Matrix<float> x_ref = b;
  tiled_potrf(runtime, dense);
  tiled_potrs(runtime, dense, x_ref);

  // Off-diagonal factors in FP16 — TLR composing with the
  // mixed-precision mosaic.
  SymmetricTileMatrix tlr(n, ts);
  tlr.from_dense(k);
  PrecisionMap map(tlr.tile_count(), Precision::kFp32);
  for (std::size_t tj = 0; tj < tlr.tile_count(); ++tj) {
    for (std::size_t ti = tj + 1; ti < tlr.tile_count(); ++ti) {
      map.set(ti, tj, Precision::kFp16);
    }
  }
  TlrPolicy policy;
  policy.tol = 1e-4;
  plan_tlr_compression(tlr, map, policy);
  map.apply(tlr);
  tiled_potrf(runtime, tlr);
  Matrix<float> x = b;
  tiled_potrs(runtime, tlr, x);
  // FP16 factor quantization (~5e-4 relative) dominates the TLR
  // truncation here.
  EXPECT_LT(relative_error(x, x_ref), 5e-2);
}

TEST(TlrCholesky, EscalationRecoversOnCompressedMatrix) {
  // TLR + kEscalate now compose: rollback restores plan-low-rank slots in
  // factored form (re-truncating the dense source at the escalated
  // precision) and retries until the factorization completes.
  const std::size_t n = 72, ts = 16;
  const Matrix<float> kd = clustered_kernel(n, 0.02, 42);
  const Matrix<float> b = random_matrix(n, 2, 5);
  Runtime runtime;

  SymmetricTileMatrix ref(n, ts);
  ref.from_dense(kd);
  tiled_potrf(runtime, ref);
  Matrix<float> x_ref = b;
  tiled_potrs(runtime, ref, x_ref);

  // Over-aggressive fp8 off-diagonal map on the compressed matrix:
  // deterministic breakdown, deterministic recovery.
  SymmetricTileMatrix source(n, ts);
  source.from_dense(kd);
  SymmetricTileMatrix tiles = source;
  PrecisionMap map(tiles.tile_count(), Precision::kFp32);
  for (std::size_t tj = 0; tj < tiles.tile_count(); ++tj) {
    for (std::size_t ti = tj + 1; ti < tiles.tile_count(); ++ti) {
      map.set(ti, tj, Precision::kFp8E4M3);
    }
  }
  TlrPolicy policy;
  policy.tol = 1e-4;
  plan_tlr_compression(tiles, map, policy);
  map.apply(tiles);
  ASSERT_TRUE(tiles.has_low_rank());

  TiledPotrfOptions options;
  options.on_breakdown = BreakdownAction::kEscalate;
  options.max_escalations = 16;
  options.source = &source;
  FactorizationReport report;
  options.report = &report;
  tiled_potrf(runtime, tiles, options);
  EXPECT_TRUE(report.recovered);
  EXPECT_GE(report.escalations(), 1);

  // Escalated factor still solves: un-promoted off-diagonal tiles stay
  // fp8, so the envelope is fp8-level times the conditioning.
  Matrix<float> x = b;
  tiled_potrs(runtime, tiles, x);
  EXPECT_LT(relative_error(x, x_ref), 0.6);
}

TEST(TlrCholesky, ZeroTolerancePlanKeepsDensePathBitwise) {
  // plan_tlr_compression at tol = 0 must leave the matrix untouched, and
  // the subsequent factorization must be byte-for-byte the dense one.
  const std::size_t n = 96, ts = 32;
  const Matrix<float> k = smooth_spd_kernel(n, 2.0f);
  Runtime runtime;

  SymmetricTileMatrix plain(n, ts);
  plain.from_dense(k);
  tiled_potrf(runtime, plain);

  SymmetricTileMatrix planned(n, ts);
  planned.from_dense(k);
  plan_tlr_compression(
      planned, PrecisionMap(planned.tile_count(), Precision::kFp32),
      TlrPolicy{});
  ASSERT_FALSE(planned.has_low_rank());
  tiled_potrf(runtime, planned);

  const std::size_t nt = plain.tile_count();
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      const Tile& a = plain.tile(ti, tj);
      const Tile& b = planned.tile(ti, tj);
      ASSERT_EQ(a.storage_bytes(), b.storage_bytes());
      EXPECT_EQ(std::memcmp(a.raw(), b.raw(), a.storage_bytes()), 0)
          << "tile (" << ti << ", " << tj << ") diverged";
    }
  }
}

TEST(TlrCholesky, FactorIsWorkerCountInvariantBitwise) {
  // The order in which workers run the TLR trailing updates must not
  // change a single byte of the factor — representation choices (which
  // tiles densified, every factor payload) included.
  const std::size_t n = 192, ts = 32;
  const Matrix<float> k = smooth_spd_kernel(n, 2.0f);

  const auto factor = [&](std::size_t workers) {
    Runtime runtime(workers);
    SymmetricTileMatrix a(n, ts);
    a.from_dense(k);
    TlrPolicy policy;
    policy.tol = 1e-4;
    plan_tlr_compression(
        a, PrecisionMap(a.tile_count(), Precision::kFp32), policy);
    tiled_potrf(runtime, a);
    return a;
  };
  const SymmetricTileMatrix serial = factor(1);
  const SymmetricTileMatrix parallel = factor(4);
  ASSERT_TRUE(serial.has_low_rank());

  const std::size_t nt = serial.tile_count();
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      const TileSlot& sa = serial.slot(ti, tj);
      const TileSlot& sb = parallel.slot(ti, tj);
      ASSERT_EQ(sa.is_low_rank(), sb.is_low_rank())
          << "tile (" << ti << ", " << tj << ") representation diverged";
      ASSERT_EQ(sa.storage_bytes(), sb.storage_bytes());
      if (sa.is_low_rank()) {
        const TlrTile& la = sa.low_rank();
        const TlrTile& lb = sb.low_rank();
        ASSERT_EQ(la.rank(), lb.rank());
        if (la.u().storage_bytes() != 0) {
          EXPECT_EQ(std::memcmp(la.u().raw(), lb.u().raw(),
                                la.u().storage_bytes()),
                    0)
              << "tile (" << ti << ", " << tj << ") U diverged";
          EXPECT_EQ(std::memcmp(la.v().raw(), lb.v().raw(),
                                la.v().storage_bytes()),
                    0)
              << "tile (" << ti << ", " << tj << ") V diverged";
        }
      } else {
        EXPECT_EQ(std::memcmp(sa.dense().raw(), sb.dense().raw(),
                              sa.storage_bytes()),
                  0)
            << "tile (" << ti << ", " << tj << ") diverged";
      }
    }
  }
}

// ------------------------------------------------------------- pipeline

TEST(TlrAssociate, CompressedPipelineMatchesDenseSolve) {
  const std::size_t n = 192, ts = 32;
  const Matrix<float> k = smooth_spd_kernel(n, 0.0f);
  const Matrix<float> ph = random_matrix(n, 2, 71);
  Runtime runtime;

  AssociateConfig config;
  config.alpha = 2.0;
  config.mode = PrecisionMode::kFixed;
  config.tlr = TlrPolicy{};  // explicit dense baseline, env knob or not

  SymmetricTileMatrix dense(n, ts);
  dense.from_dense(k);
  const AssociateResult ref = associate(runtime, dense, ph, config);
  EXPECT_EQ(ref.tlr.tiles_compressed, 0u);

  config.tlr.tol = 1e-4;
  SymmetricTileMatrix tlr(n, ts);
  tlr.from_dense(k);
  const AssociateResult result = associate(runtime, tlr, ph, config);
  EXPECT_GT(result.tlr.tiles_compressed, 0u);
  EXPECT_GE(result.tlr.dense_bytes, 2 * result.tlr.compressed_bytes);
  // The compressed factor's storage footprint beats the dense one.
  EXPECT_LT(result.factor_bytes, ref.factor_bytes);
  EXPECT_LT(relative_error(result.weights, ref.weights), 1e-2);

  // TLR + escalation compose: the pipeline keeps its compression and
  // completes (rollback re-truncates from the pre-demotion kernel).
  config.on_breakdown = BreakdownAction::kEscalate;
  SymmetricTileMatrix again(n, ts);
  again.from_dense(k);
  const AssociateResult esc = associate(runtime, again, ph, config);
  EXPECT_GT(esc.tlr.tiles_compressed, 0u);
  EXPECT_LT(relative_error(esc.weights, ref.weights), 1e-2);
}

// ------------------------------------------------------------- env knob

TEST(TlrPolicyEnv, ParsesAndFallsBackStrictly) {
  ASSERT_EQ(setenv("KGWAS_TLR_TOL", "1e-3", 1), 0);
  ASSERT_EQ(setenv("KGWAS_TLR_MAX_RANK_FRACTION", "0.25", 1), 0);
  TlrPolicy policy = tlr_policy_from_env();
  EXPECT_DOUBLE_EQ(policy.tol, 1e-3);
  EXPECT_DOUBLE_EQ(policy.max_rank_fraction, 0.25);

  // Malformed values fall back to the defaults (off).
  ASSERT_EQ(setenv("KGWAS_TLR_TOL", "-1", 1), 0);
  EXPECT_DOUBLE_EQ(tlr_policy_from_env().tol, 0.0);
  ASSERT_EQ(setenv("KGWAS_TLR_TOL", "nan", 1), 0);
  EXPECT_DOUBLE_EQ(tlr_policy_from_env().tol, 0.0);
  ASSERT_EQ(setenv("KGWAS_TLR_TOL", "1e-3zzz", 1), 0);
  EXPECT_DOUBLE_EQ(tlr_policy_from_env().tol, 0.0);

  ASSERT_EQ(unsetenv("KGWAS_TLR_TOL"), 0);
  ASSERT_EQ(unsetenv("KGWAS_TLR_MAX_RANK_FRACTION"), 0);
  EXPECT_DOUBLE_EQ(tlr_policy_from_env().tol, 0.0);
  EXPECT_DOUBLE_EQ(tlr_policy_from_env().max_rank_fraction, 0.5);
}

}  // namespace
}  // namespace kgwas
