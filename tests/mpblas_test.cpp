// Tests for the dense BLAS/LAPACK kernels, checked against
// straightforward triple-loop references in FP64.  The FP32 potrf and
// trsm cases run under every microkernel variant the host can execute:
// their recursion puts almost all of their flops on the packed engine.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mpblas/blas.hpp"
#include "mpblas/kernels.hpp"
#include "mpblas/matrix.hpp"

namespace kgwas {
namespace {

namespace kernels = mpblas::kernels;

/// Runs `body(arch)` with each runnable variant selected, then restores
/// the default selection.
template <typename Body>
void for_each_variant(const Body& body) {
  struct Restore {
    ~Restore() { kernels::set_gemm_arch(std::nullopt); }
  } restore;
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    body(arch);
  }
}

Matrix<double> random_matrix(std::size_t m, std::size_t n, Rng& rng) {
  Matrix<double> a(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) a(i, j) = rng.normal();
  }
  return a;
}

/// SPD matrix: A = B B^T + n * I.
Matrix<double> random_spd(std::size_t n, Rng& rng) {
  const Matrix<double> b = random_matrix(n, n, rng);
  Matrix<double> a = matmul(b, b, Trans::kNoTrans, Trans::kTrans);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

double max_diff(const Matrix<double>& a, const Matrix<double>& b) {
  double best = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      best = std::max(best, std::fabs(a(i, j) - b(i, j)));
    }
  }
  return best;
}

Matrix<double> reference_gemm(Trans ta, Trans tb, double alpha,
                              const Matrix<double>& a, const Matrix<double>& b,
                              double beta, Matrix<double> c) {
  const std::size_t m = c.rows(), n = c.cols();
  const std::size_t k = ta == Trans::kNoTrans ? a.cols() : a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      double sum = 0.0;
      for (std::size_t l = 0; l < k; ++l) {
        const double av = ta == Trans::kNoTrans ? a(i, l) : a(l, i);
        const double bv = tb == Trans::kNoTrans ? b(l, j) : b(j, l);
        sum += av * bv;
      }
      c(i, j) = alpha * sum + beta * c(i, j);
    }
  }
  return c;
}

using GemmCase = std::tuple<Trans, Trans, int, int, int>;

class GemmParam : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParam, MatchesReference) {
  const auto [ta, tb, m, n, k] = GetParam();
  Rng rng(1);
  const Matrix<double> a = ta == Trans::kNoTrans ? random_matrix(m, k, rng)
                                                 : random_matrix(k, m, rng);
  const Matrix<double> b = tb == Trans::kNoTrans ? random_matrix(k, n, rng)
                                                 : random_matrix(n, k, rng);
  Matrix<double> c = random_matrix(m, n, rng);
  const Matrix<double> expected = reference_gemm(ta, tb, 0.7, a, b, -1.3, c);
  gemm(ta, tb, m, n, k, 0.7, a.data(), a.ld(), b.data(), b.ld(), -1.3,
       c.data(), c.ld());
  EXPECT_LT(max_diff(c, expected), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    AllTransShapes, GemmParam,
    ::testing::Values(
        GemmCase{Trans::kNoTrans, Trans::kNoTrans, 17, 13, 9},
        GemmCase{Trans::kNoTrans, Trans::kTrans, 8, 21, 16},
        GemmCase{Trans::kTrans, Trans::kNoTrans, 33, 5, 12},
        GemmCase{Trans::kTrans, Trans::kTrans, 7, 7, 7},
        GemmCase{Trans::kNoTrans, Trans::kNoTrans, 1, 1, 1},
        GemmCase{Trans::kNoTrans, Trans::kTrans, 64, 64, 2}));

TEST(Gemm, BetaZeroOverwritesGarbage) {
  // C containing NaN must be fully overwritten when beta == 0.
  Matrix<double> c(3, 3, std::numeric_limits<double>::quiet_NaN());
  Matrix<double> a(3, 2, 1.0), b(2, 3, 1.0);
  gemm(Trans::kNoTrans, Trans::kNoTrans, 3, 3, 2, 1.0, a.data(), 3, b.data(),
       2, 0.0, c.data(), 3);
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(c(i, j), 2.0);
  }
}

TEST(Syrk, LowerNoTransMatchesGemm) {
  Rng rng(2);
  const std::size_t n = 19, k = 11;
  const Matrix<double> a = random_matrix(n, k, rng);
  Matrix<double> c(n, n, 0.5);
  Matrix<double> c_ref = c;
  syrk(Uplo::kLower, Trans::kNoTrans, n, k, 2.0, a.data(), a.ld(), 3.0,
       c.data(), c.ld());
  c_ref = reference_gemm(Trans::kNoTrans, Trans::kTrans, 2.0, a, a, 3.0, c_ref);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j; i < n; ++i) {
      EXPECT_NEAR(c(i, j), c_ref(i, j), 1e-12);
    }
    for (std::size_t i = 0; i < j; ++i) {
      EXPECT_DOUBLE_EQ(c(i, j), 0.5);  // upper untouched
    }
  }
}

TEST(Syrk, LowerTransMatchesGemm) {
  Rng rng(3);
  const std::size_t n = 14, k = 23;
  const Matrix<double> a = random_matrix(k, n, rng);
  Matrix<double> c(n, n, 0.0);
  syrk(Uplo::kLower, Trans::kTrans, n, k, 1.0, a.data(), a.ld(), 0.0, c.data(),
       c.ld());
  const Matrix<double> full = matmul(a, a, Trans::kTrans, Trans::kNoTrans);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j; i < n; ++i) {
      EXPECT_NEAR(c(i, j), full(i, j), 1e-11);
    }
  }
}

TEST(Syrk, UpperVariant) {
  Rng rng(4);
  const std::size_t n = 9, k = 6;
  const Matrix<double> a = random_matrix(n, k, rng);
  Matrix<double> c(n, n, 0.0);
  syrk(Uplo::kUpper, Trans::kNoTrans, n, k, 1.0, a.data(), a.ld(), 0.0,
       c.data(), c.ld());
  const Matrix<double> full = matmul(a, a, Trans::kNoTrans, Trans::kTrans);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i <= j; ++i) EXPECT_NEAR(c(i, j), full(i, j), 1e-11);
  }
}

class TrsmParam
    : public ::testing::TestWithParam<std::tuple<Side, Trans, Diag>> {};

TEST_P(TrsmParam, SolvesAgainstMultiply) {
  const auto [side, trans, diag] = GetParam();
  Rng rng(5);
  const std::size_t m = 13, n = 9;
  const std::size_t adim = side == Side::kLeft ? m : n;
  // Well-conditioned lower-triangular A.
  Matrix<double> a = random_matrix(adim, adim, rng);
  for (std::size_t j = 0; j < adim; ++j) {
    for (std::size_t i = 0; i < j; ++i) a(i, j) = 0.0;
    a(j, j) = diag == Diag::kUnit ? 1.0 : 2.0 + std::fabs(a(j, j));
  }
  const Matrix<double> x_true = random_matrix(m, n, rng);

  // B = op_side(A) applied to X.
  Matrix<double> b(m, n, 0.0);
  if (side == Side::kLeft) {
    b = reference_gemm(trans, Trans::kNoTrans, 1.0, a, x_true, 0.0, b);
  } else {
    b = reference_gemm(Trans::kNoTrans, trans, 1.0, x_true, a, 0.0, b);
  }
  trsm(side, Uplo::kLower, trans, diag, m, n, 1.0, a.data(), a.ld(), b.data(),
       b.ld());
  EXPECT_LT(max_diff(b, x_true), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrsmParam,
    ::testing::Combine(::testing::Values(Side::kLeft, Side::kRight),
                       ::testing::Values(Trans::kNoTrans, Trans::kTrans),
                       ::testing::Values(Diag::kNonUnit, Diag::kUnit)));

TEST(Trsm, AlphaScaling) {
  Rng rng(6);
  Matrix<double> a(4, 4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) a(i, i) = 1.0;
  Matrix<double> b = random_matrix(4, 3, rng);
  const Matrix<double> orig = b;
  trsm(Side::kLeft, Uplo::kLower, Trans::kNoTrans, Diag::kNonUnit, 4, 3, 2.5,
       a.data(), 4, b.data(), 4);
  EXPECT_LT(max_diff(b, reference_gemm(Trans::kNoTrans, Trans::kNoTrans, 0.0,
                                       orig, orig, 2.5, orig)),
            1e-12);
}

TEST(Trsm, UpperThrows) {
  Matrix<double> a(2, 2, 1.0), b(2, 2, 1.0);
  EXPECT_THROW(trsm(Side::kLeft, Uplo::kUpper, Trans::kNoTrans, Diag::kNonUnit,
                    2, 2, 1.0, a.data(), 2, b.data(), 2),
               InvalidArgument);
}

class PotrfParam : public ::testing::TestWithParam<int> {};

TEST_P(PotrfParam, FactorReconstructs) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Rng rng(7);
  const Matrix<double> a = random_spd(n, rng);
  Matrix<double> l = a;
  ASSERT_EQ(potrf(Uplo::kLower, n, l.data(), l.ld()), 0);
  // Zero strict upper, then check L L^T == A.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < j; ++i) l(i, j) = 0.0;
  }
  const Matrix<double> recon = matmul(l, l, Trans::kNoTrans, Trans::kTrans);
  const double scale = max_abs(n, n, a.data(), a.ld());
  EXPECT_LT(max_diff(recon, a), 1e-12 * scale * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PotrfParam,
                         ::testing::Values(1, 2, 3, 17, 64, 129, 200, 300));

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Factors an SPD matrix of order n whose diagonal entry pivot - 1 is
/// replaced by `bad` and returns potrf's result: the leading minors of
/// order < pivot are untouched, so `pivot` must be reported.
template <typename T>
int failing_pivot(std::size_t n, std::size_t pivot, double bad) {
  Rng rng(23);
  Matrix<T> a = random_spd(n, rng).template cast<T>();
  a(pivot - 1, pivot - 1) = static_cast<T>(bad);
  return potrf(Uplo::kLower, n, a.data(), a.ld());
}

TEST(Potrf, ReportsFailingPivot) {
  // Indefinite matrix: pivot 2 (1-based) must be flagged.
  Matrix<double> a(3, 3, 0.0);
  a(0, 0) = 4.0;
  a(1, 1) = -1.0;
  a(2, 2) = 5.0;
  EXPECT_EQ(potrf(Uplo::kLower, 3, a.data(), 3), 2);
  // Past the recursion base: a pivot in the trailing half is offset by
  // the leading half's order; a NaN pivot fails like a negative one.
  EXPECT_EQ(failing_pivot<double>(256, 200, -1.0), 200);
  EXPECT_EQ(failing_pivot<double>(256, 1, -1.0), 1);
  EXPECT_EQ(failing_pivot<double>(256, 200, kNaN), 200);
  EXPECT_EQ(failing_pivot<double>(256, 1, kNaN), 1);
}

TEST(Potrs, SolvesSystem) {
  Rng rng(8);
  const std::size_t n = 40, nrhs = 3;
  const Matrix<double> a = random_spd(n, rng);
  const Matrix<double> x_true = random_matrix(n, nrhs, rng);
  Matrix<double> b = matmul(a, x_true);
  Matrix<double> l = a;
  ASSERT_EQ(potrf(Uplo::kLower, n, l.data(), l.ld()), 0);
  potrs(Uplo::kLower, n, nrhs, l.data(), l.ld(), b.data(), b.ld());
  EXPECT_LT(max_diff(b, x_true), 1e-9);
}

TEST(Norms, KnownValues) {
  Matrix<double> a(2, 2);
  a(0, 0) = 3.0;
  a(1, 0) = 4.0;
  a(0, 1) = 0.0;
  a(1, 1) = -12.0;
  EXPECT_DOUBLE_EQ(frobenius_norm(2, 2, a.data(), 2), 13.0);
  EXPECT_DOUBLE_EQ(max_abs(2, 2, a.data(), 2), 12.0);
}

TEST(Matrix, AtBoundsChecking) {
  Matrix<float> a(2, 3);
  EXPECT_NO_THROW(a.at(1, 2));
  EXPECT_THROW(a.at(2, 0), InvalidArgument);
  EXPECT_THROW(a.at(0, 3), InvalidArgument);
}

TEST(Matrix, SymmetrizeFromLower) {
  Matrix<double> a(3, 3, 0.0);
  a(1, 0) = 5.0;
  a(2, 1) = -2.0;
  symmetrize_from_lower(a);
  EXPECT_DOUBLE_EQ(a(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(a(1, 2), -2.0);
}

TEST(FloatKernels, SinglePrecisionPotrfWorks) {
  Rng rng(10);
  const std::size_t n = 50;
  Matrix<double> ad = random_spd(n, rng);
  Matrix<float> a = ad.cast<float>();
  EXPECT_EQ(potrf(Uplo::kLower, n, a.data(), a.ld()), 0);
}

// --- FP32 kernels of the tile tasks, per engine variant -------------------

constexpr double kUnitRoundoffF32 = 0x1p-24;

class PotrfFp32Param : public ::testing::TestWithParam<int> {};

// Cholesky's backward error is at most (n + 1) u |L| |L^T| <= (n + 1) u
// max|A| (Higham, Accuracy and Stability, Thm 10.3), for any summation
// order; the bound is checked with a factor 2 to spare.
TEST_P(PotrfFp32Param, FactorReconstructsPerVariant) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Rng rng(17);
  const Matrix<float> a = random_spd(n, rng).cast<float>();
  const Matrix<double> ad = a.cast<double>();
  const double bound = 2.0 * static_cast<double>(n + 1) * kUnitRoundoffF32 *
                       max_abs(n, n, ad.data(), ad.ld());
  for_each_variant([&](kernels::Arch arch) {
    Matrix<float> l = a;
    ASSERT_EQ(potrf(Uplo::kLower, n, l.data(), l.ld()), 0) << to_string(arch);
    Matrix<double> ld = l.cast<double>();
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < j; ++i) ld(i, j) = 0.0;
    }
    const Matrix<double> recon = matmul(ld, ld, Trans::kNoTrans, Trans::kTrans);
    EXPECT_LT(max_diff(recon, ad), bound) << to_string(arch) << " n=" << n;
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, PotrfFp32Param,
                         ::testing::Values(1, 2, 15, 16, 17, 31, 33, 100, 128,
                                           129, 256, 300));

using TrsmFp32Case = std::tuple<Side, Trans, Diag, std::pair<int, int>>;

class TrsmFp32Param : public ::testing::TestWithParam<TrsmFp32Case> {};

// L has a diagonal of 1 + |N(0, 1)| (or a unit one) and N(0, 1) / order
// below it, so it stays well conditioned at every order.  The solver sees
// NaN wherever it must not read: the strict upper triangle, and the
// diagonal of a unit-diagonal solve.
TEST_P(TrsmFp32Param, SolvesAgainstMultiplyPerVariant) {
  const auto [side, trans, diag, shape] = GetParam();
  const auto m = static_cast<std::size_t>(shape.first);
  const auto n = static_cast<std::size_t>(shape.second);
  const std::size_t adim = side == Side::kLeft ? m : n;
  Rng rng(19);
  Matrix<double> l(adim, adim, 0.0);
  for (std::size_t j = 0; j < adim; ++j) {
    l(j, j) = diag == Diag::kUnit ? 1.0 : 1.0 + std::fabs(rng.normal());
    for (std::size_t i = j + 1; i < adim; ++i) {
      l(i, j) = static_cast<double>(static_cast<float>(
          rng.normal() / static_cast<double>(adim)));
    }
    l(j, j) = static_cast<double>(static_cast<float>(l(j, j)));
  }
  const Matrix<double> x_true =
      random_matrix(m, n, rng).cast<float>().cast<double>();
  Matrix<double> b(m, n, 0.0);
  if (side == Side::kLeft) {
    b = reference_gemm(trans, Trans::kNoTrans, 1.0, l, x_true, 0.0, b);
  } else {
    b = reference_gemm(Trans::kNoTrans, trans, 1.0, x_true, l, 0.0, b);
  }
  Matrix<float> a = l.cast<float>();
  for (std::size_t j = 0; j < adim; ++j) {
    for (std::size_t i = 0; i < j; ++i) a(i, j) = static_cast<float>(kNaN);
    if (diag == Diag::kUnit) a(j, j) = static_cast<float>(kNaN);
  }
  const double bound = 4.0 * static_cast<double>(adim) * kUnitRoundoffF32 *
                       max_abs(m, n, x_true.data(), x_true.ld());
  for_each_variant([&](kernels::Arch arch) {
    Matrix<float> x = b.cast<float>();
    trsm(side, Uplo::kLower, trans, diag, m, n, 1.0f, a.data(), a.ld(),
         x.data(), x.ld());
    EXPECT_LT(max_diff(x.cast<double>(), x_true), bound)
        << to_string(arch) << " m=" << m << " n=" << n;
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAndShapes, TrsmFp32Param,
    ::testing::Combine(::testing::Values(Side::kLeft, Side::kRight),
                       ::testing::Values(Trans::kNoTrans, Trans::kTrans),
                       ::testing::Values(Diag::kNonUnit, Diag::kUnit),
                       ::testing::Values(std::pair{256, 256},
                                         std::pair{37, 129},
                                         std::pair{256, 5},
                                         std::pair{5, 256})));

TEST(PotrfFp32, ReportsFailingPivotPerVariant) {
  for_each_variant([](kernels::Arch arch) {
    EXPECT_EQ(failing_pivot<float>(256, 200, -1.0), 200) << to_string(arch);
    EXPECT_EQ(failing_pivot<float>(256, 1, -1.0), 1) << to_string(arch);
    EXPECT_EQ(failing_pivot<float>(256, 200, kNaN), 200) << to_string(arch);
    EXPECT_EQ(failing_pivot<float>(256, 1, kNaN), 1) << to_string(arch);
  });
}

}  // namespace
}  // namespace kgwas
