// Tests for the tensor-core contract kernels: INT8 exactness and
// low-precision operand rounding with FP32 accumulation.  The INT8 tests
// run under every microkernel variant the host can execute (the avx512
// variant dispatches the AVX512-VNNI kernel where the CPU has it), with
// operands spanning the full [-128, 127].
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "mpblas/blas.hpp"
#include "mpblas/kernels.hpp"
#include "mpblas/matrix.hpp"
#include "mpblas/mixed.hpp"
#include "precision/convert.hpp"

namespace kgwas {
namespace {

namespace kernels = mpblas::kernels;

/// Restores the engine's arch and blocking overrides on scope exit.
struct ScopedEngineConfig {
  ~ScopedEngineConfig() {
    kernels::set_gemm_arch(std::nullopt);
    kernels::set_gemm_blocking(std::nullopt);
  }
};

Matrix<std::int8_t> random_dosages(std::size_t m, std::size_t n, Rng& rng) {
  Matrix<std::int8_t> a(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      a(i, j) = static_cast<std::int8_t>(rng.uniform_index(3));
    }
  }
  return a;
}

/// Uniform over the whole int8 range, so -128 and 127 both occur.
Matrix<std::int8_t> random_int8(std::size_t m, std::size_t n, Rng& rng) {
  Matrix<std::int8_t> a(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      a(i, j) = static_cast<std::int8_t>(
          static_cast<int>(rng.uniform_index(256)) - 128);
    }
  }
  return a;
}

TEST(Int8Syrk, ExactAgainstInt64ReferenceNoTrans) {
  ScopedEngineConfig restore;
  Rng rng(1);
  const std::size_t n = 37, k = 53;
  const Matrix<std::int8_t> a = random_int8(n, k, rng);
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      Matrix<std::int32_t> c(n, n, 7);
      syrk_i8_i32(uplo, Trans::kNoTrans, n, k, 2, a.data(), a.ld(), 3,
                  c.data(), c.ld());
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
          const bool inside = uplo == Uplo::kLower ? i >= j : i <= j;
          std::int64_t sum = 0;
          for (std::size_t l = 0; l < k; ++l) {
            sum += static_cast<std::int64_t>(a(i, l)) * a(j, l);
          }
          // Outside the triangle C is never referenced.
          ASSERT_EQ(c(i, j), inside ? 2 * sum + 3 * 7 : 7)
              << to_string(arch) << " " << i << "," << j;
        }
      }
    }
  }
}

TEST(Int8Syrk, ExactAgainstInt64ReferenceTrans) {
  ScopedEngineConfig restore;
  Rng rng(2);
  const std::size_t n = 21, k = 64;
  const Matrix<std::int8_t> a = random_int8(k, n, rng);
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    Matrix<std::int32_t> c(n, n, 0);
    syrk_i8_i32(Uplo::kLower, Trans::kTrans, n, k, 1, a.data(), a.ld(), 0,
                c.data(), c.ld());
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = j; i < n; ++i) {
        std::int64_t sum = 0;
        for (std::size_t l = 0; l < k; ++l) {
          sum += static_cast<std::int64_t>(a(l, i)) * a(l, j);
        }
        ASSERT_EQ(c(i, j), sum) << to_string(arch);
      }
    }
  }
}

TEST(Int8Gemm, ExactAllTransCombos) {
  ScopedEngineConfig restore;
  Rng rng(3);
  const std::size_t m = 9, n = 12, k = 31;
  for (const Trans ta : {Trans::kNoTrans, Trans::kTrans}) {
    for (const Trans tb : {Trans::kNoTrans, Trans::kTrans}) {
      const Matrix<std::int8_t> a = ta == Trans::kNoTrans
                                        ? random_int8(m, k, rng)
                                        : random_int8(k, m, rng);
      const Matrix<std::int8_t> b = tb == Trans::kNoTrans
                                        ? random_int8(k, n, rng)
                                        : random_int8(n, k, rng);
      for (const kernels::Arch arch : kernels::available_archs()) {
        kernels::set_gemm_arch(arch);
        Matrix<std::int32_t> c(m, n, 0);
        gemm_i8_i32(ta, tb, m, n, k, 1, a.data(), a.ld(), b.data(), b.ld(), 0,
                    c.data(), c.ld());
        for (std::size_t j = 0; j < n; ++j) {
          for (std::size_t i = 0; i < m; ++i) {
            std::int64_t sum = 0;
            for (std::size_t l = 0; l < k; ++l) {
              const std::int64_t av =
                  ta == Trans::kNoTrans ? a(i, l) : a(l, i);
              const std::int64_t bv =
                  tb == Trans::kNoTrans ? b(l, j) : b(j, l);
              sum += av * bv;
            }
            ASSERT_EQ(c(i, j), sum) << to_string(arch);
          }
        }
      }
    }
  }
}

TEST(Int8Gemm, ExactWhenOffsetProductsWrapInt32) {
  // All-127 operands at k = 70000: the true product 127^2 k fits in i32,
  // but the offset-encoded sum (127 + 128) * 127 * k does not.  With kc
  // >= k the whole sum runs in one k block, so the kernel's accumulator
  // wraps and the 128 * colsum(B) correction must unwrap it.
  ScopedEngineConfig restore;
  const std::size_t m = 2, n = 2, k = 70000;
  const std::int64_t want = std::int64_t{127} * 127 * k;
  ASSERT_LT(std::int64_t{255} * 127 * k, std::int64_t{1} << 32);
  ASSERT_GT(std::int64_t{255} * 127 * k, std::int64_t{1} << 31);
  const std::vector<std::int8_t> a(m * k, 127), b(k * n, 127);
  for (const std::optional<kernels::Blocking> blocking :
       {std::optional<kernels::Blocking>{},
        std::optional<kernels::Blocking>{kernels::Blocking{64, k, 64}}}) {
    kernels::set_gemm_blocking(blocking);
    for (const kernels::Arch arch : kernels::available_archs()) {
      kernels::set_gemm_arch(arch);
      std::vector<std::int32_t> c(m * n, -1);
      gemm_i8_i32(Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1, a.data(), m,
                  b.data(), k, 0, c.data(), m);
      for (const std::int32_t v : c) {
        ASSERT_EQ(v, want) << to_string(arch)
                           << (blocking ? " kc >= k" : " default blocking");
      }
      std::vector<std::int32_t> s(m * m, -1);
      syrk_i8_i32(Uplo::kLower, Trans::kNoTrans, m, k, 1, a.data(), m, 0,
                  s.data(), m);
      EXPECT_EQ(s[0], want) << to_string(arch);
      EXPECT_EQ(s[1], want) << to_string(arch);
      EXPECT_EQ(s[3], want) << to_string(arch);
    }
  }
}

TEST(Int8Gemm, MatchesReferenceOverShapesAndBlockings) {
  // Edge panels in m and n, every k remainder mod 4, several macro blocks
  // per dimension (small odd blockings), alpha/beta scaling, both syrk
  // triangles: the engine must equal the scalar oracle bit for bit.
  ScopedEngineConfig restore;
  Rng rng(11);
  const std::size_t m = 71, n = 45;
  for (const std::optional<kernels::Blocking> blocking :
       {std::optional<kernels::Blocking>{},
        std::optional<kernels::Blocking>{kernels::Blocking{40, 13, 17}}}) {
    kernels::set_gemm_blocking(blocking);
    for (const std::size_t k : {1u, 2u, 3u, 4u, 37u, 90u}) {
      const Matrix<std::int8_t> a = random_int8(m, k, rng);
      const Matrix<std::int8_t> b = random_int8(n, k, rng);
      Matrix<std::int8_t> bt(k, n);  // b^T, the Trans-form syrk operand
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t l = 0; l < k; ++l) bt(l, j) = b(j, l);
      }
      const Matrix<std::int32_t> c0 = [&] {
        Matrix<std::int32_t> c(m, n);
        for (std::size_t x = 0; x < c.size(); ++x) {
          c.data()[x] = static_cast<std::int32_t>(rng.uniform_index(2001)) -
                        1000;
        }
        return c;
      }();
      Matrix<std::int32_t> want = c0;
      reference::gemm_i8_i32(Trans::kNoTrans, Trans::kTrans, m, n, k, -3,
                             a.data(), a.ld(), b.data(), b.ld(), 2,
                             want.data(), want.ld());
      Matrix<std::int32_t> want_lo = c0, want_up = c0;
      reference::syrk_i8_i32(Uplo::kLower, Trans::kNoTrans, n, k, 2, b.data(),
                             b.ld(), -1, want_lo.data(), want_lo.ld());
      reference::syrk_i8_i32(Uplo::kUpper, Trans::kTrans, n, k, 1, bt.data(),
                             bt.ld(), 0, want_up.data(), want_up.ld());
      for (const kernels::Arch arch : kernels::available_archs()) {
        kernels::set_gemm_arch(arch);
        Matrix<std::int32_t> got = c0, lo = c0, up = c0;
        gemm_i8_i32(Trans::kNoTrans, Trans::kTrans, m, n, k, -3, a.data(),
                    a.ld(), b.data(), b.ld(), 2, got.data(), got.ld());
        syrk_i8_i32(Uplo::kLower, Trans::kNoTrans, n, k, 2, b.data(), b.ld(),
                    -1, lo.data(), lo.ld());
        syrk_i8_i32(Uplo::kUpper, Trans::kTrans, n, k, 1, bt.data(), bt.ld(),
                    0, up.data(), up.ld());
        for (std::size_t x = 0; x < got.size(); ++x) {
          ASSERT_EQ(got.data()[x], want.data()[x])
              << to_string(arch) << " gemm k=" << k << " element " << x;
          ASSERT_EQ(lo.data()[x], want_lo.data()[x])
              << to_string(arch) << " syrk lower k=" << k << " element " << x;
          ASSERT_EQ(up.data()[x], want_up.data()[x])
              << to_string(arch) << " syrk upper k=" << k << " element " << x;
        }
      }
    }
  }
}

TEST(Int8Distance, SyrkTrickIsBitExactForDosages) {
  // The paper's Build-phase claim: the INT8 path computes squared
  // Euclidean distances *exactly* for dosage data.
  Rng rng(4);
  const std::size_t np = 29, ns = 211;
  const Matrix<std::int8_t> g = random_dosages(np, ns, rng);
  // Row norms.
  std::vector<std::int32_t> norms(np, 0);
  for (std::size_t s = 0; s < ns; ++s) {
    for (std::size_t p = 0; p < np; ++p) {
      norms[p] += static_cast<std::int32_t>(g(p, s)) * g(p, s);
    }
  }
  Matrix<std::int32_t> gram(np, np, 0);
  syrk_i8_i32(Uplo::kLower, Trans::kNoTrans, np, ns, 1, g.data(), g.ld(), 0,
              gram.data(), gram.ld());
  for (std::size_t j = 0; j < np; ++j) {
    for (std::size_t i = j; i < np; ++i) {
      const std::int32_t d = norms[i] + norms[j] - 2 * gram(i, j);
      std::int64_t expected = 0;
      for (std::size_t s = 0; s < ns; ++s) {
        const std::int64_t diff =
            static_cast<std::int64_t>(g(i, s)) - g(j, s);
        expected += diff * diff;
      }
      ASSERT_EQ(d, expected);
      ASSERT_GE(d, 0);
      if (i == j) ASSERT_EQ(d, 0);
    }
  }
}

class GemmTcParam : public ::testing::TestWithParam<Precision> {};

TEST_P(GemmTcParam, EqualsQuantizedOperandReference) {
  const Precision p = GetParam();
  Rng rng(5);
  const std::size_t m = 16, n = 11, k = 24;
  Matrix<float> a(m, k), b(k, n), c(m, n, 0.25f);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.normal());
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = static_cast<float>(rng.normal());
  }
  Matrix<float> c_tc = c;
  gemm_tc(p, Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.0f, a.data(), a.ld(),
          b.data(), b.ld(), 1.0f, c_tc.data(), c_tc.ld());

  // Reference: quantize operands explicitly, then plain FP32 GEMM.
  Matrix<float> aq = a, bq = b;
  quantize_inplace(p, aq.data(), aq.size());
  quantize_inplace(p, bq.data(), bq.size());
  Matrix<float> c_ref = c;
  gemm(Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.0f, aq.data(), aq.ld(),
       bq.data(), bq.ld(), 1.0f, c_ref.data(), c_ref.ld());
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_EQ(c_tc(i, j), c_ref(i, j)) << to_string(p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NarrowFormats, GemmTcParam,
    ::testing::Values(Precision::kFp16, Precision::kBf16, Precision::kFp8E4M3,
                      Precision::kFp8E5M2, Precision::kFp4E2M1),
    [](const auto& info) { return to_string(info.param); });

TEST(GemmTc, Fp32PassThroughIsExactGemm) {
  Rng rng(6);
  const std::size_t m = 8, n = 8, k = 8;
  Matrix<float> a(m, k), b(k, n), c1(m, n, 0.0f), c2(m, n, 0.0f);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.normal());
    b.data()[i] = static_cast<float>(rng.normal());
  }
  gemm_tc(Precision::kFp32, Trans::kNoTrans, Trans::kTrans, m, n, k, 1.0f,
          a.data(), a.ld(), b.data(), b.ld(), 0.0f, c1.data(), c1.ld());
  gemm(Trans::kNoTrans, Trans::kTrans, m, n, k, 1.0f, a.data(), a.ld(),
       b.data(), b.ld(), 0.0f, c2.data(), c2.ld());
  for (std::size_t i = 0; i < c1.size(); ++i) {
    ASSERT_EQ(c1.data()[i], c2.data()[i]);
  }
}

TEST(GemmTc, Fp16ErrorBoundedByUnitRoundoff) {
  Rng rng(7);
  const std::size_t m = 32, n = 32, k = 32;
  Matrix<float> a(m, k), b(k, n), c(m, n, 0.0f), c_exact(m, n, 0.0f);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.normal());
    b.data()[i] = static_cast<float>(rng.normal());
  }
  gemm_tc(Precision::kFp16, Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.0f,
          a.data(), a.ld(), b.data(), b.ld(), 0.0f, c.data(), c.ld());
  gemm(Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.0f, a.data(), a.ld(),
       b.data(), b.ld(), 0.0f, c_exact.data(), c_exact.ld());
  // |C_tc - C| <= ~2 u_fp16 * sum |a||b| per entry (operand rounding only).
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      double abs_bound = 0.0;
      for (std::size_t l = 0; l < k; ++l) {
        abs_bound += std::fabs(a(i, l)) * std::fabs(b(l, j));
      }
      const double u = unit_roundoff(Precision::kFp16);
      EXPECT_LE(std::fabs(c(i, j) - c_exact(i, j)),
                3.0 * u * abs_bound + 1e-6);
    }
  }
}

TEST(GemmTc, Int8OperandRejected) {
  Matrix<float> a(2, 2, 1.0f), c(2, 2, 0.0f);
  EXPECT_THROW(gemm_tc(Precision::kInt8, Trans::kNoTrans, Trans::kNoTrans, 2,
                       2, 2, 1.0f, a.data(), 2, a.data(), 2, 0.0f, c.data(), 2),
               InvalidArgument);
}

TEST(OpCounts, ClosedForms) {
  EXPECT_DOUBLE_EQ(gemm_op_count(2, 3, 4), 48.0);
  EXPECT_DOUBLE_EQ(syrk_op_count(4, 5), 4.0 * 5.0 * 5.0);
  EXPECT_NEAR(potrf_op_count(100), 100.0 * 100.0 * 100.0 / 3.0, 6000.0);
  EXPECT_DOUBLE_EQ(trsm_op_count(3, 7), 63.0);
}

}  // namespace
}  // namespace kgwas
