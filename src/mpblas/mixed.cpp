#include "mpblas/mixed.hpp"

#include "common/status.hpp"
#include "mpblas/blas.hpp"
#include "mpblas/kernels.hpp"

namespace kgwas {

namespace reference {

void syrk_i8_i32(Uplo uplo, Trans trans, std::size_t n, std::size_t k,
                 std::int32_t alpha, const std::int8_t* a, std::size_t lda,
                 std::int32_t beta, std::int32_t* c, std::size_t ldc) {
  const bool lower = uplo == Uplo::kLower;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t i_begin = lower ? j : 0;
    const std::size_t i_end = lower ? n : j + 1;
    for (std::size_t i = i_begin; i < i_end; ++i) {
      std::int32_t& cij = c[i + j * ldc];
      cij = beta == 0 ? 0 : cij * beta;
    }
  }
  if (k == 0 || alpha == 0) return;

  if (trans == Trans::kNoTrans) {
    // A is n x k: C += alpha * A * A^T.
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t l = 0; l < k; ++l) {
        const std::int32_t ajl =
            alpha * static_cast<std::int32_t>(a[j + l * lda]);
        if (ajl == 0) continue;
        const std::int8_t* al = a + l * lda;
        if (lower) {
          for (std::size_t i = j; i < n; ++i) {
            c[i + j * ldc] += ajl * static_cast<std::int32_t>(al[i]);
          }
        } else {
          for (std::size_t i = 0; i <= j; ++i) {
            c[i + j * ldc] += ajl * static_cast<std::int32_t>(al[i]);
          }
        }
      }
    }
  } else {
    // A is k x n: C += alpha * A^T * A.
    for (std::size_t j = 0; j < n; ++j) {
      const std::int8_t* aj = a + j * lda;
      const std::size_t i_begin = lower ? j : 0;
      const std::size_t i_end = lower ? n : j + 1;
      for (std::size_t i = i_begin; i < i_end; ++i) {
        const std::int8_t* ai = a + i * lda;
        std::int32_t sum = 0;
        for (std::size_t l = 0; l < k; ++l) {
          sum += static_cast<std::int32_t>(ai[l]) *
                 static_cast<std::int32_t>(aj[l]);
        }
        c[i + j * ldc] += alpha * sum;
      }
    }
  }
}

void gemm_i8_i32(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
                 std::size_t k, std::int32_t alpha, const std::int8_t* a,
                 std::size_t lda, const std::int8_t* b, std::size_t ldb,
                 std::int32_t beta, std::int32_t* c, std::size_t ldc) {
  for (std::size_t j = 0; j < n; ++j) {
    std::int32_t* cj = c + j * ldc;
    for (std::size_t i = 0; i < m; ++i) {
      cj[i] = beta == 0 ? 0 : cj[i] * beta;
    }
  }
  if (k == 0 || alpha == 0) return;

  auto a_at = [&](std::size_t i, std::size_t l) -> std::int32_t {
    return trans_a == Trans::kNoTrans ? a[i + l * lda] : a[l + i * lda];
  };
  auto b_at = [&](std::size_t l, std::size_t j) -> std::int32_t {
    return trans_b == Trans::kNoTrans ? b[l + j * ldb] : b[j + l * ldb];
  };
  for (std::size_t j = 0; j < n; ++j) {
    std::int32_t* cj = c + j * ldc;
    for (std::size_t i = 0; i < m; ++i) {
      std::int32_t sum = 0;
      for (std::size_t l = 0; l < k; ++l) sum += a_at(i, l) * b_at(l, j);
      cj[i] += alpha * sum;
    }
  }
}

}  // namespace reference

void gemm_tc(Precision operand_precision, Trans trans_a, Trans trans_b,
             std::size_t m, std::size_t n, std::size_t k, float alpha,
             const float* a, std::size_t lda, const float* b, std::size_t ldb,
             float beta, float* c, std::size_t ldc) {
  if (operand_precision == Precision::kFp32 ||
      operand_precision == Precision::kFp64) {
    gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }
  KGWAS_CHECK_ARG(operand_precision != Precision::kInt8,
                  "use gemm_i8_i32 for INT8 operands");
  // Decode-on-pack: operand rounding happens on the packed panels, so no
  // full-operand rounded FP32 copy is ever materialized.
  mpblas::kernels::gemm_view(
      m, n, k, alpha,
      mpblas::kernels::fp32_view(a, lda, trans_a, operand_precision),
      mpblas::kernels::fp32_view(b, ldb, trans_b, operand_precision), beta, c,
      ldc);
}

double gemm_op_count(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

double syrk_op_count(std::size_t n, std::size_t k) {
  return static_cast<double>(n) * static_cast<double>(n + 1) *
         static_cast<double>(k);
}

double potrf_op_count(std::size_t n) {
  const double nd = static_cast<double>(n);
  return nd * nd * nd / 3.0 + nd * nd / 2.0 + nd / 6.0;
}

double trsm_op_count(std::size_t m, std::size_t n) {
  return static_cast<double>(m) * static_cast<double>(m) *
         static_cast<double>(n);
}

}  // namespace kgwas
