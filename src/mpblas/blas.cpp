#include "mpblas/blas.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/status.hpp"
#include "mpblas/kernels.hpp"

namespace kgwas {

namespace {

/// Order at or below which the recursive potrf and trsm run their
/// unblocked column loops.  Above it they split the triangle in two and
/// hand the off-diagonal block to gemm / syrk, which run on the packed
/// engine for FP32.  On 256-order FP32 problems (one AVX-512 core) bases
/// 8 and 16 time within noise of each other and 32 is 10-25 % slower.
constexpr std::size_t kRecursionBase = 16;

/// Where a recursive kernel splits an order n > kRecursionBase: n / 2
/// rounded down to a multiple of 16, so the blocks start on engine
/// micro-tile boundaries (n / 2 itself below 32).
constexpr std::size_t recursion_split(std::size_t n) {
  const std::size_t half = n / 2;
  return half >= 16 ? half - half % 16 : half;
}

template <typename T>
void check_lower(Uplo uplo) {
  KGWAS_CHECK_ARG(uplo == Uplo::kLower,
                  "only the Lower triangular variants are implemented; the "
                  "tiled Cholesky pipeline is lower-triangular throughout");
}

/// Unblocked right-looking lower Cholesky of an n x n block, the base
/// case of potrf's recursion: each column is scaled, then subtracted from
/// the trailing columns as contiguous AXPYs.  Returns 0 or the 1-based
/// failing column.
template <typename T>
int potrf_unblocked(std::size_t n, T* a, std::size_t lda) {
  for (std::size_t j = 0; j < n; ++j) {
    T* aj = a + j * lda;
    if (!(aj[j] > T{0})) return static_cast<int>(j) + 1;
    const T diag = std::sqrt(aj[j]);
    aj[j] = diag;
    for (std::size_t i = j + 1; i < n; ++i) aj[i] /= diag;
    for (std::size_t k = j + 1; k < n; ++k) {
      const T akj = aj[k];
      T* ak = a + k * lda;
      for (std::size_t i = k; i < n; ++i) ak[i] -= aj[i] * akj;
    }
  }
  return 0;
}

/// Column-at-a-time lower TRSM with alpha = 1: the base case of trsm's
/// recursion.
template <typename T>
void trsm_unblocked(Side side, Trans trans, bool unit, std::size_t m,
                    std::size_t n, const T* a, std::size_t lda, T* b,
                    std::size_t ldb) {
  if (side == Side::kLeft && trans == Trans::kNoTrans) {
    // Solve L * X = B (forward substitution), A is m x m.
    for (std::size_t j = 0; j < n; ++j) {
      T* bj = b + j * ldb;
      for (std::size_t l = 0; l < m; ++l) {
        if (!unit) bj[l] /= a[l + l * lda];
        const T blj = bj[l];
        if (blj == T{0}) continue;
        const T* al = a + l * lda;
        for (std::size_t i = l + 1; i < m; ++i) bj[i] -= al[i] * blj;
      }
    }
  } else if (side == Side::kLeft && trans == Trans::kTrans) {
    // Solve L^T * X = B (backward substitution).
    for (std::size_t j = 0; j < n; ++j) {
      T* bj = b + j * ldb;
      for (std::size_t l = m; l-- > 0;) {
        const T* al = a + l * lda;
        T value = bj[l];
        for (std::size_t i = l + 1; i < m; ++i) value -= al[i] * bj[i];
        bj[l] = unit ? value : value / a[l + l * lda];
      }
    }
  } else if (side == Side::kRight && trans == Trans::kTrans) {
    // Solve X * L^T = B: forward over columns; A is n x n.
    for (std::size_t j = 0; j < n; ++j) {
      T* bj = b + j * ldb;
      for (std::size_t l = 0; l < j; ++l) {
        const T ljl = a[j + l * lda];
        if (ljl == T{0}) continue;
        const T* bl = b + l * ldb;
        for (std::size_t i = 0; i < m; ++i) bj[i] -= ljl * bl[i];
      }
      if (!unit) {
        const T inv = T{1} / a[j + j * lda];
        for (std::size_t i = 0; i < m; ++i) bj[i] *= inv;
      }
    }
  } else {  // Right, NoTrans
    // Solve X * L = B: backward over columns.
    for (std::size_t j = n; j-- > 0;) {
      T* bj = b + j * ldb;
      for (std::size_t l = j + 1; l < n; ++l) {
        const T llj = a[l + j * lda];
        if (llj == T{0}) continue;
        const T* bl = b + l * ldb;
        for (std::size_t i = 0; i < m; ++i) bj[i] -= llj * bl[i];
      }
      if (!unit) {
        const T inv = T{1} / a[j + j * lda];
        for (std::size_t i = 0; i < m; ++i) bj[i] *= inv;
      }
    }
  }
}

}  // namespace

namespace reference {

template <typename T>
void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, T alpha, const T* a, std::size_t lda, const T* b,
          std::size_t ldb, T beta, T* c, std::size_t ldc) {
  if (m == 0 || n == 0) return;
  // Scale C by beta first so the accumulation loops are uniform.
  for (std::size_t j = 0; j < n; ++j) {
    T* cj = c + j * ldc;
    if (beta == T{0}) {
      std::fill(cj, cj + m, T{0});
    } else if (beta != T{1}) {
      for (std::size_t i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
  if (k == 0 || alpha == T{0}) return;

  // No zero-skip branches in the accumulation loops: a data-dependent
  // `continue` blocks vectorization and made reference timings a
  // misleading baseline for the packed engine.
  if (trans_a == Trans::kNoTrans && trans_b == Trans::kNoTrans) {
    for (std::size_t j = 0; j < n; ++j) {
      T* cj = c + j * ldc;
      for (std::size_t l = 0; l < k; ++l) {
        const T blj = alpha * b[l + j * ldb];
        const T* al = a + l * lda;
        for (std::size_t i = 0; i < m; ++i) cj[i] += blj * al[i];
      }
    }
  } else if (trans_a == Trans::kNoTrans && trans_b == Trans::kTrans) {
    for (std::size_t j = 0; j < n; ++j) {
      T* cj = c + j * ldc;
      for (std::size_t l = 0; l < k; ++l) {
        const T bjl = alpha * b[j + l * ldb];
        const T* al = a + l * lda;
        for (std::size_t i = 0; i < m; ++i) cj[i] += bjl * al[i];
      }
    }
  } else if (trans_a == Trans::kTrans && trans_b == Trans::kNoTrans) {
    for (std::size_t j = 0; j < n; ++j) {
      const T* bj = b + j * ldb;
      T* cj = c + j * ldc;
      for (std::size_t i = 0; i < m; ++i) {
        const T* ai = a + i * lda;
        T sum{0};
        for (std::size_t l = 0; l < k; ++l) sum += ai[l] * bj[l];
        cj[i] += alpha * sum;
      }
    }
  } else {  // T x T
    for (std::size_t j = 0; j < n; ++j) {
      T* cj = c + j * ldc;
      for (std::size_t i = 0; i < m; ++i) {
        const T* ai = a + i * lda;
        T sum{0};
        for (std::size_t l = 0; l < k; ++l) sum += ai[l] * b[j + l * ldb];
        cj[i] += alpha * sum;
      }
    }
  }
}

template <typename T>
void syrk(Uplo uplo, Trans trans, std::size_t n, std::size_t k, T alpha,
          const T* a, std::size_t lda, T beta, T* c, std::size_t ldc) {
  if (n == 0) return;
  auto scale_triangle = [&](auto in_triangle) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!in_triangle(i, j)) continue;
        T& cij = c[i + j * ldc];
        cij = (beta == T{0}) ? T{0} : cij * beta;
      }
    }
  };
  const bool lower = uplo == Uplo::kLower;
  scale_triangle([lower](std::size_t i, std::size_t j) {
    return lower ? i >= j : i <= j;
  });
  if (k == 0 || alpha == T{0}) return;

  if (trans == Trans::kNoTrans) {
    // C += alpha * A * A^T with A n x k.  (No zero-skip branch: it blocks
    // vectorization, see gemm above.)
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t l = 0; l < k; ++l) {
        const T ajl = alpha * a[j + l * lda];
        const T* al = a + l * lda;
        if (lower) {
          T* cj = c + j * ldc;
          for (std::size_t i = j; i < n; ++i) cj[i] += ajl * al[i];
        } else {
          T* cj = c + j * ldc;
          for (std::size_t i = 0; i <= j; ++i) cj[i] += ajl * al[i];
        }
      }
    }
  } else {
    // C += alpha * A^T * A with A k x n.
    for (std::size_t j = 0; j < n; ++j) {
      const T* aj = a + j * lda;
      const std::size_t i_begin = lower ? j : 0;
      const std::size_t i_end = lower ? n : j + 1;
      for (std::size_t i = i_begin; i < i_end; ++i) {
        const T* ai = a + i * lda;
        T sum{0};
        for (std::size_t l = 0; l < k; ++l) sum += ai[l] * aj[l];
        c[i + j * ldc] += alpha * sum;
      }
    }
  }
}

}  // namespace reference

template <typename T>
void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, T alpha, const T* a, std::size_t lda, const T* b,
          std::size_t ldb, T beta, T* c, std::size_t ldc) {
  if constexpr (std::is_same_v<T, float>) {
    mpblas::kernels::gemm_view(m, n, k, alpha,
                               mpblas::kernels::fp32_view(a, lda, trans_a),
                               mpblas::kernels::fp32_view(b, ldb, trans_b),
                               beta, c, ldc);
  } else {
    reference::gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c,
                    ldc);
  }
}

template <typename T>
void syrk(Uplo uplo, Trans trans, std::size_t n, std::size_t k, T alpha,
          const T* a, std::size_t lda, T beta, T* c, std::size_t ldc) {
  if constexpr (std::is_same_v<T, float>) {
    mpblas::kernels::syrk_view(uplo, n, k, alpha,
                               mpblas::kernels::fp32_view(a, lda, trans), beta,
                               c, ldc);
  } else {
    reference::syrk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc);
  }
}

template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, std::size_t m,
          std::size_t n, T alpha, const T* a, std::size_t lda, T* b,
          std::size_t ldb) {
  check_lower<T>(uplo);
  if (m == 0 || n == 0) return;
  if (alpha != T{1}) {
    for (std::size_t j = 0; j < n; ++j) {
      T* bj = b + j * ldb;
      for (std::size_t i = 0; i < m; ++i) bj[i] *= alpha;
    }
  }
  const std::size_t dim = side == Side::kLeft ? m : n;
  if (dim <= kRecursionBase) {
    trsm_unblocked(side, trans, diag == Diag::kUnit, m, n, a, lda, b, ldb);
    return;
  }
  // Recursive TRSM (Elmroth, Gustavson, Jonsson and Kagstrom, SIAM Review
  // 2004): split the triangle's order into two half-solves with one gemm
  // between them.
  const std::size_t d1 = recursion_split(dim);
  const std::size_t d2 = dim - d1;
  const T* a21 = a + d1;
  const T* a22 = a21 + d1 * lda;
  const auto solve = [&](std::size_t rows, std::size_t cols, const T* l,
                         T* x) {
    trsm(side, uplo, trans, diag, rows, cols, T{1}, l, lda, x, ldb);
  };
  if (side == Side::kLeft) {
    T* b2 = b + d1;
    if (trans == Trans::kNoTrans) {
      // L X = B: X1 = L11^-1 B1, B2 -= L21 X1, X2 = L22^-1 B2.
      solve(d1, n, a, b);
      gemm(Trans::kNoTrans, Trans::kNoTrans, d2, n, d1, T{-1}, a21, lda, b,
           ldb, T{1}, b2, ldb);
      solve(d2, n, a22, b2);
    } else {
      // L^T X = B: X2 = L22^-T B2, B1 -= L21^T X2, X1 = L11^-T B1.
      solve(d2, n, a22, b2);
      gemm(Trans::kTrans, Trans::kNoTrans, d1, n, d2, T{-1}, a21, lda, b2,
           ldb, T{1}, b, ldb);
      solve(d1, n, a, b);
    }
  } else {
    T* b2 = b + d1 * ldb;
    if (trans == Trans::kTrans) {
      // X L^T = B: X1 = B1 L11^-T, B2 -= X1 L21^T, X2 = B2 L22^-T.
      solve(m, d1, a, b);
      gemm(Trans::kNoTrans, Trans::kTrans, m, d2, d1, T{-1}, b, ldb, a21,
           lda, T{1}, b2, ldb);
      solve(m, d2, a22, b2);
    } else {
      // X L = B: X2 = B2 L22^-1, B1 -= X2 L21, X1 = B1 L11^-1.
      solve(m, d2, a22, b2);
      gemm(Trans::kNoTrans, Trans::kNoTrans, m, d1, d2, T{-1}, b2, ldb, a21,
           lda, T{1}, b, ldb);
      solve(m, d1, a, b);
    }
  }
}

template <typename T>
int potrf(Uplo uplo, std::size_t n, T* a, std::size_t lda) {
  check_lower<T>(uplo);
  if (n <= kRecursionBase) return potrf_unblocked(n, a, lda);
  // Recursive Cholesky (Gustavson 1997; LAPACK xPOTRF2): factor A11,
  // A21 <- A21 L11^-T, A22 -= A21 A21^T, factor A22.
  const std::size_t n1 = recursion_split(n);
  const std::size_t n2 = n - n1;
  T* a21 = a + n1;
  T* a22 = a21 + n1 * lda;
  if (const int info = potrf(uplo, n1, a, lda); info != 0) return info;
  trsm(Side::kRight, uplo, Trans::kTrans, Diag::kNonUnit, n2, n1, T{1}, a,
       lda, a21, lda);
  syrk(uplo, Trans::kNoTrans, n2, n1, T{-1}, a21, lda, T{1}, a22, lda);
  const int info = potrf(uplo, n2, a22, lda);
  return info == 0 ? 0 : info + static_cast<int>(n1);
}

template <typename T>
void potrs(Uplo uplo, std::size_t n, std::size_t nrhs, const T* a,
           std::size_t lda, T* b, std::size_t ldb) {
  check_lower<T>(uplo);
  // b is const-preserving on A; trsm takes non-const B only.
  trsm(Side::kLeft, Uplo::kLower, Trans::kNoTrans, Diag::kNonUnit, n, nrhs,
       T{1}, a, lda, b, ldb);
  trsm(Side::kLeft, Uplo::kLower, Trans::kTrans, Diag::kNonUnit, n, nrhs, T{1},
       a, lda, b, ldb);
}

template <typename T>
double frobenius_norm(std::size_t m, std::size_t n, const T* a,
                      std::size_t lda) {
  double sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const T* aj = a + j * lda;
    for (std::size_t i = 0; i < m; ++i) {
      const double value = static_cast<double>(aj[i]);
      sum += value * value;
    }
  }
  return std::sqrt(sum);
}

template <typename T>
double max_abs(std::size_t m, std::size_t n, const T* a, std::size_t lda) {
  double best = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const T* aj = a + j * lda;
    for (std::size_t i = 0; i < m; ++i) {
      best = std::max(best, std::fabs(static_cast<double>(aj[i])));
    }
  }
  return best;
}

template <typename T>
Matrix<T> matmul(const Matrix<T>& a, const Matrix<T>& b, Trans trans_a,
                 Trans trans_b) {
  const std::size_t m = trans_a == Trans::kNoTrans ? a.rows() : a.cols();
  const std::size_t ka = trans_a == Trans::kNoTrans ? a.cols() : a.rows();
  const std::size_t kb = trans_b == Trans::kNoTrans ? b.rows() : b.cols();
  const std::size_t n = trans_b == Trans::kNoTrans ? b.cols() : b.rows();
  KGWAS_CHECK_ARG(ka == kb, "matmul inner dimensions mismatch");
  Matrix<T> c(m, n);
  gemm(trans_a, trans_b, m, n, ka, T{1}, a.data(), a.ld(), b.data(), b.ld(),
       T{0}, c.data(), c.ld());
  return c;
}

template <typename T>
void symmetrize_from_lower(Matrix<T>& a) {
  KGWAS_CHECK_ARG(a.rows() == a.cols(), "symmetrize requires a square matrix");
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (std::size_t i = j + 1; i < a.rows(); ++i) {
      a(j, i) = a(i, j);
    }
  }
}

template void reference::gemm<float>(Trans, Trans, std::size_t, std::size_t,
                                     std::size_t, float, const float*,
                                     std::size_t, const float*, std::size_t,
                                     float, float*, std::size_t);
template void reference::gemm<double>(Trans, Trans, std::size_t, std::size_t,
                                      std::size_t, double, const double*,
                                      std::size_t, const double*, std::size_t,
                                      double, double*, std::size_t);
template void reference::syrk<float>(Uplo, Trans, std::size_t, std::size_t,
                                     float, const float*, std::size_t, float,
                                     float*, std::size_t);
template void reference::syrk<double>(Uplo, Trans, std::size_t, std::size_t,
                                      double, const double*, std::size_t,
                                      double, double*, std::size_t);
template void gemm<float>(Trans, Trans, std::size_t, std::size_t, std::size_t,
                          float, const float*, std::size_t, const float*,
                          std::size_t, float, float*, std::size_t);
template void gemm<double>(Trans, Trans, std::size_t, std::size_t, std::size_t,
                           double, const double*, std::size_t, const double*,
                           std::size_t, double, double*, std::size_t);
template void syrk<float>(Uplo, Trans, std::size_t, std::size_t, float,
                          const float*, std::size_t, float, float*,
                          std::size_t);
template void syrk<double>(Uplo, Trans, std::size_t, std::size_t, double,
                           const double*, std::size_t, double, double*,
                           std::size_t);
template void trsm<float>(Side, Uplo, Trans, Diag, std::size_t, std::size_t,
                          float, const float*, std::size_t, float*,
                          std::size_t);
template void trsm<double>(Side, Uplo, Trans, Diag, std::size_t, std::size_t,
                           double, const double*, std::size_t, double*,
                           std::size_t);
template int potrf<float>(Uplo, std::size_t, float*, std::size_t);
template int potrf<double>(Uplo, std::size_t, double*, std::size_t);
template void potrs<float>(Uplo, std::size_t, std::size_t, const float*,
                           std::size_t, float*, std::size_t);
template void potrs<double>(Uplo, std::size_t, std::size_t, const double*,
                            std::size_t, double*, std::size_t);
template double frobenius_norm<float>(std::size_t, std::size_t, const float*,
                                      std::size_t);
template double frobenius_norm<double>(std::size_t, std::size_t, const double*,
                                       std::size_t);
template double max_abs<float>(std::size_t, std::size_t, const float*,
                               std::size_t);
template double max_abs<double>(std::size_t, std::size_t, const double*,
                                std::size_t);
template Matrix<float> matmul<float>(const Matrix<float>&, const Matrix<float>&,
                                     Trans, Trans);
template Matrix<double> matmul<double>(const Matrix<double>&,
                                       const Matrix<double>&, Trans, Trans);
template void symmetrize_from_lower<float>(Matrix<float>&);
template void symmetrize_from_lower<double>(Matrix<double>&);

}  // namespace kgwas
