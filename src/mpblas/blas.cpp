#include "mpblas/blas.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/status.hpp"
#include "mpblas/kernels.hpp"

namespace kgwas {

namespace {

constexpr std::size_t kPotrfBlock = 128;

/// Column-block width of the blocked TRSM: the rank-k update ahead of
/// each diagonal block runs as one engine GEMM instead of column-at-a-
/// time AXPYs.
constexpr std::size_t kTrsmBlock = 64;

template <typename T>
void check_lower(Uplo uplo) {
  KGWAS_CHECK_ARG(uplo == Uplo::kLower,
                  "only the Lower triangular variants are implemented; the "
                  "tiled Cholesky pipeline is lower-triangular throughout");
}

/// Unblocked lower Cholesky on an nb x nb block.  Returns 0 or the 1-based
/// failing column.
template <typename T>
int potf2_lower(std::size_t n, T* a, std::size_t lda) {
  for (std::size_t j = 0; j < n; ++j) {
    T diag = a[j + j * lda];
    for (std::size_t l = 0; l < j; ++l) {
      diag -= a[j + l * lda] * a[j + l * lda];
    }
    if (!(diag > T{0})) return static_cast<int>(j) + 1;
    diag = std::sqrt(diag);
    a[j + j * lda] = diag;
    for (std::size_t i = j + 1; i < n; ++i) {
      T value = a[i + j * lda];
      for (std::size_t l = 0; l < j; ++l) {
        value -= a[i + l * lda] * a[j + l * lda];
      }
      a[i + j * lda] = value / diag;
    }
  }
  return 0;
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
  const bool unit = diag == Diag::kUnit;

  if (alpha != T{1}) {
    for (std::size_t j = 0; j < n; ++j) {
      T* bj = b + j * ldb;
      for (std::size_t i = 0; i < m; ++i) bj[i] *= alpha;
    }
  }

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
    // Solve X * L^T = B: forward over columns; A is n x n.  This is the
    // Cholesky panel update (A21 <- A21 * L11^-T), so the bulk of the
    // work — the rank-k update of each column block against all already-
    // solved columns — runs as one engine GEMM per block; only the
    // small in-block dependence chain stays column-at-a-time.
    if constexpr (std::is_same_v<T, float>) {
      if (n > kTrsmBlock) {
        for (std::size_t j0 = 0; j0 < n; j0 += kTrsmBlock) {
          const std::size_t nb = std::min(kTrsmBlock, n - j0);
          if (j0 > 0) {
            // B(:, j0:j0+nb) -= B(:, 0:j0) * L(j0:j0+nb, 0:j0)^T.
            mpblas::kernels::gemm_view(
                m, nb, j0, -1.0f,
                mpblas::kernels::fp32_view(b, ldb, Trans::kNoTrans),
                mpblas::kernels::fp32_view(a + j0, lda, Trans::kTrans), 1.0f,
                b + j0 * ldb, ldb);
          }
          for (std::size_t j = j0; j < j0 + nb; ++j) {
            T* bj = b + j * ldb;
            for (std::size_t l = j0; l < j; ++l) {
              const T ljl = a[j + l * lda];
              const T* bl = b + l * ldb;
              for (std::size_t i = 0; i < m; ++i) bj[i] -= ljl * bl[i];
            }
            if (!unit) {
              const T inv = T{1} / a[j + j * lda];
              for (std::size_t i = 0; i < m; ++i) bj[i] *= inv;
            }
          }
        }
        return;
      }
    }
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

template <typename T>
int potrf(Uplo uplo, std::size_t n, T* a, std::size_t lda) {
  check_lower<T>(uplo);
  for (std::size_t k = 0; k < n; k += kPotrfBlock) {
    const std::size_t kb = std::min(kPotrfBlock, n - k);
    const int info = potf2_lower(kb, a + k + k * lda, lda);
    if (info != 0) return static_cast<int>(k) + info;
    const std::size_t rest = n - k - kb;
    if (rest == 0) continue;
    // Panel below the diagonal block: A21 <- A21 * L11^-T.
    trsm(Side::kRight, Uplo::kLower, Trans::kTrans, Diag::kNonUnit, rest, kb,
         T{1}, a + k + k * lda, lda, a + (k + kb) + k * lda, lda);
    // Trailing update: A22 <- A22 - A21 * A21^T.
    syrk(Uplo::kLower, Trans::kNoTrans, rest, kb, T{-1},
         a + (k + kb) + k * lda, lda, T{1}, a + (k + kb) + (k + kb) * lda, lda);
  }
  return 0;
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
