// Dense Level-3 BLAS / LAPACK kernels (FP32 and FP64).
//
// FP32 gemm/syrk run on the packed engine (mpblas/kernels.hpp).  potrf
// and trsm are recursive (Gustavson's xPOTRF2; Elmroth, Gustavson,
// Jonsson and Kagstrom's recursive TRSM): each splits the triangle in two
// near the middle and hands the off-diagonal block to gemm (and potrf its
// trailing update to syrk), so for FP32 almost all of their flops run on
// the engine; only blocks of order 16 or less run unblocked column loops.
// FP64 runs the same recursion over the scalar loops, which
// `reference::gemm` / `reference::syrk` also expose directly as the
// oracle for tests and benches.
//
// All kernels use column-major storage with explicit leading dimensions,
// matching the netlib interfaces they reproduce (GEMM, SYRK, TRSM, POTRF,
// POTRS plus norms).  They are single-threaded by design: the
// dataflow runtime provides parallelism *across* tiles, as PaRSEC does for
// the paper's solver, so tile kernels themselves stay sequential.
//
// Triangular kernels implement the Lower variants used by the Cholesky
// pipeline; Upper variants throw InvalidArgument (the tiled solver is
// lower-triangular throughout, as in the paper's FP8 discussion).
#pragma once

#include <cstddef>

#include "mpblas/matrix.hpp"
#include "mpblas/types.hpp"

namespace kgwas {

/// C <- alpha * op(A) * op(B) + beta * C, where op(A) is m x k and C is m x n.
template <typename T>
void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, T alpha, const T* a, std::size_t lda, const T* b,
          std::size_t ldb, T beta, T* c, std::size_t ldc);

/// C <- alpha * A * A^T + beta * C (trans = NoTrans, A is n x k) or
/// C <- alpha * A^T * A + beta * C (trans = Trans, A is k x n), lower/upper
/// triangle of C referenced.
template <typename T>
void syrk(Uplo uplo, Trans trans, std::size_t n, std::size_t k, T alpha,
          const T* a, std::size_t lda, T beta, T* c, std::size_t ldc);

namespace reference {

/// The scalar triple loops behind gemm<double>: no blocking, no packing.
/// Same contract as gemm; the oracle the FP32 engine is tested against.
template <typename T>
void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, T alpha, const T* a, std::size_t lda, const T* b,
          std::size_t ldb, T beta, T* c, std::size_t ldc);

/// The scalar loops behind syrk<double>; same contract as syrk.
template <typename T>
void syrk(Uplo uplo, Trans trans, std::size_t n, std::size_t k, T alpha,
          const T* a, std::size_t lda, T beta, T* c, std::size_t ldc);

}  // namespace reference

/// B <- alpha * op(A)^-1 * B (Left) or alpha * B * op(A)^-1 (Right),
/// with A lower triangular n x n (Left: B is m x n with m = rows of B...
/// following BLAS convention B is m x n and A is m x m for Left, n x n for
/// Right).
template <typename T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, std::size_t m,
          std::size_t n, T alpha, const T* a, std::size_t lda, T* b,
          std::size_t ldb);

/// Cholesky factorization A = L * L^T (lower).  Returns 0 on success or the
/// 1-based index of the first non-positive pivot (LAPACK convention).
template <typename T>
int potrf(Uplo uplo, std::size_t n, T* a, std::size_t lda);

/// Solves A * X = B given the Cholesky factor computed by potrf.
template <typename T>
void potrs(Uplo uplo, std::size_t n, std::size_t nrhs, const T* a,
           std::size_t lda, T* b, std::size_t ldb);

/// Frobenius norm of an m x n block.
template <typename T>
double frobenius_norm(std::size_t m, std::size_t n, const T* a, std::size_t lda);

/// Max-abs norm of an m x n block.
template <typename T>
double max_abs(std::size_t m, std::size_t n, const T* a, std::size_t lda);

// --- Matrix-container conveniences -------------------------------------

/// C = op(A) * op(B) into a fresh matrix.
template <typename T>
Matrix<T> matmul(const Matrix<T>& a, const Matrix<T>& b,
                 Trans trans_a = Trans::kNoTrans,
                 Trans trans_b = Trans::kNoTrans);

/// Copies the (strict or full) lower triangle onto the upper to make a
/// symmetric matrix from a lower-filled one.
template <typename T>
void symmetrize_from_lower(Matrix<T>& a);

extern template void reference::gemm<float>(Trans, Trans, std::size_t,
                                            std::size_t, std::size_t, float,
                                            const float*, std::size_t,
                                            const float*, std::size_t, float,
                                            float*, std::size_t);
extern template void reference::gemm<double>(Trans, Trans, std::size_t,
                                             std::size_t, std::size_t, double,
                                             const double*, std::size_t,
                                             const double*, std::size_t,
                                             double, double*, std::size_t);
extern template void reference::syrk<float>(Uplo, Trans, std::size_t,
                                            std::size_t, float, const float*,
                                            std::size_t, float, float*,
                                            std::size_t);
extern template void reference::syrk<double>(Uplo, Trans, std::size_t,
                                             std::size_t, double,
                                             const double*, std::size_t,
                                             double, double*, std::size_t);
extern template void gemm<float>(Trans, Trans, std::size_t, std::size_t,
                                 std::size_t, float, const float*, std::size_t,
                                 const float*, std::size_t, float, float*,
                                 std::size_t);
extern template void gemm<double>(Trans, Trans, std::size_t, std::size_t,
                                  std::size_t, double, const double*,
                                  std::size_t, const double*, std::size_t,
                                  double, double*, std::size_t);
extern template void syrk<float>(Uplo, Trans, std::size_t, std::size_t, float,
                                 const float*, std::size_t, float, float*,
                                 std::size_t);
extern template void syrk<double>(Uplo, Trans, std::size_t, std::size_t, double,
                                  const double*, std::size_t, double, double*,
                                  std::size_t);
extern template void trsm<float>(Side, Uplo, Trans, Diag, std::size_t,
                                 std::size_t, float, const float*, std::size_t,
                                 float*, std::size_t);
extern template void trsm<double>(Side, Uplo, Trans, Diag, std::size_t,
                                  std::size_t, double, const double*,
                                  std::size_t, double*, std::size_t);
extern template int potrf<float>(Uplo, std::size_t, float*, std::size_t);
extern template int potrf<double>(Uplo, std::size_t, double*, std::size_t);
extern template void potrs<float>(Uplo, std::size_t, std::size_t, const float*,
                                  std::size_t, float*, std::size_t);
extern template void potrs<double>(Uplo, std::size_t, std::size_t,
                                   const double*, std::size_t, double*,
                                   std::size_t);
extern template double frobenius_norm<float>(std::size_t, std::size_t,
                                             const float*, std::size_t);
extern template double frobenius_norm<double>(std::size_t, std::size_t,
                                              const double*, std::size_t);
extern template double max_abs<float>(std::size_t, std::size_t, const float*,
                                      std::size_t);
extern template double max_abs<double>(std::size_t, std::size_t, const double*,
                                       std::size_t);
extern template Matrix<float> matmul<float>(const Matrix<float>&,
                                            const Matrix<float>&, Trans, Trans);
extern template Matrix<double> matmul<double>(const Matrix<double>&,
                                              const Matrix<double>&, Trans,
                                              Trans);
extern template void symmetrize_from_lower<float>(Matrix<float>&);
extern template void symmetrize_from_lower<double>(Matrix<double>&);

}  // namespace kgwas
