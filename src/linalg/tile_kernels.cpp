#include "linalg/tile_kernels.hpp"

#include <string>

#include "common/status.hpp"
#include "mpblas/blas.hpp"
#include "tile/tile_pool.hpp"

namespace kgwas {

namespace kernels = mpblas::kernels;

mpblas::kernels::OperandView tile_operand_view(const Tile& t, Trans trans) {
  return {t.raw(), t.rows(), trans, t.precision(), Precision::kFp32};
}

void tile_add_diagonal(Tile& a, float alpha) {
  PooledF32 values(TilePool::global(), a.elements());
  a.decode_to(values.data());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    values.data()[i + i * a.rows()] += alpha;
  }
  a.encode_from(values.data(), a.rows());
}

void tile_potrf(Tile& a, std::size_t global_offset) {
  KGWAS_CHECK_ARG(a.rows() == a.cols(), "POTRF tile must be square");
  const std::size_t n = a.rows();
  PooledF32 values(TilePool::global(), a.elements());
  a.decode_to(values.data());
  const int info = potrf(Uplo::kLower, n, values.data(), n);
  if (info != 0) {
    throw NumericalError(
        "tiled Cholesky: leading minor of order " +
            std::to_string(global_offset + static_cast<std::size_t>(info)) +
            " is not positive definite (consider a larger regularization "
            "alpha or higher tile precision)",
        static_cast<long>(global_offset) + info);
  }
  // Zero the (never referenced) upper triangle so dense expansions of the
  // factor are directly usable.
  for (std::size_t j = 1; j < n; ++j) {
    for (std::size_t i = 0; i < j; ++i) values.data()[i + j * n] = 0.0f;
  }
  a.encode_from(values.data(), n);
}

void tile_trsm(const Tile& l, Tile& b) {
  KGWAS_CHECK_ARG(l.rows() == l.cols() && b.cols() == l.rows(),
                  "TRSM tile shape mismatch");
  PooledF32 lv(TilePool::global(), l.elements());
  l.decode_to(lv.data());
  PooledF32 bv(TilePool::global(), b.elements());
  b.decode_to(bv.data());
  trsm(Side::kRight, Uplo::kLower, Trans::kTrans, Diag::kNonUnit, b.rows(),
       b.cols(), 1.0f, lv.data(), l.rows(), bv.data(), b.rows());
  b.encode_from(bv.data(), b.rows());
}

void tile_syrk(const Tile& a, Tile& c) {
  KGWAS_CHECK_ARG(c.rows() == c.cols() && a.rows() == c.rows(),
                  "SYRK tile shape mismatch");
  PooledF32 cv(TilePool::global(), c.elements());
  c.decode_to(cv.data());
  // Lower triangle only (the header says why).  Decode-on-pack: A is read
  // straight from tile storage.
  kernels::syrk_view(Uplo::kLower, c.rows(), a.cols(), -1.0f,
                     tile_operand_view(a, Trans::kNoTrans), 1.0f, cv.data(),
                     c.rows());
  c.encode_from(cv.data(), c.rows());
}

void tile_gemm(const Tile& a, const Tile& b, Tile& c) {
  KGWAS_CHECK_ARG(a.cols() == b.cols() && c.rows() == a.rows() &&
                      c.cols() == b.rows(),
                  "GEMM tile shape mismatch");
  PooledF32 cv(TilePool::global(), c.elements());
  c.decode_to(cv.data());
  kernels::gemm_view(c.rows(), c.cols(), a.cols(), -1.0f,
                     tile_operand_view(a, Trans::kNoTrans),
                     tile_operand_view(b, Trans::kTrans), 1.0f, cv.data(),
                     c.rows());
  c.encode_from(cv.data(), c.rows());
}

void tile_trsm_rhs(const Tile& l, bool transpose, float* x, std::size_t ldx,
                   std::size_t ncols) {
  PooledF32 lv(TilePool::global(), l.elements());
  l.decode_to(lv.data());
  trsm(Side::kLeft, Uplo::kLower, transpose ? Trans::kTrans : Trans::kNoTrans,
       Diag::kNonUnit, l.rows(), ncols, 1.0f, lv.data(), l.rows(), x, ldx);
}

void tile_gemm_rhs(const Tile& l, bool transpose, const float* xk,
                   std::size_t ldxk, float* xi, std::size_t ldxi,
                   std::size_t ncols) {
  PooledF32 lv(TilePool::global(), l.elements());
  l.decode_to(lv.data());
  const std::size_t m = transpose ? l.cols() : l.rows();
  const std::size_t k = transpose ? l.rows() : l.cols();
  gemm(transpose ? Trans::kTrans : Trans::kNoTrans, Trans::kNoTrans, m, ncols,
       k, -1.0f, lv.data(), l.rows(), xk, ldxk, 1.0f, xi, ldxi);
}

}  // namespace kgwas
