#include "linalg/tile_kernels.hpp"

#include <string>

#include "common/status.hpp"
#include "mpblas/batch.hpp"
#include "mpblas/blas.hpp"
#include "tile/tile_pool.hpp"

namespace kgwas {

// Shared decode/encode helpers: scope-aware reads (panel tiles consumed
// by several updates of one coalesced batch are dequantized once) and
// cache-invalidating writes.
using mpblas::batch::decode_read;
using mpblas::batch::encode_write;

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
  encode_write(a, values.data());
}

void tile_trsm(const Tile& l, Tile& b) {
  KGWAS_CHECK_ARG(l.rows() == l.cols() && b.cols() == l.rows(),
                  "TRSM tile shape mismatch");
  PooledF32 l_scratch;
  const float* lv = decode_read(l, l_scratch);
  PooledF32 bv(TilePool::global(), b.elements());
  b.decode_to(bv.data());
  trsm(Side::kRight, Uplo::kLower, Trans::kTrans, Diag::kNonUnit, b.rows(),
       b.cols(), 1.0f, lv, l.rows(), bv.data(), b.rows());
  encode_write(b, bv.data());
}

void tile_syrk(const Tile& a, Tile& c) {
  KGWAS_CHECK_ARG(c.rows() == c.cols() && a.rows() == c.rows(),
                  "SYRK tile shape mismatch");
  PooledF32 cv(TilePool::global(), c.elements());
  c.decode_to(cv.data());
  // Full-tile update (gemm) keeps the tile consistent for later full reads;
  // numerically identical to the triangular update on the referenced part.
  // Decode-on-pack: both operand roles read straight from tile storage.
  kernels::gemm_view(c.rows(), c.cols(), a.cols(), -1.0f,
                     tile_operand_view(a, Trans::kNoTrans),
                     tile_operand_view(a, Trans::kTrans), 1.0f, cv.data(),
                     c.rows());
  encode_write(c, cv.data());
}

void tile_gemm(const Tile& a, const Tile& b, Tile& c) {
  KGWAS_CHECK_ARG(a.cols() == b.cols() && c.rows() == a.rows() &&
                      c.cols() == b.rows(),
                  "GEMM tile shape mismatch");
  PooledF32 cv(TilePool::global(), c.elements());
  c.decode_to(cv.data());
  // Inside a coalesced batch the scope shares the packed (decoded) images
  // of both panel operands across the group — in the Cholesky trailing
  // update consecutive group members share their B tile (the panel
  // column), in other groups the A tile.  Prepacked and plain packing are
  // bitwise identical.
  const kernels::PackedA* shared_a = nullptr;
  const kernels::PackedB* shared_b = nullptr;
  // INT8 x INT8 pairs take gemm_view's integer-accumulate path; the
  // prepacked images are FP32 panels, so sharing them here would make
  // batched execution diverge bitwise from solo execution.
  const bool int8_pair =
      a.precision() == Precision::kInt8 && b.precision() == Precision::kInt8;
  if (auto* scope = mpblas::batch::BatchScope::current();
      scope != nullptr && !int8_pair) {
    shared_a = scope->packed_a(a);
    shared_b = scope->packed_b(b);
  }
  if (shared_a != nullptr && shared_b != nullptr) {
    kernels::gemm_prepacked_ab(c.rows(), c.cols(), a.cols(), -1.0f, *shared_a,
                               *shared_b, 1.0f, cv.data(), c.rows());
  } else {
    kernels::gemm_view(c.rows(), c.cols(), a.cols(), -1.0f,
                       tile_operand_view(a, Trans::kNoTrans),
                       tile_operand_view(b, Trans::kTrans), 1.0f, cv.data(),
                       c.rows());
  }
  encode_write(c, cv.data());
}

void pack_tile_a(mpblas::kernels::PackedA& packed, const Tile& a) {
  packed.pack(a.rows(), a.cols(), tile_operand_view(a, Trans::kNoTrans));
}

void pack_tile_b(mpblas::kernels::PackedB& packed, const Tile& b) {
  // op(B) = b^T is b.cols() x b.rows().
  packed.pack(b.cols(), b.rows(), tile_operand_view(b, Trans::kTrans));
}

void tile_trsm_rhs(const Tile& l, bool transpose, float* x, std::size_t ldx,
                   std::size_t ncols) {
  PooledF32 l_scratch;
  const float* lv = decode_read(l, l_scratch);
  trsm(Side::kLeft, Uplo::kLower, transpose ? Trans::kTrans : Trans::kNoTrans,
       Diag::kNonUnit, l.rows(), ncols, 1.0f, lv, l.rows(), x, ldx);
}

void tile_gemm_rhs(const Tile& l, bool transpose, const float* xk,
                   std::size_t ldxk, float* xi, std::size_t ldxi,
                   std::size_t ncols) {
  PooledF32 l_scratch;
  const float* lv = decode_read(l, l_scratch);
  const std::size_t m = transpose ? l.cols() : l.rows();
  const std::size_t k = transpose ? l.rows() : l.cols();
  gemm(transpose ? Trans::kTrans : Trans::kNoTrans, Trans::kNoTrans, m, ncols,
       k, -1.0f, lv, l.rows(), xk, ldxk, 1.0f, xi, ldxi);
}

}  // namespace kgwas
