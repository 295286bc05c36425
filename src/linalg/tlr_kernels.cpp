#include "linalg/tlr_kernels.hpp"

#include "common/status.hpp"
#include "linalg/low_rank.hpp"
#include "linalg/tile_kernels.hpp"
#include "mpblas/blas.hpp"
#include "telemetry/metrics.hpp"
#include "tile/tile_pool.hpp"

namespace kgwas {

namespace {

/// [left | right_scale * right] as one m x (lc + rc) matrix — the column
/// stacking step of a low-rank accumulation.
Matrix<float> hstack(const Matrix<float>& left, const Matrix<float>& right,
                     float right_scale) {
  KGWAS_ASSERT(left.rows() == right.rows());
  Matrix<float> out(left.rows(), left.cols() + right.cols());
  for (std::size_t c = 0; c < left.cols(); ++c) {
    for (std::size_t r = 0; r < left.rows(); ++r) out(r, c) = left(r, c);
  }
  for (std::size_t c = 0; c < right.cols(); ++c) {
    for (std::size_t r = 0; r < right.rows(); ++r) {
      out(r, left.cols() + c) = right_scale * right(r, c);
    }
  }
  return out;
}

/// C <- C - Pu * Pv^T on a dense tile (decode, skinny GEMM, encode).
void apply_dense_update(Tile& c, const Matrix<float>& pu,
                        const Matrix<float>& pv) {
  KGWAS_ASSERT(c.rows() == pu.rows() && c.cols() == pv.rows() &&
               pu.cols() == pv.cols());
  if (pu.cols() == 0) return;
  PooledF32 cv(TilePool::global(), c.elements());
  c.decode_to(cv.data());
  gemm(Trans::kNoTrans, Trans::kTrans, c.rows(), c.cols(), pu.cols(), -1.0f,
       pu.data(), pu.ld(), pv.data(), pv.ld(), 1.0f, cv.data(), c.rows());
  c.encode_from(cv.data(), c.rows());
}

}  // namespace

bool tlr_rank_admissible(std::size_t rank, std::size_t m, std::size_t n,
                         double max_rank_fraction) {
  return static_cast<double>(rank) * static_cast<double>(m + n) <=
         max_rank_fraction * static_cast<double>(m) * static_cast<double>(n);
}

void tlr_trsm(const Tile& lkk, TileSlot& b) {
  if (!b.is_low_rank()) {
    tile_trsm(lkk, b.dense());
    return;
  }
  // B * L^-T = U * (L^-1 V)^T: the solve touches only the V factor, at
  // cost O(nb^2 r) instead of the dense O(nb^3).
  TlrTile& t = b.low_rank();
  if (t.rank() == 0) return;
  PooledF32 lv(TilePool::global(), lkk.elements());
  lkk.decode_to(lv.data());
  Matrix<float> v = t.v_fp32();
  trsm(Side::kLeft, Uplo::kLower, Trans::kNoTrans, Diag::kNonUnit, v.rows(),
       v.cols(), 1.0f, lv.data(), lkk.rows(), v.data(), v.ld());
  t.v().from_fp32(v);
}

void tlr_syrk(const TileSlot& ajk, Tile& c) {
  if (!ajk.is_low_rank()) {
    tile_syrk(ajk.dense(), c);
    return;
  }
  // C - (U V^T)(U V^T)^T = C - U (V^T V) U^T: one r x r core product and
  // two skinny GEMMs; the diagonal tile itself always stays dense.
  const TlrTile& t = ajk.low_rank();
  if (t.rank() == 0) return;
  const Matrix<float> u = t.u_fp32();
  const Matrix<float> v = t.v_fp32();
  const Matrix<float> w = matmul(v, v, Trans::kTrans, Trans::kNoTrans);
  const Matrix<float> uw = matmul(u, w);
  PooledF32 cv(TilePool::global(), c.elements());
  c.decode_to(cv.data());
  gemm(Trans::kNoTrans, Trans::kTrans, c.rows(), c.cols(), t.rank(), -1.0f,
       uw.data(), uw.ld(), u.data(), u.ld(), 1.0f, cv.data(), c.rows());
  c.encode_from(cv.data(), c.rows());
}

void tlr_gemm(const TileSlot& aik, const TileSlot& ajk, TileSlot& cij,
              double tol, double max_rank_fraction) {
  const bool a_lr = aik.is_low_rank();
  const bool b_lr = ajk.is_low_rank();
  const bool c_lr = cij.is_low_rank();
  if (!a_lr && !b_lr && !c_lr) {
    tile_gemm(aik.dense(), ajk.dense(), cij.dense());
    return;
  }

  // Build the update A * B^T in factored form (pu, pv) without ever
  // forming the dense m x n product.
  Matrix<float> pu, pv;
  if (a_lr && b_lr) {
    const TlrTile& ta = aik.low_rank();
    const TlrTile& tb = ajk.low_rank();
    if (ta.rank() == 0 || tb.rank() == 0) return;
    // Ua (Va^T Vb) Ub^T — fold the core into whichever side keeps the
    // product at the smaller of the two ranks.
    const Matrix<float> w = matmul(ta.v_fp32(), tb.v_fp32(),
                                   Trans::kTrans, Trans::kNoTrans);
    if (ta.rank() <= tb.rank()) {
      pu = ta.u_fp32();
      pv = matmul(tb.u_fp32(), w, Trans::kNoTrans, Trans::kTrans);
    } else {
      pu = matmul(ta.u_fp32(), w);
      pv = tb.u_fp32();
    }
  } else if (a_lr) {
    const TlrTile& ta = aik.low_rank();
    if (ta.rank() == 0) return;
    pu = ta.u_fp32();
    pv = matmul(ajk.dense().to_fp32(), ta.v_fp32());
  } else if (b_lr) {
    const TlrTile& tb = ajk.low_rank();
    if (tb.rank() == 0) return;
    pu = matmul(aik.dense().to_fp32(), tb.v_fp32());
    pv = tb.u_fp32();
  } else {
    // Dense x dense hitting a low-rank C: the operand pair (A, B) is
    // itself a rank-k factored form of A * B^T.
    pu = aik.dense().to_fp32();
    pv = ajk.dense().to_fp32();
  }

  if (!c_lr) {
    apply_dense_update(cij.dense(), pu, pv);
    return;
  }

  // Low-rank accumulation: stack [Cu | -Pu][Cv | Pv]^T and re-compress at
  // the accumulation tolerance.
  const std::size_t m = cij.rows();
  const std::size_t n = cij.cols();
  const Precision prec = cij.low_rank().precision();
  const Matrix<float> x = hstack(cij.low_rank().u_fp32(), pu, -1.0f);
  const Matrix<float> y = hstack(cij.low_rank().v_fp32(), pv, 1.0f);
  LowRankFactor next = recompress_product(x, y, tol);
  static telemetry::Counter& recompressions =
      telemetry::MetricRegistry::global().counter("tlr.recompressions");
  recompressions.add(1);
  if (tlr_rank_admissible(next.rank(), m, n, max_rank_fraction)) {
    cij.set_low_rank(TlrTile(next.u, next.v, prec));
  } else {
    // Crossover: the accumulated rank no longer pays.  Reconstruct the
    // OLD tile exactly from its factors, then apply this update densely —
    // densification never truncates.
    static telemetry::Counter& densifications =
        telemetry::MetricRegistry::global().counter("tlr.densifications");
    densifications.add(1);
    cij.densify();
    apply_dense_update(cij.dense(), pu, pv);
  }
}

void tlr_gemm_rhs(const TileSlot& l, bool transpose, const float* xk,
                  std::size_t ldxk, float* xi, std::size_t ldxi,
                  std::size_t ncols) {
  if (!l.is_low_rank()) {
    tile_gemm_rhs(l.dense(), transpose, xk, ldxk, xi, ldxi, ncols);
    return;
  }
  const TlrTile& t = l.low_rank();
  if (t.rank() == 0) return;
  const Matrix<float> u = t.u_fp32();
  const Matrix<float> v = t.v_fp32();
  // Forward: X_i -= (U V^T) X_k; backward: X_i -= (U V^T)^T X_k — either
  // way a rank-r sandwich: tmp = inner^T X_k, X_i -= outer * tmp.
  const Matrix<float>& inner = transpose ? u : v;
  const Matrix<float>& outer = transpose ? v : u;
  Matrix<float> tmp(t.rank(), ncols);
  gemm(Trans::kTrans, Trans::kNoTrans, t.rank(), ncols, inner.rows(), 1.0f,
       inner.data(), inner.ld(), xk, ldxk, 0.0f, tmp.data(), tmp.ld());
  gemm(Trans::kNoTrans, Trans::kNoTrans, outer.rows(), ncols, t.rank(), -1.0f,
       outer.data(), outer.ld(), tmp.data(), tmp.ld(), 1.0f, xi, ldxi);
}

}  // namespace kgwas
