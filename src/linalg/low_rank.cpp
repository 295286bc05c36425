#include "linalg/low_rank.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "mpblas/blas.hpp"
#include "telemetry/metrics.hpp"

namespace kgwas {

namespace {

/// x . y over m entries with four accumulators in a fixed order: the same
/// bits on every call, and four independent add chains.
double dot4(const double* x, const double* y, std::size_t m) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  for (; i < m; ++i) s0 += x[i] * y[i];
  return (s0 + s1) + (s2 + s3);
}

}  // namespace

Svd jacobi_svd(const Matrix<float>& a, int max_sweeps) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  // Work on a double copy for Jacobi stability; outputs are FP32.
  Matrix<double> u = a.cast<double>();
  Matrix<double> v(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) v(j, j) = 1.0;
  const auto col = [&u, m](std::size_t j) { return u.data() + j * m; };

  // One-sided Jacobi: orthogonalize column pairs of U, accumulating the
  // rotations into V.  Converged when every pair is numerically
  // orthogonal relative to the column norms.
  const double eps = 1e-10;
  // Squared column norms, recomputed at each sweep start and carried
  // through each rotation by the exact update (app - t apq, aqq + t apq),
  // so a pair costs one dot product.  A sweep that rotates nothing ran
  // every test on fresh norms.
  std::vector<double> norm_sq(n);
  const auto refresh_norms = [&] {
    for (std::size_t j = 0; j < n; ++j) norm_sq[j] = dot4(col(j), col(j), m);
  };
  refresh_norms();
  // Columns whose squared norm collapses below roundoff of the dominant
  // column are numerically zero: rank-deficient and m < n inputs drive
  // n - rank columns there, and rotating them forever would exhaust the
  // sweep cap without converging (their norm products underflow any
  // threshold).  The drop floor is relative to the largest initial
  // column, so it scales with the input.
  double scale_sq = 0.0;
  for (std::size_t j = 0; j < n && std::isfinite(scale_sq); ++j) {
    // A NaN sum would vanish from std::max: keep it.
    scale_sq = std::isfinite(norm_sq[j]) ? std::max(scale_sq, norm_sq[j])
                                         : norm_sq[j];
  }
  if (!std::isfinite(scale_sq)) {
    // Sweeping a NaN or Inf only spreads it to every column until the
    // sweep cap, and NaN norms have no order to sort by.
    KGWAS_LOG_WARN("jacobi_svd: non-finite entry in the "
                   << m << "x" << n << " input; returning NaN factors");
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Svd out;
    out.u = Matrix<float>(m, n, nan);
    out.v = Matrix<float>(n, n, nan);
    out.sigma.assign(n, nan);
    return out;
  }
  const double drop = scale_sq * 1e-30;

  bool converged = (n <= 1);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (sweep > 0) refresh_norms();
    bool rotated = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double app = norm_sq[p], aqq = norm_sq[q];
        if (app <= drop || aqq <= drop) continue;
        const double apq = dot4(col(p), col(q), m);
        // Squared-product form of |apq| <= eps * sqrt(app * aqq): no
        // sqrt underflow for small-but-nonzero columns.
        if (apq * apq <= eps * eps * app * aqq) continue;
        rotated = true;
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        double* up = col(p);
        double* uq = col(q);
        for (std::size_t i = 0; i < m; ++i) {
          const double xp = up[i], xq = uq[i];
          up[i] = c * xp - s * xq;
          uq[i] = s * xp + c * xq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vp = v(i, p), vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
        norm_sq[p] = app - t * apq;
        norm_sq[q] = aqq + t * apq;
      }
    }
    if (!rotated) {
      converged = true;
      break;
    }
  }
  if (!converged) {
    KGWAS_LOG_WARN("jacobi_svd: " << max_sweeps
                                  << " sweeps exhausted before convergence ("
                                  << m << "x" << n
                                  << " input); singular values may carry "
                                     "extra error");
  }

  // Singular values = column norms of U; sort descending.
  refresh_norms();
  std::vector<double> norms(n);
  for (std::size_t j = 0; j < n; ++j) norms[j] = std::sqrt(norm_sq[j]);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return norms[x] > norms[y]; });

  Svd out;
  out.u = Matrix<float>(m, n);
  out.v = Matrix<float>(n, n);
  out.sigma.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = order[j];
    const double sigma = norms[src];
    out.sigma[j] = static_cast<float>(sigma);
    const double inv = sigma > 0.0 ? 1.0 / sigma : 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      out.u(i, j) = static_cast<float>(u(i, src) * inv);
    }
    for (std::size_t i = 0; i < n; ++i) {
      out.v(i, j) = static_cast<float>(v(i, src));
    }
  }
  return out;
}

namespace {

/// Count of sigma_i > tol * sigma_0 (sigma descending): the relative
/// truncation rule.  A zero (or NaN) sigma_0 keeps nothing.
std::size_t truncated_rank(const std::vector<float>& sigma, double tol) {
  const double sigma0 = sigma.empty() ? 0.0 : static_cast<double>(sigma[0]);
  std::size_t rank = 0;
  if (sigma0 > 0.0) {
    const double cutoff = tol * sigma0;
    while (rank < sigma.size() &&
           static_cast<double>(sigma[rank]) > cutoff) {
      ++rank;
    }
  }
  return rank;
}

}  // namespace

LowRankFactor truncate_svd(const Svd& svd, double tol, std::size_t m,
                           std::size_t n) {
  // Relative truncation: keep sigma_i > tol * sigma_0.  A numerically
  // zero input (sigma_0 == 0) keeps nothing — rank 0, factors with zero
  // columns — instead of fabricating a rank-1 factor from noise.
  const std::size_t rank = truncated_rank(svd.sigma, tol);

  LowRankFactor factor;
  factor.u = Matrix<float>(m, rank);
  factor.v = Matrix<float>(n, rank);
  for (std::size_t k = 0; k < rank; ++k) {
    for (std::size_t i = 0; i < m; ++i) {
      factor.u(i, k) = svd.u(i, k) * svd.sigma[k];
    }
    for (std::size_t i = 0; i < n; ++i) {
      factor.v(i, k) = svd.v(i, k);
    }
  }
  return factor;
}

LowRankFactor compress_block(const Matrix<float>& a, double tol) {
  return truncate_svd(jacobi_svd(a), tol, a.rows(), a.cols());
}

Matrix<float> reconstruct(const LowRankFactor& factor) {
  if (factor.rank() == 0) {
    return Matrix<float>(factor.u.rows(), factor.v.rows(), 0.0f);
  }
  return matmul(factor.u, factor.v, Trans::kNoTrans, Trans::kTrans);
}

namespace {

/// Applies H = I - tau v v^T (v zero above row k) to columns [j0, r) of
/// the m-row column-major w.  Four columns at a time: four independent
/// dot chains, each still summed in row order, so every column gets the
/// bits it would get alone.
void apply_reflector(const double* v, double tau, std::size_t k,
                     std::size_t m, double* w, std::size_t j0,
                     std::size_t r) {
  std::size_t j = j0;
  for (; j + 4 <= r; j += 4) {
    double* c0 = w + j * m;
    double* c1 = c0 + m;
    double* c2 = c1 + m;
    double* c3 = c2 + m;
    double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
    for (std::size_t i = k; i < m; ++i) {
      d0 += v[i] * c0[i];
      d1 += v[i] * c1[i];
      d2 += v[i] * c2[i];
      d3 += v[i] * c3[i];
    }
    const double s0 = tau * d0, s1 = tau * d1, s2 = tau * d2, s3 = tau * d3;
    for (std::size_t i = k; i < m; ++i) {
      c0[i] -= s0 * v[i];
      c1[i] -= s1 * v[i];
      c2[i] -= s2 * v[i];
      c3[i] -= s3 * v[i];
    }
  }
  for (; j < r; ++j) {
    double* c = w + j * m;
    double dot = 0.0;
    for (std::size_t i = k; i < m; ++i) dot += v[i] * c[i];
    const double scale = tau * dot;
    for (std::size_t i = k; i < m; ++i) c[i] -= scale * v[i];
  }
}

/// Thin Householder QR of an m x r matrix (m >= r): fills `q` (m x r,
/// orthonormal columns) and `r_out` (r x r upper triangular) with
/// a = q * r_out.  Double precision throughout — this runs inside the TLR
/// re-compression where the factor columns can be nearly dependent.
void thin_qr(const Matrix<double>& a, Matrix<double>& q,
             Matrix<double>& r_out) {
  const std::size_t m = a.rows();
  const std::size_t r = a.cols();
  Matrix<double> work = a;      // transformed into R's upper triangle
  Matrix<double> vs(m, r, 0.0); // Householder vectors, one per column
  std::vector<double> tau(r, 0.0);
  for (std::size_t k = 0; k < r; ++k) {
    double norm_sq = 0.0;
    for (std::size_t i = k; i < m; ++i) norm_sq += work(i, k) * work(i, k);
    const double norm = std::sqrt(norm_sq);
    if (norm == 0.0) continue;  // exactly dependent column: R(k,k) = 0
    // H = I - tau * v v^T maps the column onto alpha * e_k.
    const double alpha = work(k, k) >= 0.0 ? -norm : norm;
    const double v0 = work(k, k) - alpha;
    vs(k, k) = v0;
    double v_sq = v0 * v0;
    for (std::size_t i = k + 1; i < m; ++i) {
      vs(i, k) = work(i, k);
      v_sq += work(i, k) * work(i, k);
    }
    tau[k] = v_sq > 0.0 ? 2.0 / v_sq : 0.0;
    work(k, k) = alpha;
    for (std::size_t i = k + 1; i < m; ++i) work(i, k) = 0.0;
    apply_reflector(vs.data() + k * m, tau[k], k, m, work.data(), k + 1, r);
  }
  for (std::size_t j = 0; j < r; ++j) {
    for (std::size_t i = 0; i < r; ++i) {
      r_out(i, j) = i <= j ? work(i, j) : 0.0;
    }
  }
  // Accumulate Q = H_0 * H_1 * ... * H_{r-1} * [I_r; 0] by applying the
  // reflectors in reverse to the identity block.  H_k leaves columns
  // j < k alone: they are still e_j, zero from row k down.
  q = Matrix<double>(m, r, 0.0);
  for (std::size_t j = 0; j < r; ++j) q(j, j) = 1.0;
  for (std::size_t k = r; k-- > 0;) {
    if (tau[k] == 0.0) continue;
    apply_reflector(vs.data() + k * m, tau[k], k, m, q.data(), k, r);
  }
}

bool all_finite(const Matrix<float>& a) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a.data()[i])) return false;
  }
  return true;
}

// Randomized range finder constants.  None is a knob: the oversample and
// the power step fix the sketch's accuracy (one power step matched the
// Jacobi ranks to within one on Build kernels at tile 128), the probe
// count and steps fix the certification's cost.
constexpr std::size_t kOversample = 16;
constexpr std::size_t kExactMaxDim = 32;  ///< tiles this small: full Jacobi
constexpr std::size_t kProbes = 4;
constexpr int kCertifySteps = 3;

/// Gaussian rows x cols matrix drawn from `rng`.
Matrix<float> gaussian(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix<float> g(rows, cols);
  for (std::size_t i = 0; i < g.size(); ++i) {
    g.data()[i] = static_cast<float>(rng.normal());
  }
  return g;
}

/// Orthonormal basis of the columns of y (thin FP64 Householder QR),
/// rounded to FP32 for the engine GEMMs.
Matrix<float> orthonormal_basis(const Matrix<float>& y) {
  Matrix<double> q, r(y.cols(), y.cols(), 0.0);
  thin_qr(y.cast<double>(), q, r);
  return q.cast<float>();
}

/// Scales every nonzero column of g to unit 2-norm.
void normalize_columns(Matrix<float>& g) {
  for (std::size_t c = 0; c < g.cols(); ++c) {
    double sum = 0.0;
    for (std::size_t i = 0; i < g.rows(); ++i) {
      sum += static_cast<double>(g(i, c)) * g(i, c);
    }
    if (!(sum > 0.0)) continue;
    const auto inv = static_cast<float>(1.0 / std::sqrt(sum));
    for (std::size_t i = 0; i < g.rows(); ++i) g(i, c) *= inv;
  }
}

/// Power estimate of ||R||_2 for the range finder's residual
/// R = A - Q B = (I - Q Q^T) A, with bt = B^T = A^T Q: kCertifySteps
/// products R g from the unit columns of `g`, each fed back as R^T R g,
/// all as engine GEMMs.  Returns the largest ||R g|| of the last step;
/// a lower bound that converges to ||R||_2 from below.  NaN when any
/// value went non-finite.
double residual_norm_estimate(const Matrix<float>& a, const Matrix<float>& q,
                              const Matrix<float>& bt, Matrix<float> g) {
  const std::size_t m = a.rows(), n = a.cols(), k = q.cols();
  const std::size_t p = g.cols();
  for (int step = 1;; ++step) {
    normalize_columns(g);
    // R g = A g - Q (B g).
    Matrix<float> x = matmul(a, g);
    const Matrix<float> bg = matmul(bt, g, Trans::kTrans);
    gemm(Trans::kNoTrans, Trans::kNoTrans, m, p, k, -1.0f, q.data(), q.ld(),
         bg.data(), bg.ld(), 1.0f, x.data(), x.ld());
    if (step == kCertifySteps) {
      double estimate = 0.0;
      for (std::size_t c = 0; c < p; ++c) {
        double sum = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          sum += static_cast<double>(x(i, c)) * x(i, c);
        }
        if (std::isnan(sum)) return sum;
        estimate = std::max(estimate, std::sqrt(sum));
      }
      return estimate;
    }
    // R^T x = A^T x - B^T (Q^T x).
    g = matmul(a, x, Trans::kTrans);
    const Matrix<float> qx = matmul(q, x, Trans::kTrans);
    gemm(Trans::kNoTrans, Trans::kNoTrans, n, p, k, -1.0f, bt.data(),
         bt.ld(), qx.data(), qx.ld(), 1.0f, g.data(), g.ld());
  }
}

/// Multiplies every entry of `m` by 2^e, in steps FP32 can represent:
/// exact unless an entry lands in the subnormal range.
void scale_by_pow2(Matrix<float>& m, int e) {
  while (e != 0) {
    const int step = std::clamp(e, -126, 127);
    const float factor = std::ldexp(1.0f, step);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] *= factor;
    e -= step;
  }
}

/// The e >= 1 that brings the largest magnitude of `a` into [1, 2) when it
/// is below 1, else 0 (a zero tile included).
int upscale_exponent(const Matrix<float>& a) {
  float largest = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    largest = std::max(largest, std::fabs(a.data()[i]));
  }
  if (!(largest > 0.0f) || largest >= 1.0f) return 0;
  int exponent = 0;
  std::frexp(largest, &exponent);  // largest = f * 2^exponent, f in [0.5, 1)
  return 1 - exponent;
}

/// The range finder's outcome on `a`: a certified factor; no factor when
/// the sampled rank exceeds `max_rank` (the tile stays dense); or, when
/// the sample went non-finite or failed certification, `certified` false
/// (the caller falls back to the full Jacobi).
struct Sketched {
  std::optional<LowRankFactor> factor;
  bool certified = true;
};

Sketched sketch_compress(const Matrix<float>& a, double tol,
                         std::size_t max_rank) {
  const std::size_t m = a.rows(), n = a.cols();
  const std::size_t k = max_rank + kOversample;
  // Seeded by the shape alone: the factor is a pure function of the
  // tile's values, whichever worker, rank or replay computes it.
  Rng rng(0x7a1e5ce7c4ull ^ (m << 40) ^ (n << 20) ^ k);
  const Matrix<float> omega = gaussian(n, k, rng);
  // Y = A Omega with one power step, orthonormalized after each product.
  const Matrix<float> q0 = orthonormal_basis(matmul(a, omega));
  const Matrix<float> p0 = orthonormal_basis(matmul(a, q0, Trans::kTrans));
  const Matrix<float> q = orthonormal_basis(matmul(a, p0));
  const Matrix<float> bt = matmul(a, q, Trans::kTrans);  // B^T, n x k
  Sketched out;
  if (!all_finite(bt)) {
    out.certified = false;
    return out;
  }
  // B^T = V S W^T, so A ~= Q B = (Q W S) V^T.
  const Svd svd = jacobi_svd(bt);
  const std::size_t rank = truncated_rank(svd.sigma, tol);
  if (rank > max_rank) return out;
  const double sigma0 = svd.sigma.empty() ? 0.0 : svd.sigma[0];
  // Written so that a NaN estimate fails.
  if (!(residual_norm_estimate(a, q, bt, gaussian(n, kProbes, rng)) <=
        tol * sigma0)) {
    out.certified = false;
    return out;
  }
  Matrix<float> ws(k, rank);
  LowRankFactor factor;
  factor.v = Matrix<float>(n, rank);
  for (std::size_t c = 0; c < rank; ++c) {
    for (std::size_t i = 0; i < k; ++i) ws(i, c) = svd.v(i, c) * svd.sigma[c];
    for (std::size_t i = 0; i < n; ++i) factor.v(i, c) = svd.u(i, c);
  }
  factor.u = rank > 0 ? matmul(q, ws) : Matrix<float>(m, 0);
  out.certified = all_finite(factor.u) && all_finite(factor.v);
  if (out.certified) out.factor = std::move(factor);
  return out;
}

}  // namespace

std::optional<LowRankFactor> compress_block(const Matrix<float>& a,
                                            double tol, std::size_t max_rank) {
  const std::size_t m = a.rows(), n = a.cols();
  if (!all_finite(a)) {
    KGWAS_LOG_WARN("TLR compression: the " << m << "x" << n
                   << " tile holds a NaN or Inf; keeping it dense");
    return std::nullopt;
  }
  const std::size_t small = std::min(m, n);
  if (small > kExactMaxDim && max_rank + kOversample <= small / 2) {
    // A tile of tiny entries (a far-off-diagonal kernel tile near 1e-15)
    // loses the FP32 sketch's residual estimate to underflow and fails
    // certification.  A tile whose largest magnitude is below 1 runs
    // scaled by the power of two that brings it into [1, 2), and U
    // unscales exactly: a power-of-two scale commutes with every rounding
    // on the way, so the factor is the unscaled run's wherever nothing
    // underflowed.  Only upward: a tile near the top of FP32's range
    // keeps failing into the Jacobi below.
    const int shift = upscale_exponent(a);
    Sketched sketched;
    if (shift == 0) {
      sketched = sketch_compress(a, tol, max_rank);
    } else {
      Matrix<float> scaled = a;
      scale_by_pow2(scaled, shift);
      sketched = sketch_compress(scaled, tol, max_rank);
      if (sketched.factor) scale_by_pow2(sketched.factor->u, -shift);
    }
    if (sketched.certified) return std::move(sketched.factor);
    static telemetry::Counter& fallbacks =
        telemetry::MetricRegistry::global().counter("tlr.compress_fallbacks");
    fallbacks.add(1);
    KGWAS_LOG_WARN("TLR compression: randomized range finder failed "
                   "certification on a "
                   << m << "x" << n << " tile at tol " << tol
                   << "; recompressing with the full Jacobi SVD");
  }
  LowRankFactor factor = compress_block(a, tol);
  if (factor.rank() > max_rank) return std::nullopt;
  return factor;
}

std::optional<LowRankFactor> recompress_product(const Matrix<float>& x,
                                                const Matrix<float>& y,
                                                double tol,
                                                std::size_t max_rank) {
  KGWAS_CHECK_ARG(x.cols() == y.cols(),
                  "recompress_product factor rank mismatch");
  const std::size_t m = x.rows();
  const std::size_t n = y.rows();
  const std::size_t r = x.cols();
  if (r == 0 || m == 0 || n == 0) {
    LowRankFactor zero;
    zero.u = Matrix<float>(m, 0);
    zero.v = Matrix<float>(n, 0);
    return zero;
  }
  if (!all_finite(x) || !all_finite(y)) {
    KGWAS_LOG_WARN("TLR recompression: the rank-" << r << " stack of the "
                   << m << "x" << n
                   << " tile holds a NaN or Inf; keeping it dense");
    return std::nullopt;
  }
  if (r >= std::min(m, n)) {
    // The stacked factor is as wide as the dense tile: QR of it is no
    // cheaper than compressing the dense product directly.
    return compress_block(matmul(x, y, Trans::kNoTrans, Trans::kTrans), tol,
                          max_rank);
  }

  Matrix<double> qx, rx(r, r, 0.0), qy, ry(r, r, 0.0);
  thin_qr(x.cast<double>(), qx, rx);
  thin_qr(y.cast<double>(), qy, ry);

  // Core = R_x * R_y^T (r x r); its SVD carries the spectrum of X * Y^T.
  Matrix<double> core(r, r, 0.0);
  gemm(Trans::kNoTrans, Trans::kTrans, r, r, r, 1.0, rx.data(), rx.ld(),
       ry.data(), ry.ld(), 0.0, core.data(), core.ld());
  const Svd core_svd = jacobi_svd(core.cast<float>());
  const std::size_t rank = truncated_rank(core_svd.sigma, tol);
  // A core that overflowed FP32 has NaN singular values (and rank 0): the
  // dense update must meet the overflow instead.
  if (rank > max_rank || std::isnan(core_svd.sigma[0])) return std::nullopt;

  // U = Q_x * (core.u * sigma), V = Q_y * core.v, on the FP32 engine.
  Matrix<float> us(r, rank), vc(r, rank);
  for (std::size_t k = 0; k < rank; ++k) {
    for (std::size_t j = 0; j < r; ++j) {
      us(j, k) = core_svd.u(j, k) * core_svd.sigma[k];
      vc(j, k) = core_svd.v(j, k);
    }
  }
  LowRankFactor out;
  out.u = rank > 0 ? matmul(qx.cast<float>(), us) : Matrix<float>(m, 0);
  out.v = rank > 0 ? matmul(qy.cast<float>(), vc) : Matrix<float>(n, 0);
  return out;
}

CompressionSurvey survey_low_rank(const SymmetricTileMatrix& matrix,
                                  double tol) {
  CompressionSurvey survey;
  const std::size_t nt = matrix.tile_count();
  std::size_t tiles = 0;
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj + 1; ti < nt; ++ti) {
      const Matrix<float> dense = matrix.tile(ti, tj).to_fp32();
      const LowRankFactor factor = compress_block(dense, tol);
      const Matrix<float> recon = reconstruct(factor);
      // Accumulate both the error and the tile norm in double and take
      // the square roots at the end: the reported error is relative to
      // the tile's Frobenius norm (scale-invariant admissibility data),
      // with a zero tile — rank 0, exact reconstruction — reporting 0.
      double err_sq = 0.0;
      double norm_sq = 0.0;
      for (std::size_t i = 0; i < dense.size(); ++i) {
        const double value = static_cast<double>(dense.data()[i]);
        const double d = value - static_cast<double>(recon.data()[i]);
        err_sq += d * d;
        norm_sq += value * value;
      }
      const double rel_err =
          norm_sq > 0.0 ? std::sqrt(err_sq / norm_sq) : 0.0;
      survey.max_error = std::max(survey.max_error, rel_err);
      survey.mean_rank += static_cast<double>(factor.rank());
      survey.max_rank =
          std::max(survey.max_rank, static_cast<double>(factor.rank()));
      survey.dense_bytes += dense.size() * sizeof(float);
      survey.compressed_bytes += factor.bytes();
      ++tiles;
    }
  }
  if (tiles > 0) survey.mean_rank /= static_cast<double>(tiles);
  return survey;
}

}  // namespace kgwas
