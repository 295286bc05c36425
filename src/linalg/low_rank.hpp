// Low-rank tile compression (paper Section VIII): "additional and
// potentially even greater data sparsity may be available from exploiting
// the smoothness of matrix tiles in the form of low-rank replacements of
// dense tiles" (the TLR/HiCMA direction of the authors' earlier Gordon
// Bell work).  This module supplies the numerical core of the TLR tile
// representation the tiled solvers consume (see tile/tlr_tile.hpp and
// linalg/tlr_kernels.hpp):
//
//  * truncated SVD of a tile via one-sided Jacobi, with a *relative*
//    truncation rule (keep sigma_i > tol * sigma_0) so the chosen rank is
//    invariant under scaling of the tile — a numerically zero tile
//    truncates to rank 0, not a fabricated rank 1;
//  * the TLR compressor, compress_block(a, tol, max_rank): for a tile
//    wider than 32 whose sample fits (k = max_rank + 16 <= min(m, n) / 2)
//    a randomized range finder (Halko, Martinsson & Tropp, SIAM Review
//    2011) replaces the full-tile Jacobi.  FP32 sketch and projection
//    GEMMs on the packed engine with one power step, FP64 Householder
//    orthonormalization, and Jacobi only on the n x k projection
//    B^T = A^T Q, truncated by the same relative rule.  A sampled rank
//    above the cap leaves the tile dense at once.  Every other result is
//    certified by a power estimate of ||(I - Q Q^T) A||_2 against
//    tol * sigma_0; a tile that fails (or yields a non-finite value) is
//    recompressed by the full Jacobi, with a warning and a
//    tlr.compress_fallbacks count.  The Gaussian test matrix is seeded by
//    the shape alone, so the factor is a pure function of the tile's
//    values on every worker, rank and replay;
//  * rank re-compression of an accumulated low-rank sum X * Y^T under the
//    same cap and contract, which is what keeps TLR Schur-complement
//    updates from growing their rank unboundedly: a stack narrower than
//    the tile never forms the dense product (thin QR of both factors +
//    SVD of the small core, output factors on the FP32 engine); a stack
//    as wide as the tile (a dense x dense update) compresses its FP32
//    product with the range finder above, which stops after its sample
//    when the rank is over the cap;
//  * a survey routine reporting scale-invariant (norm-relative) per-tile
//    reconstruction error and rank statistics — the admissibility data
//    that decides where TLR beats (or composes with) the mixed-precision
//    representation.
#pragma once

#include <cstddef>
#include <optional>

#include "mpblas/matrix.hpp"
#include "tile/tile_matrix.hpp"

namespace kgwas {

/// Thin SVD A = U diag(s) V^T of an m x n matrix (m >= n not required).
struct Svd {
  Matrix<float> u;             ///< m x r
  std::vector<float> sigma;    ///< r singular values, descending
  Matrix<float> v;             ///< n x r
};

/// One-sided Jacobi SVD (suitable for tile-sized problems).  `max_sweeps`
/// bounds the Jacobi iterations; tile-sized inputs converge well before.
/// Column norms are cached per sweep, so a column pair costs one dot
/// product.  The pairwise convergence test is relative to the column
/// norms and columns whose norm has collapsed below roundoff of the
/// dominant column are treated as converged (rank-deficient and m < n
/// inputs would otherwise spin on underflowed norm products until the
/// sweep cap).
/// Logs a warning if the cap is exhausted before convergence.  An input
/// holding a NaN or Inf has no SVD: it returns NaN factors and singular
/// values at once, with a warning.
Svd jacobi_svd(const Matrix<float>& a, int max_sweeps = 30);

/// Rank-k factorization A ~= U * V^T keeping singular values with
/// sigma_i > tol * sigma_0 (RELATIVE to the largest singular value, so
/// the rank decision is invariant under scaling of A).  U is m x k
/// (scaled by sigma), V is n x k.  A numerically zero input (sigma_0 == 0)
/// yields rank 0: both factors have zero columns and reconstruct() is the
/// zero matrix.
struct LowRankFactor {
  Matrix<float> u;
  Matrix<float> v;
  std::size_t rank() const { return u.cols(); }
  std::size_t bytes() const {
    return (u.size() + v.size()) * sizeof(float);
  }
};
LowRankFactor truncate_svd(const Svd& svd, double tol, std::size_t m,
                           std::size_t n);

/// Convenience: compress a dense block at the given relative tolerance
/// (full Jacobi SVD, no rank cap).
LowRankFactor compress_block(const Matrix<float>& a, double tol);

/// The TLR compressor: the factor of `a` at relative tolerance `tol`, or
/// nullopt when its rank exceeds `max_rank` (the admissibility cap, see
/// tlr_max_rank) or `a` holds a NaN or Inf (with a warning: the tile must
/// stay dense so the factorization meets the value, as the dense path
/// does).  Tiles wider than 32 whose sample k = max_rank + 16 fits in
/// min(m, n) / 2 take the certified randomized range finder described
/// above; the rest, and every tile that fails certification, take
/// truncate_svd(jacobi_svd(a)).
std::optional<LowRankFactor> compress_block(const Matrix<float>& a,
                                            double tol, std::size_t max_rank);

/// Reconstructs U * V^T.
Matrix<float> reconstruct(const LowRankFactor& factor);

/// The TLR rank re-compression step applied after a low-rank Schur update
/// stacks factor columns: the factor of the product X * Y^T (X m x r,
/// Y n x r) at relative tolerance `tol`, with compress_block's contract —
/// nullopt when its rank exceeds `max_rank` or the stack holds a NaN or
/// Inf (with a warning), so the caller keeps the tile dense.  A narrow
/// stack (r < min(m, n)) is never formed densely: thin FP64 QR of both
/// factors, Jacobi SVD of the r x r core R_x * R_y^T, relative-tol
/// truncation (same semantics as truncate_svd), and the output factors as
/// FP32 engine GEMMs.  A stack as wide as the tile is no compression: its
/// FP32 product goes to compress_block(·, tol, max_rank).
std::optional<LowRankFactor> recompress_product(const Matrix<float>& x,
                                                const Matrix<float>& y,
                                                double tol,
                                                std::size_t max_rank);

/// Surveys the off-diagonal tiles of a symmetric tiled matrix: average
/// numerical rank at `tol`, compressed vs dense bytes, max reconstruction
/// error — the admissibility data for the TLR representation.
struct CompressionSurvey {
  double mean_rank = 0.0;
  double max_rank = 0.0;
  std::size_t dense_bytes = 0;
  std::size_t compressed_bytes = 0;
  /// Max per-tile Frobenius reconstruction error RELATIVE to the tile's
  /// Frobenius norm (a zero tile reports 0), so the admissibility
  /// decision is invariant under scaling of the kernel matrix.
  double max_error = 0.0;
};
CompressionSurvey survey_low_rank(const SymmetricTileMatrix& matrix,
                                  double tol);

}  // namespace kgwas
