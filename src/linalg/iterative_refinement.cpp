#include "linalg/iterative_refinement.hpp"

#include <cmath>
#include <optional>

#include "common/status.hpp"
#include "linalg/tiled_cholesky.hpp"
#include "mpblas/blas.hpp"

namespace kgwas {

RefinementResult solve_with_refinement(Runtime& runtime,
                                       const Matrix<double>& a,
                                       const Matrix<double>& b,
                                       std::size_t tile_size,
                                       const PrecisionMap& map,
                                       const RefinementOptions& options) {
  const std::size_t n = a.rows();
  KGWAS_CHECK_ARG(a.cols() == n, "matrix must be square");
  KGWAS_CHECK_ARG(b.rows() == n, "rhs rows mismatch");
  const std::size_t nrhs = b.cols();

  // Mixed-precision factorization of a tiled FP32 copy.  Under kEscalate
  // the pre-demotion tiles are kept as the rollback source, so promoted
  // tiles are re-encoded from the original values.
  SymmetricTileMatrix tiled(n, tile_size);
  tiled.from_dense(a.cast<float>());
  std::optional<SymmetricTileMatrix> source;
  if (options.on_breakdown == BreakdownAction::kEscalate) source = tiled;
  map.apply(tiled);
  RefinementResult result;
  FactorizationReport report;
  TiledPotrfOptions potrf_options;
  potrf_options.on_breakdown = options.on_breakdown;
  potrf_options.max_escalations = options.max_escalations;
  potrf_options.report = &report;
  potrf_options.source = source ? &*source : nullptr;
  tiled_potrf(runtime, tiled, potrf_options);
  result.map = report.final_map;
  result.escalations = report.escalations();

  const double a_norm = frobenius_norm(n, n, a.data(), a.ld());
  const double b_norm = frobenius_norm(n, nrhs, b.data(), b.ld());

  // Initial solve.
  Matrix<float> x = b.cast<float>();
  tiled_potrs(runtime, tiled, x);

  for (int iter = 0; iter <= options.max_iterations; ++iter) {
    // FP64 residual r = b - A x.
    Matrix<double> xd = x.cast<double>();
    Matrix<double> r = b;
    gemm(Trans::kNoTrans, Trans::kNoTrans, n, nrhs, n, -1.0, a.data(), a.ld(),
         xd.data(), xd.ld(), 1.0, r.data(), r.ld());

    const double r_norm = frobenius_norm(n, nrhs, r.data(), r.ld());
    const double x_norm = frobenius_norm(n, nrhs, xd.data(), xd.ld());
    // Standard normwise backward error: the ||b|| term keeps the measure
    // relative (never a bare absolute residual) even when x == 0, and a
    // zero system reports 0 rather than 0/0.
    const double denom = a_norm * x_norm + b_norm;
    result.final_residual = denom > 0.0 ? r_norm / denom : 0.0;
    result.iterations = iter;
    if (result.final_residual <= options.tolerance) {
      result.converged = true;
      break;
    }
    if (iter == options.max_iterations) break;

    // Correction solve in FP32 via the mixed factor, then update in FP64.
    Matrix<float> d = r.cast<float>();
    tiled_potrs(runtime, tiled, d);
    for (std::size_t j = 0; j < nrhs; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        xd(i, j) += static_cast<double>(d(i, j));
      }
    }
    x = xd.cast<float>();
  }
  result.x = std::move(x);
  return result;
}

}  // namespace kgwas
