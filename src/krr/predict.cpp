#include "krr/predict.hpp"

#include <string>
#include <vector>

#include "common/status.hpp"
#include "linalg/tile_kernels.hpp"
#include "mpblas/kernels.hpp"
#include "mpblas/mixed.hpp"

namespace kgwas {

void predict_link(const Tile& tile, const Matrix<float>& weights,
                  std::size_t col, Matrix<float>& predictions,
                  std::size_t row) {
  mpblas::kernels::gemm_view(
      tile.rows(), weights.cols(), tile.cols(), 1.0f,
      tile_operand_view(tile, Trans::kNoTrans),
      mpblas::kernels::fp32_view(&weights(col, 0), weights.ld(),
                                 Trans::kNoTrans),
      1.0f, &predictions(row, 0), predictions.ld());
}

Matrix<float> predict_from_cross_kernel(Runtime& runtime,
                                        const TileMatrix& cross_kernel,
                                        const Matrix<float>& weights) {
  KGWAS_CHECK_ARG(cross_kernel.cols() == weights.rows(),
                  "cross kernel / weights dimension mismatch");
  Matrix<float> predictions(cross_kernel.rows(), weights.cols());
  const std::size_t ts = cross_kernel.tile_size();
  const std::size_t nrhs = weights.cols();

  // One handle per prediction row block; tile-column GEMMs accumulate
  // into it sequentially (runtime serializes via the ReadWrite chain).
  std::vector<DataHandle> handles(cross_kernel.tile_rows());
  for (std::size_t ti = 0; ti < cross_kernel.tile_rows(); ++ti) {
    handles[ti] = runtime.register_data();
  }
  for (std::size_t ti = 0; ti < cross_kernel.tile_rows(); ++ti) {
    for (std::size_t tj = 0; tj < cross_kernel.tile_cols(); ++tj) {
      // Each row block is a serial accumulation chain; prioritize the next
      // link of every chain over starting new trailing links so finished
      // row blocks retire early instead of all chains crawling in step.
      const Tile& tile = cross_kernel.tile(ti, tj);
      runtime.submit(
          TaskDesc{"predict_gemm",
                   {{handles[ti], Access::kReadWrite}},
                   static_cast<int>(cross_kernel.tile_cols() - tj),
                   gemm_op_count(tile.rows(), nrhs, tile.cols())},
          [&tile, &weights, &predictions, ti, tj, ts] {
            predict_link(tile, weights, tj * ts, predictions, ti * ts);
          });
    }
  }
  runtime.wait();
  return predictions;
}

}  // namespace kgwas
