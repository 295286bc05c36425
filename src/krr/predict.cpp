#include "krr/predict.hpp"

#include "linalg/tile_kernels.hpp"
#include "mpblas/kernels.hpp"

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
  Matrix<float> predictions(cross_kernel.rows(), weights.cols());
  submit_predict_rows(runtime, cross_kernel, weights, predictions,
                      [](std::size_t) { return true; });
  return predictions;
}

}  // namespace kgwas
