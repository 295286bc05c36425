// Predict phase: Pr = K_test_train * W (paper Algorithm 4), computed as
// tiled FP32 GEMM tasks over the cross-kernel.  The row chains are
// written once (submit_predict_rows) over a tile store and a row
// ownership predicate: shared memory sums every row block, a rank of the
// distributed Predict (src/dist/dist_krr.hpp) the row blocks it stores.
#pragma once

#include "common/status.hpp"
#include "mpblas/matrix.hpp"
#include "mpblas/mixed.hpp"
#include "runtime/runtime.hpp"
#include "tile/tile_matrix.hpp"

namespace kgwas {

/// One link of a prediction row chain: rows [row, row + tile.rows()) of
/// `predictions` += tile * rows [col, col + tile.cols()) of `weights`.
/// The engine reads the tile at its storage precision.
void predict_link(const Tile& tile, const Matrix<float>& weights,
                  std::size_t col, Matrix<float>& predictions,
                  std::size_t row);

/// Accumulates prediction row block ti += sum over tj of
/// cross(ti, tj) * weights block tj for every row block `owns_row(ti)`
/// selects: one serial chain of "predict_gemm" tasks per row block, in
/// tile-column order, keyed on the block's first prediction element, then
/// waits.  Each chain's next link outranks the trailing links of the
/// others, so finished row blocks retire early.
template <class Tiles, class OwnsRow>
void submit_predict_rows(Runtime& runtime, const Tiles& cross,
                         const Matrix<float>& weights,
                         Matrix<float>& predictions, OwnsRow owns_row) {
  KGWAS_CHECK_ARG(cross.cols() == weights.rows(),
                  "cross kernel / weights dimension mismatch");
  KGWAS_CHECK_ARG(predictions.rows() == cross.rows() &&
                      predictions.cols() == weights.cols(),
                  "prediction matrix shape mismatch");
  const std::size_t ts = cross.tile_size();
  for (std::size_t ti = 0; ti < cross.tile_rows(); ++ti) {
    if (!owns_row(ti)) continue;
    const float* row = &predictions(ti * ts, 0);
    for (std::size_t tj = 0; tj < cross.tile_cols(); ++tj) {
      const Tile& tile = cross.tile(ti, tj);
      runtime.submit(
          TaskDesc{"predict_gemm",
                   {{row, Access::kReadWrite}},
                   static_cast<int>(cross.tile_cols() - tj),
                   gemm_op_count(tile.rows(), weights.cols(), tile.cols())},
          [&tile, &weights, &predictions, ti, tj, ts] {
            predict_link(tile, weights, tj * ts, predictions, ti * ts);
          });
    }
  }
  runtime.wait();
}

/// Multiplies a tiled cross-kernel (N_P2 x N_P1) by the weight matrix
/// (N_P1 x N_Ph), returning predictions (N_P2 x N_Ph).
Matrix<float> predict_from_cross_kernel(Runtime& runtime,
                                        const TileMatrix& cross_kernel,
                                        const Matrix<float>& weights);

}  // namespace kgwas
