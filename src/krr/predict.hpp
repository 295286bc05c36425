// Predict phase: Pr = K_test_train * W (paper Algorithm 4), computed as
// tiled FP32 GEMM tasks over the cross-kernel.
#pragma once

#include "mpblas/matrix.hpp"
#include "runtime/runtime.hpp"
#include "tile/tile_matrix.hpp"

namespace kgwas {

/// One link of a prediction row chain: rows [row, row + tile.rows()) of
/// `predictions` += tile * rows [col, col + tile.cols()) of `weights`.
/// The engine reads the tile at its storage precision.  The shared-memory
/// and the distributed Predict both run this body, so their predictions
/// agree bitwise.
void predict_link(const Tile& tile, const Matrix<float>& weights,
                  std::size_t col, Matrix<float>& predictions,
                  std::size_t row);

/// Multiplies a tiled cross-kernel (N_P2 x N_P1) by the weight matrix
/// (N_P1 x N_Ph), returning predictions (N_P2 x N_Ph).
Matrix<float> predict_from_cross_kernel(Runtime& runtime,
                                        const TileMatrix& cross_kernel,
                                        const Matrix<float>& weights);

}  // namespace kgwas
