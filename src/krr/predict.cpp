#include "krr/predict.hpp"

#include <string>
#include <vector>

#include "common/status.hpp"
#include "linalg/tile_kernels.hpp"
#include "mpblas/batch.hpp"
#include "mpblas/kernels.hpp"
#include "mpblas/mixed.hpp"

namespace kgwas {

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
      // Links of *different* chains with the same tile shape are
      // independent and coalesce into batches.
      const Tile& tile = cross_kernel.tile(ti, tj);
      const BatchKey key{mpblas::batch::make_key(
          mpblas::batch::BatchOp::kPredict, tile.rows(), nrhs, tile.cols(),
          tile.precision(), Precision::kFp32, Precision::kFp32)};
      runtime.submit_batchable(
          TaskDesc{"predict_gemm",
                   {{handles[ti], Access::kReadWrite}},
                   static_cast<int>(cross_kernel.tile_cols() - tj),
                   gemm_op_count(tile.rows(), nrhs, tile.cols())},
          key, [&cross_kernel, &weights, &predictions, ti, tj, ts, nrhs] {
            const Tile& tile = cross_kernel.tile(ti, tj);
            // Decode-on-pack: the engine reads tile storage directly.
            // Inside a coalesced batch, links of different row chains
            // share a weights block — the scope packs it once per group.
            const auto wview = mpblas::kernels::fp32_view(
                &weights(tj * ts, 0), weights.ld(), Trans::kNoTrans);
            const mpblas::kernels::PackedB* shared_w = nullptr;
            if (auto* scope = mpblas::batch::BatchScope::current()) {
              shared_w = scope->packed_view_b(wview, tile.cols(), nrhs);
            }
            if (shared_w != nullptr) {
              mpblas::kernels::gemm_prepacked_b(
                  tile.rows(), nrhs, tile.cols(), 1.0f,
                  tile_operand_view(tile, Trans::kNoTrans), *shared_w, 1.0f,
                  &predictions(ti * ts, 0), predictions.ld());
            } else {
              mpblas::kernels::gemm_view(
                  tile.rows(), nrhs, tile.cols(), 1.0f,
                  tile_operand_view(tile, Trans::kNoTrans), wview, 1.0f,
                  &predictions(ti * ts, 0), predictions.ld());
            }
          });
    }
  }
  runtime.wait();
  return predictions;
}

}  // namespace kgwas
