// Linear Ridge Regression baseline (paper §V-A, Eq. 1–2).
//
// beta = (X^T X + lambda I)^-1 X^T Y with X = [G | confounders].  The Gram
// matrix is assembled exactly as the paper's Fig. 2 mixed-precision SYRK:
// the SNP block G^T G runs on emulated INT8 tensor cores (exact INT32
// accumulation), the confounder blocks run in FP32, and column centering
// is applied afterwards as a rank-one downdate so the integer fast path is
// preserved.  The regularized Gram is then factorized by the same
// mixed-precision tiled Cholesky as the KRR Associate phase, which is how
// the band / adaptive precision sweeps of Fig. 5 apply to RR.
#pragma once

#include "gwas/dataset.hpp"
#include "krr/associate.hpp"
#include "mpblas/matrix.hpp"
#include "runtime/runtime.hpp"
#include "tile/precision_map.hpp"

namespace kgwas {

struct RidgeConfig {
  double lambda = 1.0;
  bool center = true;           ///< center predictor columns + phenotype
  std::size_t tile_size = 256;
  PrecisionMode mode = PrecisionMode::kFixed;
  double band_fp32_fraction = 1.0;
  Precision low_precision = Precision::kFp16;
  AdaptivePolicy adaptive{};
};

class RidgeModel {
 public:
  /// Fits all phenotype columns at once (one factorization, many RHS).
  void fit(Runtime& runtime, const GwasDataset& train,
           const RidgeConfig& config = {});

  /// Predicts the full phenotype panel for a test dataset.
  Matrix<float> predict(const GwasDataset& test) const;

  const PrecisionMap& precision_map() const noexcept { return map_; }

 private:
  RidgeConfig config_;
  Matrix<float> beta_;            ///< (N_S + C) x N_Ph
  std::vector<float> intercept_;  ///< per phenotype
  std::vector<float> column_mean_;///< predictor means used for centering
  PrecisionMap map_;
  std::size_t n_snps_ = 0;
  std::size_t n_confounders_ = 0;
};

}  // namespace kgwas
