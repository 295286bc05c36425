// High-level end-to-end KRR GWAS model (paper Algorithm 1): Build ->
// Associate -> Predict behind a two-call fit/predict API.  This is the
// entry point example applications use.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "gwas/dataset.hpp"
#include "krr/associate.hpp"
#include "krr/build.hpp"
#include "mpblas/matrix.hpp"
#include "runtime/runtime.hpp"
#include "stats/metrics.hpp"

namespace kgwas {

struct KrrConfig {
  BuildConfig build{};
  AssociateConfig associate{};
  /// When set, overrides build.gamma with the median heuristic scaled by
  /// this factor (gamma = factor / median squared distance).
  std::optional<double> auto_gamma_scale;
};

/// The Gaussian bandwidth a fit of `config` on `train_genotypes` uses —
/// KrrModel::fit and dist::run_dist_krr both call this: auto_gamma_scale
/// times the median heuristic (suggest_gamma) when set, else build.gamma.
double resolve_gamma(const KrrConfig& config,
                     const GenotypeMatrix& train_genotypes);

/// Per-phenotype prediction quality (the paper's reporting set).
struct PhenotypeMetrics {
  std::string name;
  double mspe = 0.0;
  double pearson = 0.0;
  double r2 = 0.0;
};

class KrrModel {
 public:
  /// Runs Build + Associate on the training cohort.  Keeps a copy of the
  /// training genotypes/confounders for later cross-kernel generation.
  void fit(Runtime& runtime, const GwasDataset& train,
           const KrrConfig& config = {});

  /// Runs Predict for a test cohort: builds the test x train cross-kernel
  /// and multiplies by the fitted weights.
  Matrix<float> predict(Runtime& runtime, const GwasDataset& test) const;

  const PrecisionMap& precision_map() const noexcept { return map_; }
  const Matrix<float>& weights() const noexcept { return weights_; }
  double gamma() const noexcept { return config_.build.gamma; }
  /// Storage of the factorized kernel vs. an all-FP32 factor (bytes).
  std::size_t factor_bytes() const noexcept { return factor_bytes_; }
  std::size_t fp32_bytes() const noexcept { return fp32_bytes_; }

 private:
  KrrConfig config_;
  GenotypeMatrix train_genotypes_;
  Matrix<float> train_confounders_;
  Matrix<float> weights_;
  PrecisionMap map_;
  std::size_t factor_bytes_ = 0;
  std::size_t fp32_bytes_ = 0;
};

/// Scores a prediction matrix against the truth panel.
std::vector<PhenotypeMetrics> evaluate_predictions(
    const Matrix<float>& truth, const Matrix<float>& predictions,
    const std::vector<std::string>& names);

}  // namespace kgwas
