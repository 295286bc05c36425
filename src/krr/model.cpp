#include "krr/model.hpp"

#include <span>

#include "common/status.hpp"
#include "krr/predict.hpp"

namespace kgwas {

void KrrModel::fit(Runtime& runtime, const GwasDataset& train,
                   const KrrConfig& config) {
  config_ = config;
  config_.build.gamma = resolve_gamma(config, train.genotypes);
  train_genotypes_ = train.genotypes;
  train_confounders_ = train.confounders;

  SymmetricTileMatrix kernel = build_kernel_matrix(
      runtime, train_genotypes_, train_confounders_, config_.build);
  const AssociateResult result =
      associate(runtime, kernel, train.phenotypes, config_.associate);
  weights_ = result.weights;
  map_ = result.map;
  factor_bytes_ = result.factor_bytes;
  fp32_bytes_ = result.fp32_bytes;
}

Matrix<float> KrrModel::predict(Runtime& runtime,
                                const GwasDataset& test) const {
  KGWAS_CHECK_ARG(weights_.rows() == train_genotypes_.patients(),
                  "predict called before fit");
  const TileMatrix cross =
      build_cross_kernel(runtime, test.genotypes, test.confounders,
                         train_genotypes_, train_confounders_, config_.build);
  return predict_from_cross_kernel(runtime, cross, weights_);
}

double resolve_gamma(const KrrConfig& config,
                     const GenotypeMatrix& train_genotypes) {
  if (!config.auto_gamma_scale.has_value()) return config.build.gamma;
  const auto& g = train_genotypes.matrix();
  return *config.auto_gamma_scale *
         suggest_gamma(std::span<const std::int8_t>(g.data(), g.size()),
                       train_genotypes.patients(), train_genotypes.snps());
}

std::vector<PhenotypeMetrics> evaluate_predictions(
    const Matrix<float>& truth, const Matrix<float>& predictions,
    const std::vector<std::string>& names) {
  KGWAS_CHECK_ARG(truth.rows() == predictions.rows() &&
                      truth.cols() == predictions.cols(),
                  "truth/prediction shape mismatch");
  std::vector<PhenotypeMetrics> metrics;
  metrics.reserve(truth.cols());
  for (std::size_t ph = 0; ph < truth.cols(); ++ph) {
    PhenotypeMetrics m;
    m.name = ph < names.size() ? names[ph] : "phenotype_" + std::to_string(ph);
    const std::span<const float> y(&truth(0, ph), truth.rows());
    const std::span<const float> yhat(&predictions(0, ph), truth.rows());
    m.mspe = mspe(y, yhat);
    m.pearson = pearson(y, yhat);
    m.r2 = r_squared(y, yhat);
    metrics.push_back(std::move(m));
  }
  return metrics;
}

}  // namespace kgwas
