// Cross-module integration tests: end-to-end workflows that chain every
// substrate (simulator -> build -> adaptive associate -> predict ->
// metrics; runtime-parallel vs serial equivalence; factor reuse;
// privacy-style kernel-only pipeline equivalence).
#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "gwas/cohort_simulator.hpp"
#include "gwas/dataset.hpp"
#include "gwas/phenotype.hpp"
#include "krr/associate.hpp"
#include "krr/build.hpp"
#include "krr/model.hpp"
#include "krr/predict.hpp"
#include "runtime/runtime.hpp"
#include "stats/metrics.hpp"

namespace kgwas {
namespace {

GwasDataset small_epistatic_dataset(std::uint64_t seed) {
  CohortConfig cc;
  cc.n_patients = 320;
  cc.n_snps = 64;
  cc.n_populations = 3;
  cc.seed = seed;
  Cohort cohort = simulate_cohort(cc);
  PhenotypeConfig pc;
  pc.n_causal = 24;
  pc.n_pairs = 32;
  pc.h2_additive = 0.15;
  pc.h2_epistatic = 0.75;
  pc.prevalence = 0.0;
  pc.seed = seed + 1;
  PhenotypePanel panel = simulate_panel(cohort, {pc});
  return make_dataset(std::move(cohort), std::move(panel));
}

TEST(Integration, WorkerCountDoesNotChangeResults) {
  // The dataflow runtime must produce identical results with 1 and many
  // workers (scheduling nondeterminism never reorders dependent math).
  const GwasDataset dataset = small_epistatic_dataset(52);
  const TrainTestSplit split = split_dataset(dataset, 0.8, 3);
  KrrConfig kc;
  kc.build.tile_size = 32;
  kc.auto_gamma_scale = 1.0;
  kc.associate.alpha = 0.2;
  kc.associate.mode = PrecisionMode::kAdaptive;
  kc.associate.adaptive.available = {Precision::kFp16};

  Matrix<float> serial, parallel;
  {
    Runtime rt(1);
    KrrModel model;
    model.fit(rt, split.train, kc);
    serial = model.predict(rt, split.test);
  }
  {
    Runtime rt(8);
    KrrModel model;
    model.fit(rt, split.train, kc);
    parallel = model.predict(rt, split.test);
  }
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial.data()[i], parallel.data()[i]);
  }
}

TEST(Integration, FactorReuseAcrossPhenotypesMatchesSeparateSolves) {
  // One factorization with an N_Ph-wide RHS must equal per-phenotype
  // solves: the paper's multi-phenotype reuse claim.
  CohortConfig cc;
  cc.n_patients = 200;
  cc.n_snps = 48;
  cc.seed = 53;
  const Cohort cohort = simulate_cohort(cc);
  Runtime rt;
  BuildConfig bc;
  bc.tile_size = 32;
  bc.gamma = 0.02;

  Matrix<float> ph(200, 3);
  Rng rng(4);
  for (std::size_t i = 0; i < ph.size(); ++i) {
    ph.data()[i] = static_cast<float>(rng.normal());
  }
  AssociateConfig ac;
  ac.alpha = 0.4;
  ac.mode = PrecisionMode::kFixed;

  SymmetricTileMatrix k_all = build_kernel_matrix(
      rt, cohort.genotypes, Matrix<float>(200, 0), bc);
  const AssociateResult all = associate(rt, k_all, ph, ac);

  for (std::size_t col = 0; col < 3; ++col) {
    SymmetricTileMatrix k_one = build_kernel_matrix(
        rt, cohort.genotypes, Matrix<float>(200, 0), bc);
    Matrix<float> rhs(200, 1);
    for (std::size_t i = 0; i < 200; ++i) rhs(i, 0) = ph(i, col);
    const AssociateResult one = associate(rt, k_one, rhs, ac);
    for (std::size_t i = 0; i < 200; ++i) {
      ASSERT_EQ(all.weights(i, col), one.weights(i, 0)) << "col " << col;
    }
  }
}

TEST(Integration, KernelOnlyPipelineMatchesEndToEndModel) {
  // The privacy workflow: Associate+Predict on exported kernels equals
  // the all-local KrrModel exactly.
  const GwasDataset dataset = small_epistatic_dataset(54);
  const TrainTestSplit split = split_dataset(dataset, 0.8, 5);
  Runtime rt;
  BuildConfig bc;
  bc.tile_size = 32;
  bc.gamma = 0.015;
  AssociateConfig ac;
  ac.alpha = 0.3;
  ac.mode = PrecisionMode::kAdaptive;
  ac.adaptive.available = {Precision::kFp16};

  SymmetricTileMatrix k = build_kernel_matrix(
      rt, split.train.genotypes, split.train.confounders, bc);
  const TileMatrix kx = build_cross_kernel(
      rt, split.test.genotypes, split.test.confounders,
      split.train.genotypes, split.train.confounders, bc);
  const AssociateResult remote = associate(rt, k, split.train.phenotypes, ac);
  const Matrix<float> remote_pred =
      predict_from_cross_kernel(rt, kx, remote.weights);

  KrrModel local;
  KrrConfig kc;
  kc.build = bc;
  kc.associate = ac;
  local.fit(rt, split.train, kc);
  const Matrix<float> local_pred = local.predict(rt, split.test);
  for (std::size_t i = 0; i < remote_pred.size(); ++i) {
    ASSERT_EQ(remote_pred.data()[i], local_pred.data()[i]);
  }
}

TEST(Integration, IbsKernelDrivesEndToEndModel) {
  // The SKAT-style IBS kernel must run through the same pipeline.
  const GwasDataset dataset = small_epistatic_dataset(55);
  const TrainTestSplit split = split_dataset(dataset, 0.8, 6);
  Runtime rt;
  KrrConfig kc;
  kc.build.tile_size = 32;
  kc.build.kernel = KernelType::kIbs;
  kc.build.gamma = 1.0;  // unused by IBS
  kc.associate.alpha = 0.3;
  KrrModel model;
  model.fit(rt, split.train, kc);
  const Matrix<float> pred = model.predict(rt, split.test);
  const std::span<const float> truth(&split.test.phenotypes(0, 0),
                                     split.test.patients());
  const std::span<const float> yhat(&pred(0, 0), truth.size());
  // IBS similarity is a valid kernel on dosages: should carry real signal.
  EXPECT_GT(pearson(truth, yhat), 0.15);
}

}  // namespace
}  // namespace kgwas
