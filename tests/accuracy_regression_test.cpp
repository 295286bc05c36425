// Seeded end-to-end accuracy regression tests.
//
// A fixed-seed cohort is pushed through KRR build/predict under (a) the
// FP32-adaptive precision policy and (b) an FP16-heavy band policy, and
// through mixed-precision iterative refinement.  MSPE and backward-error
// bounds are recorded from the seed implementation with ~25% headroom —
// tight enough that a silent numerical regression in the tile kernels
// (wrong decodes, re-quantization drift) trips them, loose enough that
// legitimate task-ordering noise does not (per-tile math is
// deterministic, so in practice results are bit-stable).
//
// Also asserts the TilePool acceptance invariant: repeated KRR solves
// allocate nothing once the pool is warm.
#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "gwas/cohort_simulator.hpp"
#include "gwas/dataset.hpp"
#include "gwas/phenotype.hpp"
#include "krr/model.hpp"
#include "linalg/iterative_refinement.hpp"
#include "linalg/precision_policy.hpp"
#include "runtime/runtime.hpp"
#include "stats/metrics.hpp"
#include "tile/tile_pool.hpp"

namespace kgwas {
namespace {

constexpr std::uint64_t kCohortSeed = 20260730;

GwasDataset regression_dataset() {
  CohortConfig cc;
  cc.n_patients = 320;
  cc.n_snps = 96;
  cc.n_populations = 4;
  cc.seed = kCohortSeed;
  Cohort cohort = simulate_cohort(cc);
  PhenotypeConfig pc;
  pc.n_causal = 24;
  pc.n_pairs = 24;
  pc.h2_additive = 0.3;
  pc.h2_epistatic = 0.5;
  pc.prevalence = 0.0;
  pc.seed = kCohortSeed + 1;
  PhenotypePanel panel = simulate_panel(cohort, {pc});
  return make_dataset(std::move(cohort), std::move(panel));
}

KrrConfig regression_config() {
  KrrConfig kc;
  kc.build.tile_size = 32;
  kc.auto_gamma_scale = 1.0;
  kc.associate.alpha = 0.2;
  return kc;
}

double fit_predict_mspe(const TrainTestSplit& split, const KrrConfig& kc,
                        Matrix<float>* predictions_out = nullptr) {
  Runtime rt(2);
  KrrModel model;
  model.fit(rt, split.train, kc);
  const Matrix<float> predictions = model.predict(rt, split.test);
  const std::span<const float> truth(&split.test.phenotypes(0, 0),
                                     split.test.patients());
  const std::span<const float> estimate(&predictions(0, 0),
                                        split.test.patients());
  if (predictions_out != nullptr) *predictions_out = predictions;
  return mspe(truth, estimate);
}

TEST(AccuracyRegression, Fp32AdaptiveMspeWithinRecordedTolerance) {
  const GwasDataset dataset = regression_dataset();
  const TrainTestSplit split = split_dataset(dataset, 0.8, 7);

  KrrConfig kc = regression_config();
  kc.associate.mode = PrecisionMode::kAdaptive;
  kc.associate.adaptive.available = {Precision::kFp16};

  const double observed = fit_predict_mspe(split, kc);
  RecordProperty("mspe_fp32_adaptive", std::to_string(observed));
  // Recorded from this implementation at PR 2: 0.51862.
  EXPECT_LT(observed, 0.65);
  EXPECT_GT(observed, 0.40);  // suspiciously low = test is broken
}

TEST(AccuracyRegression, Fp16HeavyBandMspeWithinRecordedTolerance) {
  const GwasDataset dataset = regression_dataset();
  const TrainTestSplit split = split_dataset(dataset, 0.8, 7);

  KrrConfig kc = regression_config();
  kc.associate.mode = PrecisionMode::kBand;
  kc.associate.band_fp32_fraction = 0.1;  // ~90% of off-diagonals FP16
  kc.associate.low_precision = Precision::kFp16;

  const double observed = fit_predict_mspe(split, kc);
  RecordProperty("mspe_fp16_band", std::to_string(observed));
  // Recorded from this implementation at PR 2: 0.51871.  The FP16-heavy
  // map must stay within a few percent of the adaptive result on this
  // well-conditioned cohort.
  EXPECT_LT(observed, 0.65);
  EXPECT_GT(observed, 0.40);
}

TEST(AccuracyRegression, RefinementBackwardErrorWithinTolerance) {
  // Mixed-precision factorization + FP64 residual correction must reach
  // the classical backward-error target under both precision maps.
  constexpr std::size_t kN = 192;
  constexpr std::size_t kTs = 32;
  Rng rng(kCohortSeed);
  Matrix<double> a(kN, kN);
  {
    Matrix<double> g(kN, kN);
    for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] = rng.normal();
    for (std::size_t j = 0; j < kN; ++j) {
      for (std::size_t i = 0; i < kN; ++i) {
        double sum = 0.0;
        for (std::size_t l = 0; l < kN; ++l) sum += g(i, l) * g(j, l);
        a(i, j) = sum / static_cast<double>(kN);
      }
      a(j, j) += 2.0;
    }
  }
  Matrix<double> b(kN, 2);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal();

  Runtime rt(2);
  RefinementOptions options;
  options.tolerance = 1e-6;

  // FP32-adaptive-style map: everything at working precision.
  {
    const PrecisionMap map(kN / kTs, Precision::kFp32);
    const RefinementResult result =
        solve_with_refinement(rt, a, b, kTs, map, options);
    RecordProperty("ir_fp32_residual", std::to_string(result.final_residual));
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.final_residual, options.tolerance);
    EXPECT_LE(result.iterations, 4);
  }
  // FP16-heavy map: all off-diagonal tiles FP16.
  {
    const PrecisionMap map =
        band_precision_map(kN / kTs, 0.0, Precision::kFp16);
    const RefinementResult result =
        solve_with_refinement(rt, a, b, kTs, map, options);
    RecordProperty("ir_fp16_residual", std::to_string(result.final_residual));
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.final_residual, options.tolerance);
    // Recorded: FP16 storage error needs a few extra sweeps but stays
    // well under the classical iteration cap.
    EXPECT_LE(result.iterations, 8);
  }
}

TEST(AccuracyRegression, RepeatedKrrSolvesHaveZeroSteadyStateAllocations) {
  // The acceptance invariant for the TilePool: once warm, a full
  // build/associate/predict sweep acquires every tile payload and every
  // kernel scratch buffer from the pool's free lists.  A single-worker
  // runtime keeps peak buffer demand deterministic across sweeps.
  if (!TilePool::caching_enabled()) {
    GTEST_SKIP() << "pool caching disabled under sanitizers";
  }
  const GwasDataset dataset = regression_dataset();
  const TrainTestSplit split = split_dataset(dataset, 0.8, 7);
  KrrConfig kc = regression_config();
  kc.associate.mode = PrecisionMode::kAdaptive;
  kc.associate.adaptive.available = {Precision::kFp16};

  Runtime rt(1);
  auto solve = [&] {
    KrrModel model;
    model.fit(rt, split.train, kc);
    const Matrix<float> predictions = model.predict(rt, split.test);
    ASSERT_GT(predictions.rows(), 0u);
  };

  // Two warm-up sweeps populate every size class the pipeline touches.
  solve();
  solve();
  const std::uint64_t warm = TilePool::global().stats().fresh_allocations;
  solve();
  solve();
  const std::uint64_t after = TilePool::global().stats().fresh_allocations;
  EXPECT_EQ(after, warm)
      << "repeated KRR solves must run with zero steady-state allocations "
         "from the tile pool";
}

}  // namespace
}  // namespace kgwas
