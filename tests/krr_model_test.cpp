// Integration tests for the Associate/Predict phases, the RR baseline and
// the end-to-end KrrModel — including the paper's central scientific
// claim at test scale: KRR captures epistasis that RR misses, and
// adaptive FP16 storage does not change that conclusion.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>

#include "gwas/cohort_simulator.hpp"
#include "gwas/dataset.hpp"
#include "gwas/phenotype.hpp"
#include "krr/associate.hpp"
#include "krr/build.hpp"
#include "krr/kernels.hpp"
#include "krr/model.hpp"
#include "krr/predict.hpp"
#include "krr/ridge.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tiled_cholesky.hpp"
#include "mpblas/blas.hpp"
#include "runtime/runtime.hpp"
#include "stats/metrics.hpp"
#include "telemetry/metrics.hpp"

namespace kgwas {
namespace {

/// Shared small epistatic dataset for the integration tests.
struct EpistaticFixtureData {
  GwasDataset dataset;
  TrainTestSplit split;
};

const EpistaticFixtureData& epistatic_data() {
  static const EpistaticFixtureData data = [] {
    // Operating point where Gaussian KRR visibly learns pairwise epistasis
    // at test scale: high causal density (the kernel distance must be
    // driven by causal coordinates) and enough training samples.
    CohortConfig cc;
    cc.n_patients = 900;
    cc.n_snps = 96;
    cc.n_populations = 4;
    cc.seed = 77;
    Cohort cohort = simulate_cohort(cc);
    PhenotypeConfig pc;
    pc.name = "epistatic";
    pc.n_causal = 48;
    pc.n_pairs = 72;
    pc.h2_additive = 0.10;
    pc.h2_epistatic = 0.80;
    pc.prevalence = 0.0;  // quantitative keeps the comparison sharp
    pc.seed = 5;
    PhenotypePanel panel = simulate_panel(cohort, {pc});
    EpistaticFixtureData out;
    out.dataset = make_dataset(std::move(cohort), std::move(panel));
    out.split = split_dataset(out.dataset, 0.8, 11);
    return out;
  }();
  return data;
}

KrrConfig default_krr_config() {
  KrrConfig config;
  config.build.tile_size = 64;
  config.build.gamma = 0.0;   // overridden below
  config.auto_gamma_scale = 1.0;
  config.associate.alpha = 0.1;
  config.associate.mode = PrecisionMode::kFixed;
  return config;
}

TEST(Associate, SolvesRegularizedSystem) {
  CohortConfig cc;
  cc.n_patients = 96;
  cc.n_snps = 120;
  const Cohort cohort = simulate_cohort(cc);
  BuildConfig bc;
  bc.gamma = 0.02;
  bc.tile_size = 32;
  Runtime rt(4);
  SymmetricTileMatrix k =
      build_kernel_matrix(rt, cohort.genotypes, Matrix<float>(96, 0), bc);
  const Matrix<float> k_dense = k.to_dense();  // before regularization

  Matrix<float> ph(96, 2);
  Rng rng(1);
  for (std::size_t i = 0; i < ph.size(); ++i) {
    ph.data()[i] = static_cast<float>(rng.normal());
  }
  AssociateConfig ac;
  ac.alpha = 0.3;
  ac.mode = PrecisionMode::kFixed;
  const AssociateResult result = associate(rt, k, ph, ac);

  // (K + alpha I) W == Ph.
  Matrix<float> reg = k_dense;
  for (std::size_t i = 0; i < 96; ++i) reg(i, i) += 0.3f;
  Matrix<float> reconstructed(96, 2, 0.0f);
  gemm(Trans::kNoTrans, Trans::kNoTrans, 96, 2, 96, 1.0f, reg.data(), reg.ld(),
       result.weights.data(), result.weights.ld(), 0.0f,
       reconstructed.data(), reconstructed.ld());
  for (std::size_t i = 0; i < ph.size(); ++i) {
    EXPECT_NEAR(reconstructed.data()[i], ph.data()[i], 5e-4);
  }
}

TEST(Associate, AdaptiveMapShrinksFootprint) {
  CohortConfig cc;
  cc.n_patients = 128;
  cc.n_snps = 96;
  const Cohort cohort = simulate_cohort(cc);
  BuildConfig bc;
  bc.gamma = 0.05;
  bc.tile_size = 32;
  Runtime rt(2);
  SymmetricTileMatrix k =
      build_kernel_matrix(rt, cohort.genotypes, Matrix<float>(128, 0), bc);
  Matrix<float> ph(128, 1, 1.0f);
  AssociateConfig ac;
  ac.alpha = 0.5;
  ac.mode = PrecisionMode::kAdaptive;
  ac.adaptive.epsilon = 2e-3;  // the FP16-admitting operating point
  ac.adaptive.available = {Precision::kFp16};
  const AssociateResult result = associate(rt, k, ph, ac);
  EXPECT_LT(result.factor_bytes, result.fp32_bytes);
  EXPECT_GT(result.map.off_diagonal_fraction(Precision::kFp16), 0.5);
}

TEST(Associate, PrepareTasksMatchSerialLayerCalls) {
  // associate() prepares the tiles as per-tile runtime tasks; pipebench's
  // traced reps replay the serial layer calls instead.  Both must factor
  // the same matrix — bitwise weights, the same map, footprint, TLR stats
  // and tlr.* counter deltas — for any worker count and breakdown mode.
  CohortConfig cc;
  cc.n_patients = 360;
  cc.n_snps = 64;
  cc.n_populations = 3;
  cc.seed = 5;
  const Cohort cohort = simulate_cohort(cc);
  const auto& g = cohort.genotypes.matrix();
  BuildConfig bc;
  bc.gamma = 0.5 * suggest_gamma(std::span<const std::int8_t>(g.data(),
                                                              g.size()),
                                 cc.n_patients, cc.n_snps);
  bc.tile_size = 64;
  Matrix<float> ph(cc.n_patients, 2);
  Rng rng(3);
  for (std::size_t i = 0; i < ph.size(); ++i) {
    ph.data()[i] = static_cast<float>(rng.normal());
  }
  telemetry::Counter& compressed =
      telemetry::MetricRegistry::global().counter("tlr.tiles_compressed");
  telemetry::Counter& dense =
      telemetry::MetricRegistry::global().counter("tlr.tiles_dense");

  for (const double tol : {0.0, 1e-2}) {
    for (const BreakdownAction action :
         {BreakdownAction::kThrow, BreakdownAction::kEscalate}) {
      for (const std::size_t workers : {1u, 4u}) {
        SCOPED_TRACE(testing::Message()
                     << "tol=" << tol << " escalate="
                     << (action == BreakdownAction::kEscalate)
                     << " workers=" << workers);
        Runtime rt(workers);
        const SymmetricTileMatrix kernel = build_kernel_matrix(
            rt, cohort.genotypes, Matrix<float>(cc.n_patients, 0), bc);
        AssociateConfig ac;
        ac.alpha = 1.0;
        ac.mode = PrecisionMode::kAdaptive;
        ac.adaptive.epsilon = 5e-4;  // a mixed FP32/FP16 map
        ac.adaptive.available = {Precision::kFp16};
        ac.tlr = TlrPolicy{};
        ac.tlr.tol = tol;
        ac.on_breakdown = action;

        // Serial reference: the layer calls pipebench replays.
        SymmetricTileMatrix ref = kernel;
        const std::uint64_t c0 = compressed.total();
        const std::uint64_t d0 = dense.total();
        add_diagonal(ref, static_cast<float>(ac.alpha));
        const PrecisionMap map = plan_precision_map(ref, ac);
        const SymmetricTileMatrix source = ref;  // pre-demotion rollback
        const TlrCompressionStats stats =
            plan_tlr_compression(ref, map, ac.tlr);
        map.apply(ref);
        const std::size_t factor_bytes = ref.storage_bytes();
        TiledPotrfOptions options;
        options.on_breakdown = action;
        if (action == BreakdownAction::kEscalate) options.source = &source;
        tiled_potrf(rt, ref, options);
        Matrix<float> weights = ph;
        tiled_potrs(rt, ref, weights);
        const std::uint64_t ref_compressed = compressed.total() - c0;
        const std::uint64_t ref_dense = dense.total() - d0;

        SymmetricTileMatrix k = kernel;
        const std::uint64_t c1 = compressed.total();
        const std::uint64_t d1 = dense.total();
        const AssociateResult result = associate(rt, k, ph, ac);
        EXPECT_EQ(compressed.total() - c1, ref_compressed);
        EXPECT_EQ(dense.total() - d1, ref_dense);

        EXPECT_EQ(std::memcmp(result.weights.data(), weights.data(),
                              weights.size() * sizeof(float)),
                  0);
        for (std::size_t tj = 0; tj < map.tile_count(); ++tj) {
          for (std::size_t ti = tj; ti < map.tile_count(); ++ti) {
            EXPECT_EQ(result.map.get(ti, tj), map.get(ti, tj));
          }
        }
        EXPECT_EQ(result.factor_bytes, factor_bytes);
        EXPECT_EQ(result.tlr.tiles_compressed, stats.tiles_compressed);
        EXPECT_EQ(result.tlr.tiles_dense, stats.tiles_dense);
        EXPECT_EQ(result.tlr.compressed_bytes, stats.compressed_bytes);
        EXPECT_EQ(result.tlr.dense_bytes, stats.dense_bytes);
        EXPECT_EQ(result.tlr.max_rank, stats.max_rank);
        EXPECT_EQ(result.tlr.mean_rank, stats.mean_rank);
        EXPECT_FALSE(result.report.recovered);

        // Fixture: the map mixes precisions, and at tol 1e-2 some tiles
        // compress while others stay dense.
        EXPECT_GT(map.off_diagonal_fraction(Precision::kFp16), 0.0);
        EXPECT_LT(map.off_diagonal_fraction(Precision::kFp16), 1.0);
        if (tol > 0.0) {
          EXPECT_GT(stats.tiles_compressed, 0u);
          EXPECT_GT(stats.tiles_dense, 0u);
          EXPECT_EQ(ref_compressed, stats.tiles_compressed);
          EXPECT_EQ(ref_dense, stats.tiles_dense);
        }
      }
    }
  }
}

TEST(Predict, CrossKernelTimesWeights) {
  Runtime rt(2);
  TileMatrix kx(5, 7, 3);
  Matrix<float> dense(5, 7);
  for (std::size_t j = 0; j < 7; ++j) {
    for (std::size_t i = 0; i < 5; ++i) {
      dense(i, j) = static_cast<float>(i + 10 * j);
    }
  }
  kx.from_dense(dense);
  Matrix<float> w(7, 2);
  for (std::size_t j = 0; j < 2; ++j) {
    for (std::size_t i = 0; i < 7; ++i) {
      w(i, j) = static_cast<float>(1 + i + j);
    }
  }
  const Matrix<float> pr = predict_from_cross_kernel(rt, kx, w);
  Matrix<float> expected(5, 2, 0.0f);
  gemm(Trans::kNoTrans, Trans::kNoTrans, 5, 2, 7, 1.0f, dense.data(),
       dense.ld(), w.data(), w.ld(), 0.0f, expected.data(), expected.ld());
  for (std::size_t i = 0; i < pr.size(); ++i) {
    EXPECT_FLOAT_EQ(pr.data()[i], expected.data()[i]);
  }
}

TEST(Ridge, RecoversPlantedLinearSignal) {
  const auto& fx = epistatic_data();
  // Build an *additive* phenotype on the same genotypes.
  CohortConfig cc;
  cc.n_patients = 560;
  cc.n_snps = 320;
  cc.seed = 77;
  Cohort cohort = simulate_cohort(cc);
  PhenotypeConfig pc;
  pc.h2_additive = 0.85;
  pc.h2_epistatic = 0.0;
  pc.prevalence = 0.0;
  pc.n_causal = 24;
  PhenotypePanel panel = simulate_panel(cohort, {pc});
  GwasDataset dataset = make_dataset(std::move(cohort), std::move(panel));
  (void)fx;
  const TrainTestSplit split = split_dataset(dataset, 0.8, 13);

  Runtime rt(4);
  RidgeModel model;
  RidgeConfig rc;
  rc.lambda = 50.0;
  rc.tile_size = 64;
  model.fit(rt, split.train, rc);
  const Matrix<float> pred = model.predict(split.test);
  const std::span<const float> truth(&split.test.phenotypes(0, 0),
                                     split.test.patients());
  const std::span<const float> yhat(&pred(0, 0), split.test.patients());
  EXPECT_GT(pearson(truth, yhat), 0.55);
}

TEST(Ridge, MultiPhenotypeOneFactorization) {
  const auto& fx = epistatic_data();
  Runtime rt(4);
  RidgeModel model;
  RidgeConfig rc;
  rc.lambda = 40.0;
  rc.tile_size = 64;
  model.fit(rt, fx.split.train, rc);
  const Matrix<float> pred = model.predict(fx.split.test);
  EXPECT_EQ(pred.rows(), fx.split.test.patients());
  EXPECT_EQ(pred.cols(), 1u);
}

// The paper's central claim, reproduced at test scale: on an
// epistasis-dominated trait, Gaussian KRR predicts far better than RR.
TEST(KrrVsRidge, KrrCapturesEpistasisRidgeMisses) {
  const auto& fx = epistatic_data();
  Runtime rt(4);

  RidgeModel ridge;
  RidgeConfig rc;
  rc.lambda = 40.0;
  rc.tile_size = 64;
  ridge.fit(rt, fx.split.train, rc);
  const Matrix<float> ridge_pred = ridge.predict(fx.split.test);

  KrrModel krr;
  krr.fit(rt, fx.split.train, default_krr_config());
  const Matrix<float> krr_pred = krr.predict(rt, fx.split.test);

  const std::size_t nt = fx.split.test.patients();
  const std::span<const float> truth(&fx.split.test.phenotypes(0, 0), nt);
  const double rho_ridge =
      pearson(truth, std::span<const float>(&ridge_pred(0, 0), nt));
  const double rho_krr =
      pearson(truth, std::span<const float>(&krr_pred(0, 0), nt));
  const double mspe_ridge =
      mspe(truth, std::span<const float>(&ridge_pred(0, 0), nt));
  const double mspe_krr =
      mspe(truth, std::span<const float>(&krr_pred(0, 0), nt));

  EXPECT_GT(rho_krr, rho_ridge + 0.15)
      << "KRR rho=" << rho_krr << " RR rho=" << rho_ridge;
  EXPECT_LT(mspe_krr, mspe_ridge);
  EXPECT_GT(rho_krr, 0.4);
}

// Adaptive FP16 must match the FP32 KRR conclusion (Fig. 5's last boxes).
TEST(KrrPrecision, AdaptiveFp16MatchesFp32Mspe) {
  const auto& fx = epistatic_data();
  Runtime rt(4);
  const std::size_t nt = fx.split.test.patients();
  const std::span<const float> truth(&fx.split.test.phenotypes(0, 0), nt);

  KrrConfig fp32 = default_krr_config();
  KrrModel model32;
  model32.fit(rt, fx.split.train, fp32);
  const Matrix<float> pred32 = model32.predict(rt, fx.split.test);
  const double mspe32 = mspe(truth, std::span<const float>(&pred32(0, 0), nt));

  KrrConfig fp16 = default_krr_config();
  fp16.associate.mode = PrecisionMode::kAdaptive;
  fp16.associate.adaptive.epsilon = 2e-3;  // admits FP16 off-diagonal tiles
  fp16.associate.adaptive.available = {Precision::kFp16};
  KrrModel model16;
  model16.fit(rt, fx.split.train, fp16);
  const Matrix<float> pred16 = model16.predict(rt, fx.split.test);
  const double mspe16 = mspe(truth, std::span<const float>(&pred16(0, 0), nt));

  EXPECT_NEAR(mspe16, mspe32, 0.05 * mspe32 + 1e-4);
  EXPECT_LT(model16.factor_bytes(), model16.fp32_bytes());
}

TEST(KrrModel, AutoGammaProducesReasonableBandwidth) {
  const auto& fx = epistatic_data();
  Runtime rt(2);
  KrrModel model;
  model.fit(rt, fx.split.train, default_krr_config());
  EXPECT_GT(model.gamma(), 0.0);
  EXPECT_LT(model.gamma(), 1.0);
}

TEST(KrrModel, PredictBeforeFitThrows) {
  Runtime rt(1);
  KrrModel model;
  const auto& fx = epistatic_data();
  EXPECT_THROW((void)model.predict(rt, fx.split.test), InvalidArgument);
}

TEST(EvaluatePredictions, ComputesAllMetrics) {
  Matrix<float> truth(4, 1), pred(4, 1);
  truth(0, 0) = 0.0f; truth(1, 0) = 1.0f; truth(2, 0) = 2.0f; truth(3, 0) = 3.0f;
  pred(0, 0) = 0.1f; pred(1, 0) = 0.9f; pred(2, 0) = 2.2f; pred(3, 0) = 2.8f;
  const auto metrics = evaluate_predictions(truth, pred, {"trait"});
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].name, "trait");
  EXPECT_GT(metrics[0].pearson, 0.98);
  EXPECT_LT(metrics[0].mspe, 0.05);
  EXPECT_GT(metrics[0].r2, 0.95);
}

}  // namespace
}  // namespace kgwas
