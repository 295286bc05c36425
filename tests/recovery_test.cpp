// Breakdown-recovery regression tests (ctest label: recovery).
//
// Covers the structured task-failure contract of the runtime (a throwing
// task cancels the remaining DAG, the first error rethrows at the wait
// point, and the Runtime stays reusable), NumericalError global-offset
// correctness across tile boundaries, precision-escalating POTRF retry on
// the shared-memory and distributed paths (including bitwise rank
// invariance of the recovered factor), and the recovery diagnostics
// surfaced through FactorizationReport / AssociateResult / the profiler.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "dist/communicator.hpp"
#include "dist/dist_krr.hpp"
#include "dist/dist_tile_matrix.hpp"
#include "dist/process_grid.hpp"
#include "krr/associate.hpp"
#include "linalg/iterative_refinement.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tile_kernels.hpp"
#include "linalg/tiled_cholesky.hpp"
#include "mpblas/blas.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/json.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/trace.hpp"

namespace kgwas {
namespace {

using dist::Communicator;
using dist::run_ranks;

// ------------------------------------------------------------- fixtures

/// Near-singular RBF kernel over clustered 1-D points: within-cluster
/// correlations approach 1, so K + alpha*I has tiny lambda_min and an
/// over-aggressive fp8 map genuinely breaks the factorization while the
/// fp32 matrix stays comfortably SPD.
Matrix<float> clustered_kernel(std::size_t n, double alpha,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(i / 8) + 0.01 * rng.normal();
  }
  Matrix<float> a(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = x[i] - x[j];
      a(i, j) = static_cast<float>(std::exp(-0.5 * d * d));
    }
    a(j, j) += static_cast<float>(alpha);
  }
  return a;
}

/// The over-aggressive regime of the escalation tests: every off-diagonal
/// tile demoted to fp8 on a kernel whose lambda_min cannot absorb the
/// quantization — deterministic breakdown, deterministic recovery.
AssociateConfig aggressive_fp8_config() {
  AssociateConfig config;
  config.alpha = 0.02;
  config.mode = PrecisionMode::kBand;
  config.band_fp32_fraction = 0.0;
  config.low_precision = Precision::kFp8E4M3;
  config.max_escalations = 16;
  return config;
}

constexpr std::size_t kN = 72, kTs = 16;  // nt = 5, trailing tile of 8

double relative_diff(const Matrix<float>& a, const Matrix<float>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d =
        static_cast<double>(a.data()[i]) - static_cast<double>(b.data()[i]);
    num += d * d;
    den += static_cast<double>(b.data()[i]) * static_cast<double>(b.data()[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

// ------------------------------------- NumericalError offset correctness

TEST(BreakdownOffset, GlobalIndexCrossesTileBoundaries) {
  // Diagonal matrix with one negative entry: POTRF fails exactly at that
  // minor.  n = 40, ts = 16 -> tiles of 16/16/8; the failure sits in the
  // partial trailing tile (t = 2).
  const std::size_t n = 40, ts = 16;
  Matrix<float> a(n, n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = 1.0f;
  a(37, 37) = -1.0f;  // 1-based global minor 38
  SymmetricTileMatrix tiles(n, ts);
  tiles.from_dense(a);
  Runtime rt(2);
  try {
    tiled_potrf(rt, tiles);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.index(), 38);
    EXPECT_EQ(potrf_breakdown_tile(e.index(), ts, tiles.tile_count()), 2u);
  }
}

TEST(BreakdownOffset, GlobalIndexInMiddleTile) {
  const std::size_t n = 48, ts = 16;
  Matrix<float> a(n, n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = 1.0f;
  a(16, 16) = -4.0f;  // first minor of tile 1 -> global 17
  SymmetricTileMatrix tiles(n, ts);
  tiles.from_dense(a);
  Runtime rt(2);
  try {
    tiled_potrf(rt, tiles);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.index(), 17);
    EXPECT_EQ(potrf_breakdown_tile(e.index(), ts, tiles.tile_count()), 1u);
  }
}

// ------------------------------------------- runtime failure propagation

TEST(RuntimeRecovery, ThrowingTaskCancelsDependents) {
  Runtime rt(4, /*enable_profiling=*/true);
  const int datum = 0;
  std::atomic<bool> dependent_ran{false};
  rt.submit({"boom", {{&datum, Access::kWrite}}},
            [] { throw NumericalError("synthetic", 1); });
  rt.submit(TaskDesc{"dependent", {{&datum, Access::kRead}}, 0,
                     /*flops=*/1e9},
            [&] { dependent_ran = true; });
  EXPECT_THROW(rt.wait(), NumericalError);
  EXPECT_FALSE(dependent_ran.load());  // never ran on garbage
  EXPECT_GE(rt.tasks_cancelled(), 1u);
  // A skipped body leaves no span: its declared FLOPs never executed,
  // so traces of cancelled attempts must not count them.
  EXPECT_EQ(rt.profiler().stats().count("dependent"), 0u);
}

TEST(RuntimeRecovery, RuntimeReusableAfterThrowingChain) {
  // submit -> throw -> wait rethrows -> submit again succeeds; the whole
  // sequence must drain promptly (no hang under the ctest timeout).
  Runtime rt(2);
  std::atomic<int> ran{0};
  rt.submit({"a", {{&ran, Access::kWrite}}}, [&] { ran.fetch_add(1); });
  rt.submit({"boom", {{&ran, Access::kReadWrite}}},
            [] { throw NumericalError("synthetic", 2); });
  for (int i = 0; i < 8; ++i) {
    rt.submit({"after", {{&ran, Access::kReadWrite}}},
              [&] { ran.fetch_add(1); });
  }
  EXPECT_THROW(rt.wait(), NumericalError);
  EXPECT_EQ(ran.load(), 1);  // only the pre-failure task ran
  // Reusable: a fresh graph over the same datum runs normally.
  std::atomic<int> again{0};
  rt.submit({"fresh", {{&ran, Access::kReadWrite}}}, [&] { again = 1; });
  rt.wait();
  EXPECT_EQ(again.load(), 1);
}

TEST(RuntimeRecovery, ExplicitCancelSkipsPendingWithoutError) {
  Runtime rt(2);
  std::atomic<int> ran{0};
  rt.submit({"canceller", {{&ran, Access::kWrite}}}, [&] { rt.cancel(); });
  for (int i = 0; i < 8; ++i) {
    rt.submit({"skipped", {{&ran, Access::kReadWrite}}},
              [&] { ran.fetch_add(1); });
  }
  rt.wait();  // no exception: explicit cancel records no error
  EXPECT_EQ(ran.load(), 0);
  // The flag clears at wait(): new work runs.
  rt.submit({"fresh", {{&ran, Access::kReadWrite}}},
            [&] { ran.fetch_add(1); });
  rt.wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(RuntimeRecovery, ErrorCallbackFiresOnceOnFirstError) {
  Runtime rt(2);
  std::atomic<int> fired{0};
  rt.set_error_callback([&](const std::exception_ptr&) { fired.fetch_add(1); });
  const int datum = 0;
  rt.submit({"boom1", {{&datum, Access::kWrite}}},
            [] { throw NumericalError("first", 1); });
  rt.submit({"boom2", {{&datum, Access::kReadWrite}}},
            [] { throw NumericalError("second", 2); });
  EXPECT_THROW(rt.wait(), NumericalError);
  EXPECT_EQ(fired.load(), 1);
  rt.set_error_callback(nullptr);
}

TEST(RuntimeRecovery, ExternalEventsCompleteUnderCancellation) {
  // A throwing task must not leave an external-event graph stuck: the
  // contract is that events are still signalled (here by the test,
  // standing in for the dist recovery protocol), dependents are skipped,
  // and wait() rethrows.
  Runtime rt(2);
  const int he = 0, hb = 0;
  ExternalEvent event = rt.submit_external(
      TaskDesc{"recv", {{&he, Access::kWrite}}, 0});
  std::atomic<bool> consumer_ran{false};
  rt.submit({"boom", {{&hb, Access::kWrite}}},
            [] { throw NumericalError("synthetic", 3); });
  // Ordered after the throwing task (Read on hb) so the skip is
  // deterministic; also gated on the external event like a dist consumer.
  rt.submit({"consumer", {{&he, Access::kRead}, {&hb, Access::kRead}}},
            [&] { consumer_ran = true; });
  rt.signal_external(event);
  EXPECT_THROW(rt.wait(), NumericalError);
  EXPECT_FALSE(consumer_ran.load());
}

// --------------------------------------------- shared-memory escalation

TEST(Escalation, ThrowModePropagatesBreakdown) {
  const Matrix<float> kd = clustered_kernel(kN, 0.02, 42);
  SymmetricTileMatrix k(kN, kTs);
  k.from_dense(kd);
  Matrix<float> ph(kN, 1, 1.0f);
  Runtime rt(2);
  AssociateConfig config = aggressive_fp8_config();
  config.on_breakdown = BreakdownAction::kThrow;
  EXPECT_THROW(associate(rt, k, ph, config), NumericalError);
  // The runtime survived the mid-DAG failure (contract check).
  std::atomic<int> ok{0};
  rt.submit({"fine", {{&ok, Access::kWrite}}}, [&] { ok = 1; });
  rt.wait();
  EXPECT_EQ(ok.load(), 1);
}

TEST(Escalation, RecoversAndMatchesFp32MapSolve) {
  const Matrix<float> kd = clustered_kernel(kN, 0.02, 42);
  Matrix<float> ph(kN, 2);
  Rng rng(7);
  for (std::size_t i = 0; i < ph.size(); ++i) {
    ph.data()[i] = static_cast<float>(rng.normal());
  }

  // Reference: the same associate under an all-fp32 map.
  AssociateConfig fp32_config;
  fp32_config.alpha = 0.02;
  fp32_config.mode = PrecisionMode::kFixed;
  SymmetricTileMatrix k_ref(kN, kTs);
  k_ref.from_dense(kd);
  Runtime rt(2);
  const AssociateResult ref = associate(rt, k_ref, ph, fp32_config);

  // Over-aggressive fp8 band map with escalation: must complete without
  // any exception reaching the caller.
  AssociateConfig config = aggressive_fp8_config();
  config.on_breakdown = BreakdownAction::kEscalate;
  SymmetricTileMatrix k(kN, kTs);
  k.from_dense(kd);
  const AssociateResult result = associate(rt, k, ph, config);

  EXPECT_TRUE(result.report.recovered);
  EXPECT_GE(result.report.escalations(), 1);
  EXPECT_EQ(result.report.attempts, result.report.escalations() + 1);
  EXPECT_GT(result.report.tiles_promoted, 0u);
  for (const EscalationRecord& ev : result.report.events) {
    EXPECT_GT(ev.failing_index, 0);
    EXPECT_LT(ev.failing_tile, result.map.tile_count());
    EXPECT_GT(ev.tiles_promoted, 0u);
  }
  // The final map is the escalated one: some tiles climbed off fp8.
  const auto histogram = result.map.histogram();
  EXPECT_GT(histogram.count(Precision::kFp16) ? histogram.at(Precision::kFp16)
                                              : 0u,
            0u);
  // Promoted storage costs more than the all-fp8 plan but less than fp32.
  EXPECT_LT(result.factor_bytes, ref.factor_bytes);

  // Recorded accuracy tolerances.  Forward error vs the fp32-map weights
  // is conditioning-limited (kappa ~ ||K||/alpha): un-promoted tiles stay
  // fp8, so the recorded envelope is fp8-level times the conditioning
  // (measured 0.31; ~2x margin for ISA/FMA variation).
  EXPECT_LT(relative_diff(result.weights, ref.weights), 0.6);
  // The sharp check is the normwise backward error of the escalated
  // solve against the true regularized kernel: fp8 storage roundoff
  // (u ~ 6e-2) bounds it regardless of conditioning (measured 2e-3).
  {
    Matrix<double> kreg = kd.cast<double>();
    for (std::size_t i = 0; i < kN; ++i) kreg(i, i) += 0.02;
    Matrix<double> r = ph.cast<double>();
    const Matrix<double> wd = result.weights.cast<double>();
    gemm(Trans::kNoTrans, Trans::kNoTrans, kN, r.cols(), kN, -1.0,
         kreg.data(), kreg.ld(), wd.data(), wd.ld(), 1.0, r.data(), r.ld());
    const double rn = frobenius_norm(r.rows(), r.cols(), r.data(), r.ld());
    const double an =
        frobenius_norm(kN, kN, kreg.data(), kreg.ld());
    const double xn = frobenius_norm(wd.rows(), wd.cols(), wd.data(), wd.ld());
    const double bn = frobenius_norm(kN, r.cols(), ph.cast<double>().data(),
                                     static_cast<std::size_t>(kN));
    EXPECT_LT(rn / (an * xn + bn), 0.05);
  }

  // Recovery counters reached the profiler.
  const RecoveryStats stats = rt.profiler().recovery_stats();
  EXPECT_GE(stats.escalations, 1u);
  EXPECT_GE(stats.attempts, stats.factorizations);
}

TEST(Escalation, GenuinelyIndefiniteMatrixStillThrows) {
  // Escalation must give up (rethrow the original NumericalError) when
  // the matrix is not SPD at working precision: nothing to promote.
  const std::size_t n = 32, ts = 8;
  Matrix<float> a(n, n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = 1.0f;
  a(20, 20) = -1.0f;
  SymmetricTileMatrix tiles(n, ts);
  tiles.from_dense(a);
  Runtime rt(2);
  TiledPotrfOptions options;
  options.on_breakdown = BreakdownAction::kEscalate;
  FactorizationReport report;
  options.report = &report;
  EXPECT_THROW(tiled_potrf(rt, tiles, options), NumericalError);
  EXPECT_FALSE(report.recovered);
}

TEST(Escalation, MaxEscalationsZeroRethrowsFirstBreakdown) {
  const Matrix<float> kd = clustered_kernel(kN, 0.02, 42);
  SymmetricTileMatrix source(kN, kTs);
  source.from_dense(kd);
  SymmetricTileMatrix tiles = source;
  PrecisionMap map =
      band_precision_map(tiles.tile_count(), 0.0, Precision::kFp8E4M3);
  map.apply(tiles);
  Runtime rt(2);
  TiledPotrfOptions options;
  options.on_breakdown = BreakdownAction::kEscalate;
  options.max_escalations = 0;
  options.source = &source;
  FactorizationReport report;
  options.report = &report;
  EXPECT_THROW(tiled_potrf(rt, tiles, options), NumericalError);
  EXPECT_EQ(report.attempts, 1);
}

TEST(Escalation, RefinementRecordsMapAndEscalations) {
  const Matrix<double> a = clustered_kernel(kN, 0.02, 42).cast<double>();
  Matrix<double> b(kN, 1, 1.0);
  PrecisionMap map =
      band_precision_map(kN / kTs + (kN % kTs != 0), 0.0,
                         Precision::kFp8E4M3);
  Runtime rt(2);
  RefinementOptions options;
  options.on_breakdown = BreakdownAction::kEscalate;
  options.max_escalations = 16;
  options.max_iterations = 2;  // diagnostics matter here, not convergence
  const RefinementResult result =
      solve_with_refinement(rt, a, b, kTs, map, options);
  EXPECT_GE(result.escalations, 1);
  EXPECT_EQ(result.map.tile_count(), map.tile_count());
  EXPECT_TRUE(std::isfinite(result.final_residual));
}

TEST(Escalation, BackwardErrorWellDefinedAtZeroSolution) {
  // b = 0 => x = 0; the backward-error denominator includes ||b||, so the
  // residual is exactly 0 (not the old absolute-residual fallback).
  const std::size_t n = 32;
  Matrix<double> a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = 2.0;
  Matrix<double> b(n, 1, 0.0);
  PrecisionMap map(n / 16, Precision::kFp32);
  Runtime rt(2);
  const RefinementResult result = solve_with_refinement(rt, a, b, 16, map);
  EXPECT_EQ(result.final_residual, 0.0);
  EXPECT_TRUE(result.converged);
}

// ------------------------------------------------- distributed recovery

TEST(DistRecovery, EscalationIsBitwiseRankInvariant) {
  const Matrix<float> kd = clustered_kernel(kN, 0.02, 42);
  Matrix<float> ph(kN, 2);
  Rng rng(7);
  for (std::size_t i = 0; i < ph.size(); ++i) {
    ph.data()[i] = static_cast<float>(rng.normal());
  }
  AssociateConfig config = aggressive_fp8_config();
  config.on_breakdown = BreakdownAction::kEscalate;

  // Shared-memory escalated associate is the reference.
  SymmetricTileMatrix k_ref(kN, kTs);
  k_ref.from_dense(kd);
  Runtime rt(2);
  const AssociateResult ref = associate(rt, k_ref, ph, config);
  ASSERT_TRUE(ref.report.recovered);

  std::vector<int> rank_counts{1, 2, 4};
  const int env_ranks = dist::configured_ranks();
  if (env_ranks > 1 && env_ranks != 2 && env_ranks != 4) {
    rank_counts.push_back(env_ranks);
  }
  for (const int ranks : rank_counts) {
    std::mutex mutex;
    std::vector<AssociateResult> results;
    run_ranks(ranks, [&](Communicator& comm) {
      Runtime rtd(1);
      const ProcessGrid grid(ranks);
      dist::DistSymmetricTileMatrix dk(kN, kTs, grid, comm.rank());
      SymmetricTileMatrix full(kN, kTs);
      full.from_dense(kd);
      dk.from_full(full);
      AssociateResult r = dist::dist_associate(rtd, comm, dk, ph, config);
      std::lock_guard<std::mutex> lock(mutex);
      results.push_back(std::move(r));
    });
    ASSERT_EQ(results.size(), static_cast<std::size_t>(ranks));
    for (const AssociateResult& r : results) {
      // Same escalation trajectory on every rank and every rank count...
      EXPECT_EQ(r.report.attempts, ref.report.attempts) << "ranks=" << ranks;
      EXPECT_EQ(r.report.tiles_promoted, ref.report.tiles_promoted)
          << "ranks=" << ranks;
      // ...and a bitwise identical recovered solve.
      ASSERT_EQ(r.weights.size(), ref.weights.size());
      EXPECT_EQ(std::memcmp(r.weights.data(), ref.weights.data(),
                            r.weights.size() * sizeof(float)),
                0)
          << "weights diverge at ranks=" << ranks;
    }
  }
}

TEST(DistRecovery, WorldRecordsOneFactorizationAtEveryRankCount) {
  // The RunReport's recovery block folds every rank's stream: a world
  // runs one factorization, whatever its rank count, on the clean, the
  // escalating and the throwing path.
  const Matrix<float> kd = clustered_kernel(kN, 0.02, 42);
  Matrix<float> ph(kN, 1, 1.0f);
  AssociateConfig clean;
  clean.alpha = 0.02;
  clean.mode = PrecisionMode::kFixed;
  AssociateConfig escalating = aggressive_fp8_config();
  escalating.on_breakdown = BreakdownAction::kEscalate;
  AssociateConfig throwing = aggressive_fp8_config();
  throwing.on_breakdown = BreakdownAction::kThrow;
  for (const AssociateConfig* config : {&clean, &escalating, &throwing}) {
    for (const int ranks : {1, 2, 4}) {
      std::vector<telemetry::TraceStream> streams(
          static_cast<std::size_t>(ranks));
      FactorizationReport report;
      run_ranks(ranks, [&](Communicator& comm) {
        Runtime rtd(1);
        const ProcessGrid grid(ranks);
        dist::DistSymmetricTileMatrix dk(kN, kTs, grid, comm.rank());
        SymmetricTileMatrix full(kN, kTs);
        full.from_dense(kd);
        dk.from_full(full);
        FactorizationReport mine;
        try {
          mine = dist::dist_associate(rtd, comm, dk, ph, *config).report;
        } catch (const NumericalError&) {
          mine.attempts = 1;  // kThrow: the first attempt broke down
        }
        streams[static_cast<std::size_t>(comm.rank())] =
            telemetry::capture_stream(comm.rank(), rtd.profiler());
        if (comm.rank() == 0) report = std::move(mine);
      });
      telemetry::RunReportInputs inputs;
      inputs.phase = "dist_associate";
      inputs.ranks = ranks;
      inputs.streams = &streams;
      inputs.include_metrics = false;
      const telemetry::JsonValue recovery =
          telemetry::parse_json(telemetry::run_report_json(inputs))
              .at("recovery");
      const std::string label = "ranks=" + std::to_string(ranks) +
                                " attempts=" +
                                std::to_string(report.attempts);
      EXPECT_EQ(report.escalations() > 0, config == &escalating) << label;
      EXPECT_EQ(recovery.at("factorizations").number, 1.0) << label;
      EXPECT_EQ(recovery.at("attempts").number, report.attempts) << label;
      EXPECT_EQ(recovery.at("escalations").number, report.escalations())
          << label;
      EXPECT_EQ(recovery.at("tiles_promoted").number,
                static_cast<double>(report.tiles_promoted))
          << label;
    }
  }
}

TEST(DistRecovery, ThrowModePropagatesToEveryRankInsteadOfHanging) {
  const Matrix<float> kd = clustered_kernel(kN, 0.02, 42);
  Matrix<float> ph(kN, 1, 1.0f);
  AssociateConfig config = aggressive_fp8_config();
  config.on_breakdown = BreakdownAction::kThrow;
  for (const int ranks : {1, 2, 4}) {
    try {
      run_ranks(ranks, [&](Communicator& comm) {
        Runtime rtd(1);
        const ProcessGrid grid(ranks);
        dist::DistSymmetricTileMatrix dk(kN, kTs, grid, comm.rank());
        SymmetricTileMatrix full(kN, kTs);
        full.from_dense(kd);
        dk.from_full(full);
        dist::dist_associate(rtd, comm, dk, ph, config);
      });
      FAIL() << "expected NumericalError at ranks=" << ranks;
    } catch (const NumericalError& e) {
      EXPECT_GT(e.index(), 0) << "ranks=" << ranks;
    }
  }
}

TEST(DistRecovery, CommunicatorReusableAfterThrow) {
  // Structured propagation means every rank catches the same
  // NumericalError and can retry on the SAME world — the throw path
  // flushes stale wake-up/tile frames so the follow-up run (here with a
  // breakdown-free fp32 map, the "raise alpha and retry" pattern the
  // error message suggests) is clean.
  const Matrix<float> kd = clustered_kernel(kN, 0.02, 42);
  Matrix<float> ph(kN, 1, 1.0f);
  AssociateConfig broken = aggressive_fp8_config();
  broken.on_breakdown = BreakdownAction::kThrow;
  AssociateConfig fixed;
  fixed.alpha = 0.02;
  fixed.mode = PrecisionMode::kFixed;

  // Shared-memory reference for the retry's expected weights.
  SymmetricTileMatrix k_ref(kN, kTs);
  k_ref.from_dense(kd);
  Runtime rt(2);
  const AssociateResult ref = associate(rt, k_ref, ph, fixed);

  for (const int ranks : {2, 4}) {
    std::mutex mutex;
    std::vector<Matrix<float>> retried;
    run_ranks(ranks, [&](Communicator& comm) {
      Runtime rtd(1);
      const ProcessGrid grid(ranks);
      SymmetricTileMatrix full(kN, kTs);
      full.from_dense(kd);
      dist::DistSymmetricTileMatrix dk(kN, kTs, grid, comm.rank());
      dk.from_full(full);
      bool threw = false;
      try {
        dist::dist_associate(rtd, comm, dk, ph, broken);
      } catch (const NumericalError&) {
        threw = true;
      }
      EXPECT_TRUE(threw);
      // Retry on the same communicator and runtime.
      dist::DistSymmetricTileMatrix dk2(kN, kTs, grid, comm.rank());
      dk2.from_full(full);
      AssociateResult r = dist::dist_associate(rtd, comm, dk2, ph, fixed);
      std::lock_guard<std::mutex> lock(mutex);
      retried.push_back(std::move(r.weights));
    });
    for (const Matrix<float>& w : retried) {
      ASSERT_EQ(w.size(), ref.weights.size());
      EXPECT_EQ(std::memcmp(w.data(), ref.weights.data(),
                            w.size() * sizeof(float)),
                0)
          << "retry diverges at ranks=" << ranks;
    }
  }
}

}  // namespace
}  // namespace kgwas
