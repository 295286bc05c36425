// Kernel-level microbenchmarks (google-benchmark): the mixed-precision
// GEMM/SYRK/POTRF tile kernels and the INT8 distance build.  These are
// the per-tile costs the performance model's efficiency constants stand
// in for on GPU hardware.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include <string>
#include <utility>

#include "common/rng.hpp"
#include "gwas/cohort_simulator.hpp"
#include "krr/build.hpp"
#include "linalg/low_rank.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tile_kernels.hpp"
#include "linalg/tiled_cholesky.hpp"
#include "precision/convert.hpp"
#include "mpblas/blas.hpp"
#include "mpblas/kernels.hpp"
#include "mpblas/mixed.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/metrics.hpp"
#include "tile/tile_matrix.hpp"

namespace kgwas {
namespace {

Matrix<float> random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<float> a(m, n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.normal());
  }
  return a;
}

void BM_GemmFp32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix<float> a = random_matrix(n, n, 1);
  const Matrix<float> b = random_matrix(n, n, 2);
  Matrix<float> c(n, n, 0.0f);
  for (auto _ : state) {
    gemm(Trans::kNoTrans, Trans::kTrans, n, n, n, 1.0f, a.data(), n, b.data(),
         n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmFp32)->Arg(64)->Arg(128)->Arg(256);

// TLR re-compression of one Schur stack X * Y^T at tile 128, tol 1e-2 and
// the default cap (rank 32): the layer every low-rank update of the TLR
// Cholesky runs, beside BM_GemmFp32.  The tiles come from a Gaussian
// kernel (bandwidth 0.15) over 384 random points in the unit square.  C
// is the best rank-32 factor of tile (2, 1), and the stack adds r - 32
// columns of the dense x dense update A20 * A10^T:
// X = [C_u | -A20(:, 0:r-32)], Y = [C_v | A10(:, 0:r-32)].  r = 50 is a
// narrow stack (two thin QRs and a 50 x 50 core SVD, rank 30 kept);
// r = 160 is the whole update, as wide as the tile (the range finder on
// the FP32 product, rank 15 kept).
void BM_RecompressProduct(benchmark::State& state) {
  const auto r = static_cast<std::size_t>(state.range(0));
  const std::size_t ts = 128, cap = 32;
  Rng rng(7);
  std::vector<double> px(3 * ts), py(3 * ts);
  for (std::size_t i = 0; i < 3 * ts; ++i) {
    px[i] = rng.uniform();
    py[i] = rng.uniform();
  }
  const auto tile = [&](std::size_t ti, std::size_t tj) {
    Matrix<float> t(ts, ts);
    for (std::size_t j = 0; j < ts; ++j) {
      for (std::size_t i = 0; i < ts; ++i) {
        const double dx = px[ti * ts + i] - px[tj * ts + j];
        const double dy = py[ti * ts + i] - py[tj * ts + j];
        t(i, j) = static_cast<float>(
            std::exp(-(dx * dx + dy * dy) / (2.0 * 0.15 * 0.15)));
      }
    }
    return t;
  };
  const LowRankFactor c = compress_block(tile(2, 1), 1e-4);
  const Matrix<float> a20 = tile(2, 0);
  const Matrix<float> a10 = tile(1, 0);
  Matrix<float> x(ts, r), y(ts, r);
  for (std::size_t j = 0; j < r; ++j) {
    for (std::size_t i = 0; i < ts; ++i) {
      x(i, j) = j < cap ? c.u(i, j) : -a20(i, j - cap);
      y(i, j) = j < cap ? c.v(i, j) : a10(i, j - cap);
    }
  }
  std::optional<LowRankFactor> factor;
  for (auto _ : state) {
    factor = recompress_product(x, y, 1e-2, cap);
    benchmark::DoNotOptimize(factor);
  }
  // The kept rank; -1 when the stack is over the cap and stays dense.
  state.counters["rank"] = factor ? static_cast<double>(factor->rank()) : -1.0;
}
BENCHMARK(BM_RecompressProduct)
    ->Arg(50)
    ->Arg(160)
    ->Unit(benchmark::kMillisecond);

// Packed cache-blocked engine vs the kgwas::reference triple loops,
// swept over tile size x operand storage precision.  The packed rows for
// fp16/fp8 storage pack (and decode) straight from storage bytes; the
// reference rows first decode the full operands into FP32 scratch, which
// is what the old mixed-precision path always did.  CI runs this as
// BENCH_gemm.json (an uploaded artifact) so the kernel-level perf
// trajectory is tracked per commit.
void BM_GemmPackedVsReference(benchmark::State& state) {
  const auto ts = static_cast<std::size_t>(state.range(0));
  const auto precision = static_cast<Precision>(state.range(1));
  const bool packed = state.range(2) != 0;
  namespace kernels = mpblas::kernels;

  const Matrix<float> af = random_matrix(ts, ts, 41);
  const Matrix<float> bf = random_matrix(ts, ts, 42);
  Matrix<float> c(ts, ts, 0.0f);
  // Operands stored at `precision`, exactly as tiles hold them.
  std::vector<std::uint8_t> a_storage(ts * ts * bytes_per_element(precision));
  std::vector<std::uint8_t> b_storage(ts * ts * bytes_per_element(precision));
  quantize_buffer(precision, af.data(), a_storage.data(), ts * ts);
  quantize_buffer(precision, bf.data(), b_storage.data(), ts * ts);
  std::vector<float> a_scratch(ts * ts), b_scratch(ts * ts);

  for (auto _ : state) {
    if (precision == Precision::kFp32 && packed) {
      gemm(Trans::kNoTrans, Trans::kTrans, ts, ts, ts, 1.0f, af.data(), ts,
           bf.data(), ts, 0.0f, c.data(), ts);
    } else if (precision == Precision::kFp32) {
      reference::gemm(Trans::kNoTrans, Trans::kTrans, ts, ts, ts, 1.0f,
                      af.data(), ts, bf.data(), ts, 0.0f, c.data(), ts);
    } else if (packed) {
      // Decode-on-pack: no FP32 operand scratch.
      kernels::gemm_view(
          ts, ts, ts, 1.0f,
          {a_storage.data(), ts, Trans::kNoTrans, precision},
          {b_storage.data(), ts, Trans::kTrans, precision}, 0.0f, c.data(),
          ts);
    } else {
      // Reference: full-tile decode round-trip, then the scalar loops.
      dequantize_buffer(precision, a_storage.data(), a_scratch.data(),
                        ts * ts);
      dequantize_buffer(precision, b_storage.data(), b_scratch.data(),
                        ts * ts);
      reference::gemm(Trans::kNoTrans, Trans::kTrans, ts, ts, ts, 1.0f,
                      a_scratch.data(), ts, b_scratch.data(), ts, 0.0f,
                      c.data(), ts);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(std::string(packed ? "packed/" : "reference/") +
                 to_string(precision));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * ts * ts * ts));
}
BENCHMARK(BM_GemmPackedVsReference)
    ->Args({64, static_cast<long>(Precision::kFp32), 1})
    ->Args({64, static_cast<long>(Precision::kFp32), 0})
    ->Args({64, static_cast<long>(Precision::kFp16), 1})
    ->Args({64, static_cast<long>(Precision::kFp16), 0})
    ->Args({64, static_cast<long>(Precision::kFp8E4M3), 1})
    ->Args({64, static_cast<long>(Precision::kFp8E4M3), 0})
    ->Args({128, static_cast<long>(Precision::kFp32), 1})
    ->Args({128, static_cast<long>(Precision::kFp32), 0})
    ->Args({128, static_cast<long>(Precision::kFp16), 1})
    ->Args({128, static_cast<long>(Precision::kFp16), 0})
    ->Args({128, static_cast<long>(Precision::kFp8E4M3), 1})
    ->Args({128, static_cast<long>(Precision::kFp8E4M3), 0})
    ->Args({256, static_cast<long>(Precision::kFp32), 1})
    ->Args({256, static_cast<long>(Precision::kFp32), 0})
    ->Args({256, static_cast<long>(Precision::kFp16), 1})
    ->Args({256, static_cast<long>(Precision::kFp16), 0})
    ->Args({256, static_cast<long>(Precision::kFp8E4M3), 1})
    ->Args({256, static_cast<long>(Precision::kFp8E4M3), 0});

void BM_GemmTensorCoreEmulated(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto precision = static_cast<Precision>(state.range(1));
  const Matrix<float> a = random_matrix(n, n, 3);
  const Matrix<float> b = random_matrix(n, n, 4);
  Matrix<float> c(n, n, 0.0f);
  for (auto _ : state) {
    gemm_tc(precision, Trans::kNoTrans, Trans::kTrans, n, n, n, 1.0f, a.data(),
            n, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(to_string(precision));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmTensorCoreEmulated)
    ->Args({128, static_cast<long>(Precision::kFp16)})
    ->Args({128, static_cast<long>(Precision::kFp8E4M3)})
    ->Args({128, static_cast<long>(Precision::kBf16)});

// INT8 dosage SYRK (lower triangle of G G^T, the Build Gram): one
// engine row per variant the host can run (the avx512 row runs the
// AVX512-VNNI kernel where the CPU has it, the label names the INT8
// kernel) plus the kgwas::reference scalar loops.  items_per_second is
// MAC/s over the lower triangle, n (n + 1) / 2 * k MACs per call.  CI
// runs these rows into BENCH_gemm.json and BENCH_gemm_native.json.
void run_syrk_int8_row(benchmark::State& state,
                       std::optional<mpblas::kernels::Arch> arch,
                       std::size_t n, std::size_t k) {
  namespace kernels = mpblas::kernels;
  Rng rng(5);
  Matrix<std::int8_t> a(n, k);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<std::int8_t>(rng.uniform_index(3));
  }
  Matrix<std::int32_t> c(n, n, 0);
  if (arch) kernels::set_gemm_arch(*arch);
  for (auto _ : state) {
    if (arch) {
      syrk_i8_i32(Uplo::kLower, Trans::kNoTrans, n, k, 1, a.data(), n, 0,
                  c.data(), n);
    } else {
      reference::syrk_i8_i32(Uplo::kLower, Trans::kNoTrans, n, k, 1,
                             a.data(), n, 0, c.data(), n);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(arch ? std::string("variant/") + to_string(*arch) +
                            " int8/" + kernels::int8_kernel()
                      : std::string("reference"));
  if (arch) kernels::set_gemm_arch(std::nullopt);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * (n + 1) / 2 * k));
}

int register_syrk_int8_rows() {
  namespace kernels = mpblas::kernels;
  std::vector<std::pair<std::string, std::optional<kernels::Arch>>> rows{
      {"reference", std::nullopt}};
  for (const kernels::Arch arch : kernels::available_archs()) {
    rows.emplace_back(to_string(arch), arch);
  }
  for (const auto& [name, arch] : rows) {
    for (const std::size_t n : {std::size_t{128}, std::size_t{256}}) {
      const std::size_t k = 512;
      const std::string row = "BM_SyrkInt8_" + name + "/" +
                              std::to_string(n) + "/" + std::to_string(k);
      benchmark::RegisterBenchmark(
          row.c_str(), [arch = arch, n, k](benchmark::State& state) {
            run_syrk_int8_row(state, arch, n, k);
          });
    }
  }
  return 0;
}
const int g_syrk_int8_rows_registered = register_syrk_int8_rows();

void BM_PotrfFp32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix<float> spd(n, n, 0.0f);
  const Matrix<float> g = random_matrix(n, n, 6);
  syrk(Uplo::kLower, Trans::kNoTrans, n, n, 1.0f, g.data(), n, 0.0f,
       spd.data(), n);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<float>(n);
  // The factorization is in place: each iteration copies the input into
  // a preallocated buffer (an n^2 memcpy, no allocation) before factoring.
  Matrix<float> a(n, n);
  for (auto _ : state) {
    std::copy(spd.data(), spd.data() + spd.size(), a.data());
    const int info = potrf(Uplo::kLower, n, a.data(), n);
    benchmark::DoNotOptimize(info);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n / 3));
}
BENCHMARK(BM_PotrfFp32)->Arg(128)->Arg(256)->Arg(512);

void BM_KernelBuild(benchmark::State& state) {
  const auto np = static_cast<std::size_t>(state.range(0));
  const GenotypeMatrix g = simulate_random_genotypes(np, 256, 7);
  const Matrix<float> conf(np, 0);
  BuildConfig config;
  config.tile_size = 64;
  config.gamma = 0.01;
  Runtime rt;
  for (auto _ : state) {
    const SymmetricTileMatrix k = build_kernel_matrix(rt, g, conf, config);
    benchmark::DoNotOptimize(k.tile_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(np * np * 256 / 2));
}
// Real time: the build fans out over the runtime's workers, so the main
// thread's CPU time would undercount the wall time.
BENCHMARK(BM_KernelBuild)->Arg(256)->Arg(512)->UseRealTime();

// One Gaussian kernel tile at the solve_tall shape (256 x 256, 64 SNPs,
// 4 confounder columns, median-heuristic gamma) per variant the host can
// run, on the calling thread: one KernelTileGenerator::compute, i.e. the
// INT8 Gram, the FP32 confounder GEMM and the exact vector-exp epilogue.
// items_per_second is kernel entries/s; exp_fallbacks is the lanes per
// tile that fell back to std::exp.  CI runs these rows into
// BENCH_gemm.json and BENCH_gemm_native.json.
void run_kernel_tile_row(benchmark::State& state,
                         mpblas::kernels::Arch arch) {
  namespace kernels = mpblas::kernels;
  constexpr std::size_t kTile = 256;
  CohortConfig cc;
  cc.n_patients = 2 * kTile;
  cc.n_snps = 64;
  cc.n_populations = 6;
  cc.fst = 0.12;
  cc.ld_block_size = 16;
  cc.ld_rho = 0.6;
  cc.seed = 11;
  const Cohort cohort = simulate_cohort(cc);
  const auto& g = cohort.genotypes.matrix();
  BuildConfig config;
  config.tile_size = kTile;
  config.gamma = suggest_gamma(std::span<const std::int8_t>(g.data(), g.size()),
                               cc.n_patients, cc.n_snps);
  const KernelTileGenerator generator(cohort.genotypes, cohort.confounders,
                                      cohort.genotypes, cohort.confounders,
                                      config);
  Tile tile(kTile, kTile);
  telemetry::Counter& fallbacks =
      telemetry::MetricRegistry::global().counter("build.exp_fallbacks");
  kernels::set_gemm_arch(arch);
  const std::uint64_t before = fallbacks.total();
  for (auto _ : state) {
    generator.compute(kTile, 0, tile);
    benchmark::DoNotOptimize(tile.fp32_payload());
    benchmark::ClobberMemory();
  }
  kernels::set_gemm_arch(std::nullopt);
  state.SetLabel(std::string("variant/") + to_string(arch));
  state.counters["exp_fallbacks"] = benchmark::Counter(
      static_cast<double>(fallbacks.total() - before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTile * kTile));
}

int register_kernel_tile_rows() {
  for (const mpblas::kernels::Arch arch :
       mpblas::kernels::available_archs()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_KernelTile_") + to_string(arch)).c_str(),
        [arch](benchmark::State& state) { run_kernel_tile_row(state, arch); });
  }
  return 0;
}
const int g_kernel_tile_rows_registered = register_kernel_tile_rows();

// One task body of each Cholesky panel class at the pipeline's shapes
// and storage, per variant the host can run, on the calling thread:
// tile_potrf of a 256 x 256 FP32 diagonal tile, tile_trsm of an FP16
// off-diagonal tile against the factored diagonal tile, and tile_syrk of
// an FP16 panel tile into an FP32 diagonal tile.  The kernels work in
// place, so each iteration first restores the output tile by copy (one
// storage memcpy).  The `flops` rate counts the op count the runtime
// charges the task (potrf_op_count, trsm_op_count, syrk_op_count), so
// the rows read beside BM_GemmFp32/256 and runtime.class.<kind>.gflops.
// CI runs these rows into BENCH_gemm.json and BENCH_gemm_native.json.
enum class PanelKernel { kPotrf, kTrsm, kSyrk };

void run_tile_panel_row(benchmark::State& state, mpblas::kernels::Arch arch,
                        PanelKernel kind) {
  constexpr std::size_t kTile = 256;
  Matrix<float> spd(kTile, kTile, 0.0f);
  const Matrix<float> g = random_matrix(kTile, kTile, 12);
  syrk(Uplo::kLower, Trans::kNoTrans, kTile, kTile, 1.0f / kTile, g.data(),
       kTile, 0.0f, spd.data(), kTile);
  for (std::size_t j = 0; j < kTile; ++j) {
    spd(j, j) += 1.0f;
    for (std::size_t i = 0; i < j; ++i) spd(i, j) = spd(j, i);
  }
  Tile diag(kTile, kTile, Precision::kFp32);
  diag.from_fp32(spd);
  Tile factor = diag;
  tile_potrf(factor);
  Tile panel(kTile, kTile, Precision::kFp16);
  panel.from_fp32(random_matrix(kTile, kTile, 13));

  const Tile& input = kind == PanelKernel::kTrsm ? panel : diag;
  Tile out = input;
  mpblas::kernels::set_gemm_arch(arch);
  for (auto _ : state) {
    out = input;
    switch (kind) {
      case PanelKernel::kPotrf:
        tile_potrf(out);
        break;
      case PanelKernel::kTrsm:
        tile_trsm(factor, out);
        break;
      case PanelKernel::kSyrk:
        tile_syrk(panel, out);
        break;
    }
    benchmark::DoNotOptimize(out.raw());
    benchmark::ClobberMemory();
  }
  mpblas::kernels::set_gemm_arch(std::nullopt);
  const double flops = kind == PanelKernel::kPotrf ? potrf_op_count(kTile)
                       : kind == PanelKernel::kTrsm
                           ? trsm_op_count(kTile, kTile)
                           : syrk_op_count(kTile, kTile);
  state.SetLabel(std::string("variant/") + to_string(arch));
  state.counters["flops"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

int register_tile_panel_rows() {
  const std::pair<const char*, PanelKernel> kinds[] = {
      {"potrf", PanelKernel::kPotrf},
      {"trsm", PanelKernel::kTrsm},
      {"syrk", PanelKernel::kSyrk}};
  for (const mpblas::kernels::Arch arch :
       mpblas::kernels::available_archs()) {
    for (const auto& [name, kind] : kinds) {
      benchmark::RegisterBenchmark(
          (std::string("BM_TilePanel_") + to_string(arch) + "/" + name)
              .c_str(),
          [arch, kind = kind](benchmark::State& state) {
            run_tile_panel_row(state, arch, kind);
          })
          ->UseRealTime();
    }
  }
  return 0;
}
const int g_tile_panel_rows_registered = register_tile_panel_rows();

// Scheduler throughput: the full tiled POTRF DAG through the dataflow
// runtime's priority work-stealing scheduler.  Steal and queue-depth
// counters come from the runtime's profiler.
void BM_TiledPotrfSched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTileSize = 64;
  constexpr std::size_t kWorkers = 8;

  // Well-conditioned SPD input, rebuilt into tiles before every run
  // (the factorization is in place).
  Matrix<float> spd(n, n, 0.0f);
  const Matrix<float> g = random_matrix(n, n, 11);
  syrk(Uplo::kLower, Trans::kNoTrans, n, n, 1.0f, g.data(), n, 0.0f,
       spd.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    spd(i, i) += static_cast<float>(n);
    for (std::size_t j = i + 1; j < n; ++j) spd(i, j) = spd(j, i);
  }

  Runtime rt(kWorkers);
  SymmetricTileMatrix tiled(n, kTileSize);
  for (auto _ : state) {
    state.PauseTiming();
    tiled.from_dense(spd);
    state.ResumeTiming();
    tiled_potrf(rt, tiled);
  }

  const SchedulerStats sched = rt.profiler().scheduler_stats();
  // Steal totals accumulate across the whole run; report per iteration so
  // rows with different auto-chosen iteration counts stay comparable.
  state.counters["steals"] =
      benchmark::Counter(static_cast<double>(sched.tasks_stolen),
                         benchmark::Counter::kAvgIterations);
  state.counters["avg_queue_depth"] = sched.avg_queue_depth();
  state.counters["max_queue_depth"] =
      static_cast<double>(sched.max_queue_depth);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n / 3));
}
BENCHMARK(BM_TiledPotrfSched)->Arg(512)->Arg(1024)->UseRealTime();

// Telemetry record-path contention: every thread hammers Profiler::record
// and a registry counter/histogram the way busy scheduler workers do.
// Under the sharded designs both paths touch only thread-private state, so
// per-op real time should stay flat as the thread count grows — the old
// global-mutex profiler serialized all threads here and scaled linearly.
void BM_TelemetryRecordContended(benchmark::State& state) {
  static Profiler profiler(true);
  static telemetry::Counter& counter =
      telemetry::MetricRegistry::global().counter("bench.contended");
  static telemetry::Histogram& hist =
      telemetry::MetricRegistry::global().histogram("bench.contended_ns");
  if (state.thread_index() == 0) profiler.clear();
  TaskSpan span;
  span.name = "bench";
  span.worker = state.thread_index();
  std::uint64_t tick = 0;
  for (auto _ : state) {
    span.start_ns = tick;
    span.end_ns = tick + 100;
    profiler.record(span);
    counter.add(1);
    hist.record(tick & 0xFFF);
    ++tick;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryRecordContended)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// Breakdown-recovery overhead: factorize a near-singular clustered
/// kernel under an all-fp8 band map with escalation (arg = 1) vs the
/// same matrix under the recovered map directly (arg = 0, the
/// no-breakdown baseline).  The FactorizationReport counters land in the
/// bench JSON so the retry cost (attempts, escalations, tiles promoted)
/// is tracked across PRs.
void BM_PotrfEscalationRecovery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto tile_size = static_cast<std::size_t>(state.range(1));
  const bool escalating = state.range(2) != 0;

  // Clustered RBF kernel: near-duplicate points per 8-cluster make
  // lambda_min tiny, so the fp8 map deterministically breaks down.
  Rng rng(42);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(i / 8) + 0.01 * rng.normal();
  }
  Matrix<float> kernel(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = x[i] - x[j];
      kernel(i, j) = static_cast<float>(std::exp(-0.5 * d * d));
    }
    kernel(j, j) += 0.02f;
  }
  SymmetricTileMatrix source(n, tile_size);
  source.from_dense(kernel);
  const PrecisionMap fp8_map =
      band_precision_map(source.tile_count(), 0.0, Precision::kFp8E4M3);

  Runtime rt(4);
  // Discover the recovered map once; the baseline factors under it
  // directly (what an oracle precision policy would have planned).
  TiledPotrfOptions options;
  options.on_breakdown = BreakdownAction::kEscalate;
  options.max_escalations = 16;
  options.source = &source;
  FactorizationReport report;
  options.report = &report;
  SymmetricTileMatrix tiled = source;
  fp8_map.apply(tiled);
  tiled_potrf(rt, tiled, options);
  const PrecisionMap recovered_map = report.final_map;
  const PrecisionMap& start_map = escalating ? fp8_map : recovered_map;

  FactorizationReport last;
  options.report = &last;
  for (auto _ : state) {
    state.PauseTiming();
    tiled = source;
    start_map.apply(tiled);
    state.ResumeTiming();
    tiled_potrf(rt, tiled, options);
  }
  state.SetLabel(escalating ? "escalate" : "oracle-map");
  state.counters["attempts"] = static_cast<double>(last.attempts);
  state.counters["escalations"] = static_cast<double>(last.escalations());
  state.counters["tiles_promoted"] =
      static_cast<double>(last.tiles_promoted);
  const RecoveryStats recovery = rt.profiler().recovery_stats();
  state.counters["total_escalations"] =
      static_cast<double>(recovery.escalations);
}
BENCHMARK(BM_PotrfEscalationRecovery)
    ->Args({512, 32, 1})
    ->Args({512, 32, 0})
    ->ArgNames({"n", "ts", "escalate"})
    ->Unit(benchmark::kMillisecond);

// Per-variant rows, registered at startup for whatever variants this host
// can actually run, plus one row recording the engine's blocking.  The
// names share the BM_GemmPackedVsReference prefix so the CI
// BENCH_gemm.json filter picks them up alongside the packed-vs-reference
// sweep.
void run_variant_row(benchmark::State& state, mpblas::kernels::Arch arch,
                     std::size_t ts) {
  namespace kernels = mpblas::kernels;
  kernels::set_gemm_arch(arch);
  const Matrix<float> a = random_matrix(ts, ts, 61);
  const Matrix<float> b = random_matrix(ts, ts, 62);
  Matrix<float> c(ts, ts, 0.0f);
  const auto av = kernels::fp32_view(a.data(), ts, Trans::kNoTrans);
  const auto bv = kernels::fp32_view(b.data(), ts, Trans::kTrans);
  for (auto _ : state) {
    kernels::gemm_view(ts, ts, ts, 1.0f, av, bv, 0.0f, c.data(), ts);
    benchmark::DoNotOptimize(c.data());
  }
  kernels::set_gemm_arch(std::nullopt);
  state.SetLabel(std::string("variant/") + to_string(arch));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * ts * ts * ts));
}

void run_blocking_row(benchmark::State& state, std::size_t ts) {
  namespace kernels = mpblas::kernels;
  const Matrix<float> a = random_matrix(ts, ts, 63);
  const Matrix<float> b = random_matrix(ts, ts, 64);
  Matrix<float> c(ts, ts, 0.0f);
  const auto av = kernels::fp32_view(a.data(), ts, Trans::kNoTrans);
  const auto bv = kernels::fp32_view(b.data(), ts, Trans::kTrans);
  const kernels::Blocking blk = kernels::gemm_blocking();
  for (auto _ : state) {
    kernels::gemm_view(ts, ts, ts, 1.0f, av, bv, 0.0f, c.data(), ts);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel("blocking/tuned");
  state.counters["mc"] = static_cast<double>(blk.mc);
  state.counters["kc"] = static_cast<double>(blk.kc);
  state.counters["nc"] = static_cast<double>(blk.nc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * ts * ts * ts));
}

int register_engine_rows() {
  namespace kernels = mpblas::kernels;
  for (const kernels::Arch arch : kernels::available_archs()) {
    for (const std::size_t ts : {std::size_t{128}, std::size_t{256}}) {
      const std::string name = std::string("BM_GemmPackedVsReference_") +
                               to_string(arch) + "/" + std::to_string(ts);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [arch, ts](benchmark::State& state) {
            run_variant_row(state, arch, ts);
          });
    }
  }
  benchmark::RegisterBenchmark(
      "BM_GemmPackedVsReference_blocking_tuned/256",
      [](benchmark::State& state) { run_blocking_row(state, 256); });
  return 0;
}
const int g_engine_rows_registered = register_engine_rows();

std::vector<float> quantize_input() {
  std::vector<float> data(65536);
  Rng rng(8);
  for (auto& v : data) v = static_cast<float>(rng.normal());
  return data;
}

void BM_QuantizeRoundTrip(benchmark::State& state) {
  const auto precision = static_cast<Precision>(state.range(0));
  const std::vector<float> data = quantize_input();
  std::vector<std::uint8_t> storage(data.size() * bytes_per_element(precision));
  std::vector<float> back(data.size());
  for (auto _ : state) {
    quantize_buffer(precision, data.data(), storage.data(), data.size());
    dequantize_buffer(precision, storage.data(), back.data(), data.size());
    benchmark::DoNotOptimize(back.data());
  }
  state.SetLabel(to_string(precision));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_QuantizeRoundTrip)
    ->Arg(static_cast<long>(Precision::kFp16))
    ->Arg(static_cast<long>(Precision::kFp8E4M3));

/// Encode only: the FP32 -> storage store every narrow tile write-back
/// pays (items = elements encoded).
void BM_Quantize(benchmark::State& state) {
  const auto precision = static_cast<Precision>(state.range(0));
  const std::vector<float> data = quantize_input();
  std::vector<std::uint8_t> storage(data.size() * bytes_per_element(precision));
  for (auto _ : state) {
    quantize_buffer(precision, data.data(), storage.data(), data.size());
    benchmark::DoNotOptimize(storage.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(to_string(precision));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Quantize)
    ->Arg(static_cast<long>(Precision::kFp16))
    ->Arg(static_cast<long>(Precision::kBf16))
    ->Arg(static_cast<long>(Precision::kFp8E4M3));

}  // namespace
}  // namespace kgwas

// google-benchmark's CSV reporter aborts on a CHECK as soon as two
// selected rows carry different user counters (flops, exp_fallbacks,
// mc/kc/nc here), so CSV output is refused before anything runs.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--benchmark_format=csv" ||
        arg == "--benchmark_out_format=csv") {
      std::cerr << "bench_micro_kernels: CSV output is not supported (rows "
                   "carry different counters); use --benchmark_format=json "
                   "or the console reporter\n";
      return 2;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
