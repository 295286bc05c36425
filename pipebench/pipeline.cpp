// bench_pipeline: times the whole Build -> Associate -> Predict pipeline on
// fixed workloads and breaks a traced repetition down by layer.
//
//   bench_pipeline [--seed N] [--out bench_results.json] [--reps 8]
//       Runs every workload, one at a time, each in a fresh child process
//       of this binary (so peak RSS, the tile pool and the metric registry
//       are per workload): 1 untimed warm-up rep, --reps timed reps, then
//       1 traced rep.  Writes --out plus trace_<workload>.json beside it.
//
//   bench_pipeline --workload W --seed N (--seconds S | --reps R)
//                  --trace 0|1 [--trace-dir DIR] [--result FILE]
//       Runs one workload.  Timed reps run for S seconds (or R reps).  With
//       --trace 1 half the time goes to traced reps instead, and the
//       per-layer metrics are reported; with --trace 0 the end-to-end ones.
//       The last line of stdout is one JSON object
//       {"correct", "attempted", "failed", "metrics"}.
//
// Inputs come from --seed only.  The binary refuses to run when a library
// behaviour knob (any KGWAS_* variable other than the logging ones) is set,
// because every number here is meant to describe the default pipeline.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/timer.hpp"
#include "krr/build.hpp"
#include "mpblas/blas.hpp"
#include "mpblas/mixed.hpp"
#include "perfmodel/dag_simulator.hpp"
#include "pipeline/engines.hpp"
#include "pipeline/probe.hpp"
#include "pipeline/stats.hpp"
#include "pipeline/workloads.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "tile/tile_pool.hpp"

extern char** environ;

namespace {

using namespace pipebench;
using kgwas::telemetry::JsonWriter;

constexpr double kMiB = 1024.0 * 1024.0;
/// Setup runs this many times per process; setup_s is their median.
constexpr int kSetupRounds = 5;
/// Task classes reported per runtime class (every class the pipeline's
/// layers submit, in pipeline order).
constexpr std::string_view kTaskClasses[] = {
    "build_k", "potrf",    "trsm",     "syrk",     "gemm",        "trsm_fwd",
    "gemm_fwd", "trsm_bwd", "gemm_bwd", "build_kx", "predict_gemm"};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// First set KGWAS_* variable that changes what the library computes or
/// how it schedules (everything except the logging knobs); empty if none.
std::string set_behaviour_knob() {
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string_view entry(*env);
    if (!entry.starts_with("KGWAS_")) continue;
    const std::string_view name = entry.substr(0, entry.find('='));
    if (name == "KGWAS_LOG_LEVEL" || name == "KGWAS_LOG_TIMESTAMPS") continue;
    return std::string(name);
  }
  return {};
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------ op counts

/// The benchmark's own operation count of one repetition: INT8 Gram plus
/// confounder Gram (Build), Cholesky plus two triangular solves
/// (Associate), rectangular cross-kernel plus the predict GEMM (Predict).
/// TLR runs are charged the same dense count, so wall.mixed_gops compares
/// time on the same problem.
struct OpCounts {
  double build = 0.0;
  double associate = 0.0;
  double cross = 0.0;
  double predict = 0.0;

  double total() const noexcept { return build + associate + cross + predict; }
};

OpCounts op_counts(const Inputs& in) {
  const std::size_t n = in.split.train.patients();
  const double m = static_cast<double>(in.split.test.patients());
  const double s = static_cast<double>(in.split.train.snps());
  const std::size_t c = in.split.train.confounders.cols();
  const std::size_t r = in.split.train.phenotypes.cols();
  OpCounts ops;
  ops.build = kgwas::build_op_count(n, in.split.train.snps(), c);
  ops.associate =
      kgwas::potrf_op_count(n) + 2.0 * kgwas::trsm_op_count(n, r);
  ops.cross = 2.0 * m * static_cast<double>(n) * (s + static_cast<double>(c)) +
              m * static_cast<double>(n);
  ops.predict = kgwas::gemm_op_count(in.split.test.patients(), r, n);
  return ops;
}

// ------------------------------------------------------------- ceilings

/// Single-thread rates of the two kernels the pipeline's hot layers are
/// built on, measured in the same run: the packed FP32 GEMM at 256^3 and
/// the INT8 SYRK at 256 x 1024.  They are the denominators of the
/// per-layer peak fractions.
struct Ceilings {
  double gemm_f32_gflops = 0.0;
  double syrk_i8_gops = 0.0;
};

template <class Fn>
double median_rate(double ops, int warmup, int reps, Fn&& fn) {
  std::vector<double> rates;
  for (int i = 0; i < warmup + reps; ++i) {
    kgwas::Timer t;
    fn();
    const double s = t.seconds();
    if (i >= warmup && s > 0.0) rates.push_back(ops / s * 1e-9);
  }
  return summarize(std::move(rates)).median;
}

Ceilings measure_ceilings(std::uint64_t seed) {
  constexpr std::size_t n = 256;
  constexpr std::size_t k = 1024;
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<float> uniform(-1.0f, 1.0f);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (float& v : a) v = uniform(gen);
  for (float& v : b) v = uniform(gen);
  std::vector<std::int8_t> g(n * k);
  for (std::int8_t& v : g) v = static_cast<std::int8_t>(gen() % 3);
  std::vector<std::int32_t> gram(n * n);

  Ceilings ceilings;
  ceilings.gemm_f32_gflops =
      median_rate(kgwas::gemm_op_count(n, n, n), 3, 15, [&] {
        kgwas::gemm<float>(kgwas::Trans::kNoTrans, kgwas::Trans::kNoTrans, n,
                           n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
                           c.data(), n);
      });
  ceilings.syrk_i8_gops = median_rate(kgwas::syrk_op_count(n, k), 1, 5, [&] {
    kgwas::syrk_i8_i32(kgwas::Uplo::kLower, kgwas::Trans::kNoTrans, n, k, 1,
                       g.data(), n, 0, gram.data(), n);
  });
  return ceilings;
}

// --------------------------------------------------------------- checks

bool all_finite(const kgwas::Matrix<float>& m) {
  return std::all_of(m.data(), m.data() + m.rows() * m.cols(),
                     [](float v) { return std::isfinite(v); });
}

bool bitwise_equal(const kgwas::Matrix<float>& a,
                   const kgwas::Matrix<float>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(float)) == 0;
}

/// max over phenotypes of ||(K + aI) w - y|| / (||K + aI|| ||w|| + ||y||),
/// in FP64 (Frobenius norm for the matrix), from the lower tiles of K.
double backward_error(const kgwas::SymmetricTileMatrix& k, double alpha,
                      const kgwas::Matrix<float>& w,
                      const kgwas::Matrix<float>& y) {
  const std::size_t n = k.n();
  const std::size_t nrhs = w.cols();
  const std::size_t ts = k.tile_size();
  std::vector<double> kw(n * nrhs, 0.0);
  double k_norm2 = 0.0;
  for (std::size_t tj = 0; tj < k.tile_count(); ++tj) {
    for (std::size_t ti = tj; ti < k.tile_count(); ++ti) {
      const kgwas::Matrix<float> t = k.tile(ti, tj).to_fp32();
      for (std::size_t j = 0; j < t.cols(); ++j) {
        const std::size_t gj = tj * ts + j;
        for (std::size_t i = 0; i < t.rows(); ++i) {
          const std::size_t gi = ti * ts + i;
          if (gi < gj) continue;  // diagonal tiles: lower half, mirrored
          const double v =
              static_cast<double>(t(i, j)) + (gi == gj ? alpha : 0.0);
          k_norm2 += gi == gj ? v * v : 2.0 * v * v;
          for (std::size_t c = 0; c < nrhs; ++c) {
            kw[c * n + gi] += v * static_cast<double>(w(gj, c));
            if (gi != gj) kw[c * n + gj] += v * static_cast<double>(w(gi, c));
          }
        }
      }
    }
  }
  double worst = 0.0;
  for (std::size_t c = 0; c < nrhs; ++c) {
    double r2 = 0.0, w2 = 0.0, y2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = kw[c * n + i] - static_cast<double>(y(i, c));
      r2 += r * r;
      w2 += static_cast<double>(w(i, c)) * static_cast<double>(w(i, c));
      y2 += static_cast<double>(y(i, c)) * static_cast<double>(y(i, c));
    }
    worst = std::max(worst, std::sqrt(r2) / (std::sqrt(k_norm2 * w2) +
                                             std::sqrt(y2)));
  }
  return worst;
}

/// Output quality of the first repetition (every later one must be
/// bitwise equal to it, so it carries the same quality).
struct Quality {
  double backward_err = 0.0;
  double pearson_mean = 0.0;
  double mspe_mean = 0.0;
  bool dist_matches_oracle = true;
  bool ok = false;
};

Quality evaluate(const Inputs& in, const RepResult& rep0) {
  const Workload& w = in.workload;
  Quality q;
  {
    kgwas::Runtime runtime(w.workers * static_cast<std::size_t>(w.ranks));
    const kgwas::SymmetricTileMatrix k = kgwas::build_kernel_matrix(
        runtime, in.split.train.genotypes, in.split.train.confounders,
        in.config.build);
    q.backward_err = backward_error(k, w.alpha, rep0.weights,
                                    in.split.train.phenotypes);
  }
  const auto scores = kgwas::evaluate_predictions(
      in.split.test.phenotypes, rep0.predictions, in.phenotype_names);
  for (const auto& s : scores) {
    q.pearson_mean += s.pearson / static_cast<double>(scores.size());
    q.mspe_mean += s.mspe / static_cast<double>(scores.size());
  }
  if (w.distributed()) {
    // The dist layer promises results bitwise equal to the shared-memory
    // pipeline for any rank count; hold it to that on these inputs.
    SharedEngine oracle(in, w.workers * static_cast<std::size_t>(w.ranks));
    const RepResult ref = oracle.rep(false);
    q.dist_matches_oracle = bitwise_equal(ref.weights, rep0.weights) &&
                            bitwise_equal(ref.predictions, rep0.predictions);
  }
  // Written so that a NaN fails every comparison.
  q.ok = all_finite(rep0.weights) && all_finite(rep0.predictions) &&
         q.backward_err <= w.max_backward_err &&
         q.pearson_mean >= w.min_pearson && q.dist_matches_oracle;
  return q;
}

bool rep_matches(const RepResult& r, const RepResult& rep0) {
  return all_finite(r.weights) && all_finite(r.predictions) &&
         bitwise_equal(r.weights, rep0.weights) &&
         bitwise_equal(r.predictions, rep0.predictions);
}

// ------------------------------------------------------ per-layer metrics

/// Pool and comm counters read around one traced repetition.
struct AroundRep {
  double pool_high_water_mib = 0.0;
  double pool_fresh_allocs = 0.0;
  double recv_wait_s = 0.0;
};

RepResult traced_rep(Engine& engine, AroundRep& around) {
  auto& registry = kgwas::telemetry::MetricRegistry::global();
  kgwas::telemetry::Gauge& in_use = registry.gauge("pool.bytes_in_use");
  kgwas::telemetry::Gauge& high_water = registry.gauge("pool.bytes_high_water");
  kgwas::telemetry::Histogram& recv_wait =
      registry.histogram("dist.recv_wait_ns");
  // Restart the pool's high-water mark at the current level so it covers
  // this repetition only.
  high_water.set(in_use.value());
  const std::uint64_t fresh_before =
      kgwas::TilePool::global().stats().fresh_allocations;
  const std::uint64_t wait_before = recv_wait.data().sum;
  RepResult r = engine.rep(true);
  around.pool_high_water_mib = static_cast<double>(high_water.value()) / kMiB;
  around.pool_fresh_allocs = static_cast<double>(
      kgwas::TilePool::global().stats().fresh_allocations - fresh_before);
  around.recv_wait_s =
      static_cast<double>(recv_wait.data().sum - wait_before) * 1e-9;
  return r;
}

/// Raw wall-clock readings of the timed reps, as medians: rep time, the
/// benchmark's op rate, and the host probe's time.  They drift with the
/// host's speed, so they are per-layer diagnostics, not end-to-end metrics.
struct WallClock {
  double time_s = 0.0;
  double mixed_gops = 0.0;
  double probe_s = 0.0;
};

std::vector<Metric> layer_metrics(const Inputs& in, const RepResult& r,
                                  const AroundRep& around,
                                  const Ceilings& ceil, const Quality& quality,
                                  const WallClock& untraced) {
  const Workload& w = in.workload;
  const RepTrace& t = *r.trace;
  const SpanLog& log = r.spans;
  const OpCounts ops = op_counts(in);
  const std::size_t n = in.split.train.patients();
  const double wall = log.seconds("rep");
  const double workers = static_cast<double>(t.workers);
  const auto rate = [](double op, double s) {
    return s > 0.0 ? op / s * 1e-9 : 0.0;
  };
  const auto frac = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  std::vector<Metric> m;
  const auto add = [&m](std::string name, std::string unit, double v) {
    m.push_back({std::move(name), std::move(unit), v});
  };

  // raw wall clock of the timed reps
  add("wall.time_to_solution_s", "s", untraced.time_s);
  add("wall.mixed_gops", "Gop/s", untraced.mixed_gops);
  add("wall.host_probe_s", "s", untraced.probe_s);
  // phases of the traced rep (rank 0 on the dist path)
  add("phase.build_s", "s", log.seconds("build"));
  add("phase.associate_s", "s", log.seconds("associate"));
  add("phase.predict_s", "s", log.seconds("predict"));
  // krr
  const double build_s = log.seconds("krr.build_kernel");
  const double build_gops = rate(ops.build, build_s);
  const double cross_s = log.seconds("krr.cross_kernel");
  add("krr.build_kernel.s", "s", build_s);
  add("krr.build_kernel.gops", "Gop/s", build_gops);
  add("krr.build_kernel.frac_i8_peak", "ratio",
      frac(build_gops, workers * ceil.syrk_i8_gops));
  add("krr.cross_kernel.s", "s", cross_s);
  add("krr.cross_kernel.gops", "Gop/s", rate(ops.cross, cross_s));
  add("krr.predict_gemm.s", "s", log.seconds("krr.predict_gemm"));
  // mpblas ceilings
  add("mpblas.gemm_f32.gflops", "GFLOP/s", ceil.gemm_f32_gflops);
  add("mpblas.syrk_i8.gops", "Gop/s", ceil.syrk_i8_gops);
  // linalg
  const double potrf_s = log.seconds("linalg.potrf");
  const double potrf_gflops = rate(kgwas::potrf_op_count(n), potrf_s);
  add("linalg.plan_map.s", "s", log.seconds("linalg.plan_map"));
  add("linalg.potrf.s", "s", potrf_s);
  add("linalg.potrf.gflops", "GFLOP/s", potrf_gflops);
  add("linalg.potrf.frac_fp32_peak", "ratio",
      frac(potrf_gflops, workers * ceil.gemm_f32_gflops));
  add("linalg.potrs.s", "s", log.seconds("linalg.potrs"));
  add("linalg.tlr_plan.s", "s", log.seconds("linalg.tlr_plan"));
  add("linalg.tlr.tiles_compressed", "count",
      static_cast<double>(r.tlr.tiles_compressed));
  add("linalg.tlr.mean_rank", "rank", r.tlr.mean_rank);
  add("linalg.tlr.max_rank", "rank", static_cast<double>(r.tlr.max_rank));
  // tile
  add("tile.add_diagonal.s", "s", log.seconds("tile.add_diagonal"));
  add("tile.apply_map.s", "s", log.seconds("tile.apply_map"));
  add("tile.factor_mib", "MiB", static_cast<double>(r.factor_bytes) / kMiB);
  add("tile.pool.high_water_mib", "MiB", around.pool_high_water_mib);
  add("tile.pool.fresh_allocs", "count", around.pool_fresh_allocs);

  // runtime: busy time per class and per rank from the task spans
  struct ClassTotals {
    double busy_s = 0.0;
    double count = 0.0;
    double flops = 0.0;
  };
  std::vector<ClassTotals> classes(std::size(kTaskClasses));
  std::vector<double> rank_busy;
  double busy = 0.0, tasks = 0.0;
  for (const auto& rank_tasks : t.tasks) {
    double mine = 0.0;
    for (const kgwas::TaskSpan& s : rank_tasks) {
      const double secs = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      mine += secs;
      tasks += 1.0;
      for (std::size_t c = 0; c < std::size(kTaskClasses); ++c) {
        if (s.name == kTaskClasses[c]) {
          classes[c].busy_s += secs;
          classes[c].count += 1.0;
          classes[c].flops += s.flops;
        }
      }
    }
    rank_busy.push_back(mine);
    busy += mine;
  }
  add("runtime.parallel_efficiency", "ratio", frac(busy, workers * wall));
  add("runtime.idle_s", "s", workers * wall - busy);
  add("runtime.tasks", "count", tasks);
  add("runtime.steals", "count", static_cast<double>(t.steals));
  add("runtime.batch.groups", "count", static_cast<double>(t.batch.groups));
  add("runtime.batch.avg_group", "tasks", t.batch.avg_group());
  // The profiler's per-task FLOPs are 0 on the dist path and charged at the
  // dense count on TLR tiles, so class rates are reported only where they
  // are right.
  const bool flops_valid = !w.distributed() && w.tlr_tol == 0.0;
  for (std::size_t c = 0; c < std::size(kTaskClasses); ++c) {
    const std::string prefix = "runtime.class." + std::string(kTaskClasses[c]);
    add(prefix + ".busy_s", "s", classes[c].busy_s);
    add(prefix + ".count", "count", classes[c].count);
    add(prefix + ".gflops", "GFLOP/s",
        flops_valid ? rate(classes[c].flops, classes[c].busy_s) : 0.0);
  }

  // dist (zero on shared-memory workloads)
  double model_bytes = 0.0;
  if (w.distributed()) {
    for (const auto& [precision, bytes] : kgwas::cholesky_comm_bytes(
             r.map.tile_count(), w.tile, r.map, w.ranks)) {
      model_bytes += static_cast<double>(bytes);
    }
  }
  const auto fp32_and_wider =
      t.wire.tile_bytes(kgwas::Precision::kFp64) +
      t.wire.tile_bytes(kgwas::Precision::kFp32);
  double busy_mean = 0.0, busy_max = 0.0;
  for (const double b : rank_busy) {
    busy_mean += b / static_cast<double>(rank_busy.size());
    busy_max = std::max(busy_max, b);
  }
  add("dist.build_kernel.s", "s", log.seconds("dist.build_kernel"));
  add("dist.associate.s", "s", log.seconds("dist.associate"));
  add("dist.cross_kernel.s", "s", log.seconds("dist.cross_kernel"));
  add("dist.predict.s", "s", log.seconds("dist.predict"));
  add("dist.wire_mib", "MiB", static_cast<double>(t.wire.payload_bytes) / kMiB);
  add("dist.wire.frames", "count", static_cast<double>(t.wire.messages));
  add("dist.wire.low_prec_mib", "MiB",
      static_cast<double>(t.wire.total_tile_bytes() - fp32_and_wider) / kMiB);
  add("dist.associate.wire_mib", "MiB",
      static_cast<double>(t.wire_associate.payload_bytes) / kMiB);
  add("dist.potrf_model_mib", "MiB", model_bytes / kMiB);
  add("dist.recv_wait_s", "s", around.recv_wait_s);
  add("dist.rank_busy_max_over_mean", "ratio",
      w.distributed() ? frac(busy_max, busy_mean) : 0.0);

  // quality and the trace's own accounting
  add("quality.pearson_mean", "ratio", quality.pearson_mean);
  add("telemetry.trace_overhead", "ratio", frac(wall, untraced.time_s) - 1.0);
  double unattributed = 0.0;
  for (const Span& s : log.spans()) {
    if (s.name == "rep" || s.name == "build" || s.name == "associate" ||
        s.name == "predict") {
      unattributed += log.self_seconds(s.id);
    }
  }
  add("telemetry.unattributed_frac", "ratio", frac(unattributed, wall));
  return m;
}

/// Per-metric median over traced repetitions (all share one name order).
std::vector<Metric> median_metrics(
    const std::vector<std::vector<Metric>>& reps) {
  std::vector<Metric> out = reps.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const auto& rep : reps) values.push_back(rep[i].value);
    out[i].value = summarize(std::move(values)).median;
  }
  return out;
}

// ----------------------------------------------------------------- trace

/// Chrome/Perfetto trace of one traced repetition: the benchmark's layer
/// spans (pid 0, tid 0; args carry id, parent and self time) plus every
/// runtime task (pid = rank, tid = worker + 1), and the per-layer metrics
/// under "otherData".
void write_trace(const std::string& path, const Workload& w,
                 std::uint64_t seed, const RepResult& r,
                 const std::vector<Metric>& metrics) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::uint64_t t0 = r.spans.spans().front().start_ns;
  const auto us = [t0](std::uint64_t ns) {
    return static_cast<double>(ns > t0 ? ns - t0 : 0) * 1e-3;
  };
  JsonWriter j(out);
  j.begin_object();
  j.key("traceEvents");
  j.begin_array();
  for (const Span& s : r.spans.spans()) {
    j.begin_object();
    j.kv("name", s.name);
    j.kv("cat", "bench");
    j.kv("ph", "X");
    j.kv("pid", 0);
    j.kv("tid", 0);
    j.kv("ts", us(s.start_ns));
    j.kv("dur", us(s.end_ns) - us(s.start_ns));
    j.key("args");
    j.begin_object();
    j.kv("id", s.id);
    j.kv("parent", s.parent);
    j.kv("self_s", r.spans.self_seconds(s.id));
    j.end_object();
    j.end_object();
  }
  for (std::size_t rank = 0; rank < r.trace->tasks.size(); ++rank) {
    for (const kgwas::TaskSpan& s : r.trace->tasks[rank]) {
      j.begin_object();
      j.kv("name", s.name);
      j.kv("cat", "task");
      j.kv("ph", "X");
      j.kv("pid", static_cast<std::uint64_t>(rank));
      j.kv("tid", s.worker + 1);
      j.kv("ts", us(s.start_ns));
      j.kv("dur", us(s.end_ns) - us(s.start_ns));
      j.end_object();
    }
  }
  j.end_array();
  j.key("otherData");
  j.begin_object();
  j.kv("workload", w.name);
  j.kv("seed", seed);
  j.key("per_layer");
  j.begin_object();
  for (const Metric& m : metrics) j.kv(m.name, m.value);
  j.end_object();
  j.end_object();
  j.end_object();
  out << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

// ----------------------------------------------------------- one workload

struct RunOptions {
  std::uint64_t seed = 20240901;
  double seconds = 0.0;  ///< > 0: time-bounded run, else `reps` timed reps
  long reps = 8;
  bool trace = false;
  std::string trace_dir = ".";
  std::string result_path;  ///< full record, for the all-workloads mode
};

/// An end-to-end metric.  Timings summarize reps; a value that repeats
/// exactly for a seed has q1 = q3 = median over the reps; a single reading
/// has n = 1.
struct EndToEnd {
  std::string name;
  std::string unit;
  Summary summary;
};

void print_metric(const std::string& name, const std::string& unit, double v,
                  const Summary* s = nullptr) {
  std::printf("  %-38s %14.6g %-8s", name.c_str(), v, unit.c_str());
  if (s != nullptr) {
    std::printf("  q1 %.6g  q3 %.6g  n %zu", s->q1, s->q3, s->n);
  }
  std::printf("\n");
}

int run_workload(const Workload& w, const RunOptions& opt) {
  std::printf("== %s, seed %llu: %s\n", std::string(w.name).c_str(),
              static_cast<unsigned long long>(opt.seed),
              std::string(w.why).c_str());
  std::fflush(stdout);

  // Setup: cohort, split, gamma, runtime or rank world, then one untimed
  // warm-up rep (lazy initialisation, pool fill).  It runs several times so
  // setup_s is a median; the last round's state is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Inputs> inputs;
  RepResult rep0;
  for (int round = 0; round < kSetupRounds; ++round) {
    engine.reset();
    inputs.reset();
    const kgwas::Timer t;
    inputs = std::make_unique<Inputs>(w, opt.seed);
    if (w.distributed()) {
      engine = std::make_unique<DistEngine>(*inputs, w.ranks, w.workers);
    } else {
      engine = std::make_unique<SharedEngine>(*inputs, w.workers);
    }
    rep0 = engine->rep(false);
    setup_s.push_back(t.seconds());
  }
  // Peak memory of setup: data plus full pipeline reps.  Read here, before
  // the output checks and the long timed loop, because the high-water mark
  // of a long run depends on how allocator and scheduler timing happen to
  // line up rather than on the work.
  const double setup_peak_rss_mib = peak_rss_mib();
  const Quality quality = evaluate(*inputs, rep0);
  if (!quality.ok) {
    std::printf("  output check failed: backward_err %.3g (max %.3g), "
                "pearson_mean %.4f (min %.4f), dist == oracle: %s\n",
                quality.backward_err, w.max_backward_err, quality.pearson_mean,
                w.min_pearson, quality.dist_matches_oracle ? "yes" : "no");
  }

  // A rep fails on an exception, a non-finite output, outputs that are
  // not bitwise those of the warm-up rep, or failed output checks.
  std::uint64_t attempted = 0, failed = 0;
  const auto attempt = [&](auto&& run, auto&& on_success) {
    ++attempted;
    try {
      RepResult r = run();
      if (quality.ok && rep_matches(r, rep0)) {
        on_success(std::move(r));
        return;
      }
      if (quality.ok) std::printf("  rep %llu: outputs differ from rep 0\n",
                                  static_cast<unsigned long long>(attempted));
    } catch (const std::exception& e) {
      std::printf("  rep %llu failed: %s\n",
                  static_cast<unsigned long long>(attempted), e.what());
    }
    ++failed;
  };
  const kgwas::Timer clock;
  const auto more = [&](long done, double until_s, long count) {
    if (!engine->alive()) return false;
    return opt.seconds > 0.0 ? done == 0 || clock.seconds() < until_s
                             : done < count;
  };

  // Timed reps, profiling off, each followed by the host probe on as many
  // threads as the workload computes on.
  std::vector<double> total_s, gops, probe_s, rel;
  const double ops = op_counts(*inputs).total();
  const double timed_until = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  HostProbe probe(w.workers * static_cast<std::size_t>(w.ranks));
  for (long i = 0; more(i, timed_until, opt.reps); ++i) {
    attempt([&] { return engine->rep(false); }, [&](RepResult r) {
      const double s = r.spans.seconds("rep");
      const double p = probe.seconds();
      total_s.push_back(s);
      gops.push_back(ops / s * 1e-9);
      probe_s.push_back(p);
      rel.push_back(s / p);
    });
  }
  const Summary total = summarize(total_s);
  const WallClock untraced{total.median, summarize(gops).median,
                           summarize(probe_s).median};

  // Traced reps: Associate layer by layer, task profiling on.
  std::vector<std::vector<Metric>> traced;
  RepResult last_traced;
  if (opt.trace && total.n > 0) {
    const Ceilings ceilings = measure_ceilings(opt.seed);
    for (long i = 0; more(i, opt.seconds, 1); ++i) {
      AroundRep around;
      attempt([&] { return traced_rep(*engine, around); }, [&](RepResult r) {
        traced.push_back(layer_metrics(*inputs, r, around, ceilings, quality,
                                       untraced));
        last_traced = std::move(r);
      });
    }
  }
  engine.reset();

  const auto exact = [&total](double v) { return Summary{v, v, v, total.n}; };
  const std::vector<EndToEnd> e2e = {
      {"time_to_solution_rel", "probe", summarize(rel)},
      {"setup_s", "s", summarize(setup_s)},
      {"peak_rss_mib", "MiB", summarize({setup_peak_rss_mib})},
      {"factor_bytes_ratio", "ratio",
       exact(static_cast<double>(rep0.factor_bytes) /
             static_cast<double>(rep0.fp32_bytes))},
      {"backward_err", "ratio", exact(quality.backward_err)},
      {"mspe_mean", "1", exact(quality.mspe_mean)},
  };
  const std::vector<Metric> layers =
      traced.empty() ? std::vector<Metric>{} : median_metrics(traced);
  const bool correct = quality.ok && failed == 0 && total.n > 0 &&
                       (!opt.trace || !traced.empty());

  std::printf("  end to end: %zu timed reps, %zu traced, %llu of %llu failed\n",
              total.n, traced.size(), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const EndToEnd& m : e2e) {
    print_metric(m.name, m.unit, m.summary.median, &m.summary);
  }
  if (!layers.empty()) {
    std::printf("  per layer (median of %zu traced reps):\n", traced.size());
    for (const Metric& m : layers) print_metric(m.name, m.unit, m.value);
    const std::string path =
        opt.trace_dir + "/trace_" + std::string(w.name) + ".json";
    write_trace(path, w, opt.seed, last_traced, layers);
    std::printf("  trace: %s\n", path.c_str());
  }

  if (!opt.result_path.empty()) {
    std::ofstream out(opt.result_path);
    JsonWriter j(out);
    j.begin_object();
    j.kv("workload", w.name);
    j.kv("seed", opt.seed);
    j.kv("correct", correct);
    j.kv("attempted", attempted);
    j.kv("failed", failed);
    j.key("end_to_end");
    j.begin_object();
    for (const EndToEnd& m : e2e) {
      j.key(m.name);
      j.begin_object();
      j.kv("unit", m.unit);
      j.kv("median", m.summary.median);
      j.kv("q1", m.summary.q1);
      j.kv("q3", m.summary.q3);
      j.kv("n", static_cast<std::uint64_t>(m.summary.n));
      j.end_object();
    }
    j.end_object();
    j.key("per_layer");
    j.begin_object();
    for (const Metric& m : layers) {
      j.key(m.name);
      j.begin_object();
      j.kv("unit", m.unit);
      j.kv("value", m.value);
      j.end_object();
    }
    j.end_object();
    j.end_object();
    out << '\n';
    if (!out) throw std::runtime_error("cannot write " + opt.result_path);
  }

  // Last line: the machine-readable result of this run.
  std::ostringstream line;
  JsonWriter j(line);
  j.begin_object();
  j.kv("correct", correct);
  j.kv("attempted", attempted);
  j.kv("failed", failed);
  j.key("metrics");
  j.begin_object();
  const auto metric = [&j](const std::string& name, double value,
                           const std::string& unit) {
    j.key(name);
    j.begin_object();
    j.kv("value", value);
    j.kv("unit", unit);
    j.end_object();
  };
  if (opt.trace) {
    for (const Metric& m : layers) metric(m.name, m.value, m.unit);
  } else {
    for (const EndToEnd& m : e2e) metric(m.name, m.summary.median, m.unit);
  }
  j.end_object();
  j.end_object();
  std::printf("%s\n", line.str().c_str());
  return 0;
}

// --------------------------------------------------------- all workloads

/// Runs `argv` as a child process and returns its exit status (-1 when it
/// could not be started or did not exit normally).
int run_child(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(), environ) != 0) {
    return -1;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int run_all(const kgwas::CliArgs& args) {
  const std::string out_path = args.get("out", "bench_results.json");
  const std::string seed = std::to_string(args.get_long("seed", 20240901));
  const std::string reps = std::to_string(args.get_long("reps", 8));
  std::filesystem::path dir = std::filesystem::path(out_path).parent_path();
  if (dir.empty()) dir = ".";
  const std::string self =
      std::filesystem::read_symlink("/proc/self/exe").string();

  std::ostringstream doc;
  JsonWriter j(doc);
  j.begin_object();
  j.kv("schema", "kgwas.bench_pipeline.v1");
  j.kv("seed", std::stoull(seed));
  j.kv("reps", std::stoull(reps));
  j.key("workloads");
  j.begin_object();
  bool all_correct = true;
  for (const Workload& w : kWorkloads) {
    const std::string name(w.name);
    const std::string part = out_path + "." + name + ".part";
    std::fflush(stdout);
    const int status = run_child({self, "--workload", name, "--seed", seed,
                                  "--reps", reps, "--trace", "1", "--trace-dir",
                                  dir.string(), "--result", part});
    std::ifstream in(part);
    std::stringstream text;
    text << in.rdbuf();
    in.close();
    std::filesystem::remove(part);
    if (status != 0 || text.str().empty()) {
      std::printf("!! %s: child exited with status %d\n", name.c_str(), status);
      all_correct = false;
      continue;
    }
    const kgwas::telemetry::JsonValue record =
        kgwas::telemetry::parse_json(text.str());
    all_correct = all_correct && record.at("correct").boolean;
    j.key(name);
    j.raw(text.str().substr(0, text.str().find_last_not_of("\n") + 1));
  }
  j.end_object();
  j.end_object();
  std::ofstream out(out_path);
  out << doc.str() << '\n';
  if (!out) {
    std::printf("!! cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%s)\n", out_path.c_str(),
              all_correct ? "all workloads correct" : "FAILURES");
  return all_correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const kgwas::CliArgs args(argc, argv);
    if (const std::string knob = set_behaviour_knob(); !knob.empty()) {
      std::fprintf(stderr,
                   "bench_pipeline: %s is set; the benchmark measures the "
                   "library defaults only, unset it\n",
                   knob.c_str());
      return 2;
    }
    if (!args.has("workload")) return run_all(args);

    const Workload* w = find_workload(args.get("workload", ""));
    if (w == nullptr) {
      std::fprintf(stderr, "bench_pipeline: unknown --workload %s\n",
                   args.get("workload", "").c_str());
      return 2;
    }
    RunOptions opt;
    opt.seed = static_cast<std::uint64_t>(args.get_long("seed", 20240901));
    opt.seconds = args.get_double("seconds", 0.0);
    opt.reps = args.get_long("reps", 8);
    opt.trace = args.get_long("trace", 0) != 0;
    opt.trace_dir = args.get("trace-dir", ".");
    opt.result_path = args.get("result", "");
    if (opt.seconds <= 0.0 && opt.reps < 1) {
      std::fprintf(stderr,
                   "bench_pipeline: need --seconds > 0 or --reps >= 1\n");
      return 2;
    }
    return run_workload(*w, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_pipeline: %s\n", e.what());
    return 1;
  }
}

