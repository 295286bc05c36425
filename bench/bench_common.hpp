// Shared helpers for the per-figure bench binaries: canonical cohort
// configurations (scaled-down stand-ins for the UK BioBank / msprime
// datasets) and formatting.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "dist/communicator.hpp"
#include "dist/dist_cholesky.hpp"
#include "dist/dist_tile_matrix.hpp"
#include "gwas/cohort_simulator.hpp"
#include "gwas/dataset.hpp"
#include "gwas/phenotype.hpp"
#include "linalg/precision_policy.hpp"
#include "mpblas/mixed.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/json.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/trace.hpp"

namespace kgwas::bench {

/// UK-BioBank-like accuracy cohort (population-sorted, confounders,
/// five binary diseases).  Note the scale translation: the paper's cohort
/// is 305,880 x 43,333; at bench scale the SNP panel must stay small and
/// causal-dense or the Gaussian kernel's distance signal is diluted by
/// non-causal coordinates (sample-complexity, not implementation, limit).
inline GwasDataset ukb_like_dataset(std::size_t n_patients,
                                    std::size_t n_snps,
                                    std::uint64_t seed = 20240901,
                                    std::size_t population_segment = 0,
                                    double ld_rho = 0.6, double fst = 0.12) {
  CohortConfig cc;
  cc.n_patients = n_patients;
  cc.n_snps = n_snps;
  cc.n_populations = 6;
  cc.fst = fst;
  cc.ld_block_size = 16;
  cc.ld_rho = ld_rho;
  cc.population_segment = population_segment;
  cc.seed = seed;
  Cohort cohort = simulate_cohort(cc);
  auto panel_configs = ukb_disease_panel(seed + 7);
  for (auto& pc : panel_configs) {
    // Keep the causal set inside (and dense within) the SNP panel.
    pc.n_causal = std::min(pc.n_causal, n_snps / 2);
    pc.n_pairs = std::min(pc.n_pairs, 2 * pc.n_causal);
  }
  PhenotypePanel panel = simulate_panel(cohort, panel_configs);
  return make_dataset(std::move(cohort), std::move(panel));
}

/// msprime-like quantitative cohort (coalescent mode of the simulator,
/// single quantitative epistatic trait) for the FP8 experiments.
inline GwasDataset msprime_like_dataset(std::size_t n_patients,
                                        std::size_t n_snps,
                                        std::uint64_t seed = 36) {
  CohortConfig cc;
  cc.n_patients = n_patients;
  cc.n_snps = n_snps;
  cc.n_populations = 8;
  cc.fst = 0.05;
  cc.ld_block_size = 16;
  cc.ld_rho = 0.7;
  cc.seed = seed;
  Cohort cohort = simulate_cohort(cc);
  PhenotypeConfig pc;
  pc.name = "Synthetic";
  pc.n_causal = std::min<std::size_t>(48, n_snps / 2);
  pc.n_pairs = 96;
  pc.h2_additive = 0.12;
  pc.h2_epistatic = 0.78;
  pc.prevalence = 0.0;
  pc.seed = seed + 1;
  PhenotypePanel panel = simulate_panel(cohort, {pc});
  return make_dataset(std::move(cohort), std::move(panel));
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "reproduces: " << paper_ref << "\n\n";
}

// ------------------------------------------------------------ JSON output
// `--json <path>` mode: benches append BenchRecords and write one
// BENCH_<name>.json file so CI can upload the perf trajectory as an
// artifact instead of losing it in the log.

struct BenchRecord {
  std::string name;               ///< measurement label (row id)
  std::size_t n = 0;              ///< problem size (matrix dim / patients)
  std::size_t tile_size = 0;
  int ranks = 1;
  double median_seconds = 0.0;
  std::uint64_t bytes_moved = 0;  ///< wire/data-motion bytes of one run
  double gflops = 0.0;            ///< achieved GFLOP/s (0 = not accounted)
  /// Optional RunReport of the measured run, as pre-serialized JSON
  /// (telemetry::run_report_json); empty = omitted from the row.
  std::string telemetry;
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Writes {"bench": <bench>, "records": [...]} to `path`.  Returns false
/// (with a note on stderr) when the file cannot be opened.
inline bool write_bench_json(const std::string& path, const std::string& bench,
                             const std::vector<BenchRecord>& records) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not open " << path << " for --json output\n";
    return false;
  }
  out << "{\n  \"bench\": \"" << json_escape(bench) << "\",\n  \"records\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out << (i == 0 ? "\n" : ",\n")
        << "    {\"name\": \"" << json_escape(r.name) << "\", \"n\": " << r.n
        << ", \"tile_size\": " << r.tile_size << ", \"ranks\": " << r.ranks
        << ", \"median_seconds\": " << r.median_seconds
        << ", \"bytes_moved\": " << r.bytes_moved
        << ", \"gflops\": " << r.gflops;
    if (!r.telemetry.empty()) out << ", \"telemetry\": " << r.telemetry;
    out << "}";
  }
  out << "\n  ]\n}\n";
  return true;
}

// -------------------------------------------- real multi-rank execution
// The scaling figures were pure simulation until the dist/ layer landed;
// this helper runs the *real* in-process multi-rank factorization on a
// small SPD matrix so the figures carry a measured point next to the
// modelled curves (KGWAS_RANKS-sized worlds on one box).

struct RealDistPotrf {
  double median_seconds = 0.0;
  std::uint64_t wire_bytes = 0;          ///< tile payload bytes, one run
  std::uint64_t wire_bytes_low = 0;      ///< ... of which below FP32
  dist::WireVolume wire;                 ///< full ledger, all reps summed
  /// Per-rank trace streams (spans + comm events), captured when
  /// KGWAS_TRACE / KGWAS_TELEMETRY is set; empty otherwise.
  std::vector<telemetry::TraceStream> streams;
};

/// Deterministic well-conditioned SPD test matrix (Gaussian kernel of 1D
/// points plus a diagonal shift).
inline Matrix<float> spd_dense(std::size_t n) {
  Matrix<float> a(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = (static_cast<double>(i) - static_cast<double>(j)) /
                       static_cast<double>(n);
      a(i, j) = static_cast<float>(std::exp(-40.0 * d * d));
    }
  }
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0f;
  return a;
}

/// Runs dist_tiled_potrf `reps` times on an in-process world and reports
/// the median wall time plus per-run wire bytes.  `map` assigns tile
/// storage precisions (replicated).
inline RealDistPotrf run_real_dist_potrf(std::size_t n, std::size_t tile_size,
                                         int ranks, const PrecisionMap& map,
                                         int reps = 3) {
  KGWAS_CHECK_ARG(reps >= 1, "need at least one repetition");
  const Matrix<float> dense = spd_dense(n);
  SymmetricTileMatrix full(n, tile_size);
  full.from_dense(dense);
  const telemetry::TelemetryConfig telemetry_cfg =
      telemetry::telemetry_config();
  std::vector<telemetry::TraceStream> streams(
      static_cast<std::size_t>(ranks));
  std::vector<double> seconds(static_cast<std::size_t>(reps), 0.0);
  const dist::WireVolume wire =
      dist::run_ranks(ranks, [&](dist::Communicator& comm) {
        comm.set_event_recording(telemetry_cfg.trace_enabled());
        Runtime runtime(dist::configured_workers_per_rank(ranks));
        runtime.profiler().set_rank(comm.rank());
        const ProcessGrid grid(ranks);
        dist::DistPotrfOptions options;
        options.precision_map = &map;
        for (int rep = 0; rep < reps; ++rep) {
          dist::DistSymmetricTileMatrix a(n, tile_size, grid, comm.rank());
          a.from_full(full);
          a.apply(map);
          comm.barrier();
          Timer timer;
          dist::dist_tiled_potrf(runtime, comm, a, options);
          if (comm.rank() == 0) {
            seconds[static_cast<std::size_t>(rep)] = timer.seconds();
          }
        }
        if (telemetry_cfg.any_enabled()) {
          telemetry::TraceStream stream =
              telemetry::capture_stream(comm.rank(), runtime.profiler());
          stream.comm = comm.comm_events();
          streams[static_cast<std::size_t>(comm.rank())] = std::move(stream);
        }
      });
  std::sort(seconds.begin(), seconds.end());
  RealDistPotrf result;
  result.wire = wire;
  if (telemetry_cfg.any_enabled()) result.streams = std::move(streams);
  result.median_seconds = seconds[seconds.size() / 2];
  const std::uint64_t total = wire.total_tile_bytes();
  result.wire_bytes = total / static_cast<std::uint64_t>(reps);
  const std::uint64_t fp32_and_wider =
      wire.tile_bytes(Precision::kFp64) + wire.tile_bytes(Precision::kFp32);
  result.wire_bytes_low =
      (total - fp32_and_wider) / static_cast<std::uint64_t>(reps);
  return result;
}

/// The shared "(c) real in-process execution" section of the fig11/fig12
/// scaling benches: parses --real-n/--real-tile/--ranks/--real-reps, runs
/// each (label, precision map) case built by `make_cases(nt)`, prints the
/// measured table, and writes BENCH_*.json when --json is given.
inline void real_dist_potrf_section(
    const CliArgs& args, const std::string& bench_name,
    const std::function<std::vector<std::pair<std::string, PrecisionMap>>(
        std::size_t nt)>& make_cases) {
  const auto n = static_cast<std::size_t>(args.get_long("real-n", 384));
  const auto ts = static_cast<std::size_t>(args.get_long("real-tile", 64));
  const int ranks =
      static_cast<int>(args.get_long("ranks", dist::configured_ranks()));
  const int reps = static_cast<int>(args.get_long("real-reps", 3));
  const std::size_t nt = (n + ts - 1) / ts;
  std::cout << "\n(c) real in-process execution: tiled POTRF, n=" << n
            << ", tile=" << ts << ", ranks=" << ranks << "\n";
  Table table({"precision map", "median s", "GFLOP/s", "wire MiB",
               "low-prec wire MiB"});
  const telemetry::TelemetryConfig telemetry_cfg =
      telemetry::telemetry_config();
  std::vector<BenchRecord> records;
  std::size_t case_index = 0;
  for (const auto& [label, map] : make_cases(nt)) {
    const RealDistPotrf r = run_real_dist_potrf(n, ts, ranks, map, reps);
    const double gflops =
        r.median_seconds > 0.0 ? potrf_op_count(n) / r.median_seconds * 1e-9
                               : 0.0;
    table.add_row(
        {label, Table::num(r.median_seconds, 4), Table::num(gflops, 2),
         Table::num(static_cast<double>(r.wire_bytes) / 1048576.0, 3),
         Table::num(static_cast<double>(r.wire_bytes_low) / 1048576.0, 3)});
    BenchRecord record{label, n,           ts,         ranks,
                       r.median_seconds,   r.wire_bytes, gflops};
    if (telemetry_cfg.any_enabled()) {
      telemetry::RunReportInputs inputs;
      inputs.phase = "dist_potrf";
      inputs.ranks = ranks;
      inputs.streams = &r.streams;
      inputs.wire = &r.wire;
      inputs.include_metrics = false;  // keep BENCH rows compact
      record.telemetry = telemetry::run_report_json(inputs);
      inputs.include_metrics = true;
      telemetry::write_run_artifacts(
          telemetry_cfg,
          "trace_dist_potrf_" + std::to_string(n) + "_r" +
              std::to_string(ranks) + "_c" + std::to_string(case_index) +
              ".json",
          inputs);
      if (telemetry_cfg.report_enabled()) {
        // Strict read-back: the artifact a CI job uploads must parse and
        // must carry real wire traffic — fail the bench loudly otherwise.
        std::ifstream report_in(telemetry_cfg.report_path);
        std::ostringstream report_text;
        report_text << report_in.rdbuf();
        const telemetry::JsonValue doc =
            telemetry::parse_json(report_text.str());
        KGWAS_CHECK_ARG(
            doc.at("wire").at("bytes_total").number > 0.0,
            "RunReport wire.bytes_total is zero for a multi-rank run");
      }
    }
    records.push_back(std::move(record));
    ++case_index;
  }
  table.print(std::cout);
  std::cout << "lowering off-diagonal storage precision shrinks measured "
               "wire bytes (the paper's data-motion argument).\n";
  if (args.has("json")) {
    bench::write_bench_json(args.get("json", "BENCH_" + bench_name + ".json"),
                            bench_name, records);
  }
}

}  // namespace kgwas::bench
