// Fault-tolerance overhead and recovery-latency bench (BENCH_fault.json).
//
// (a) Checkpoint overhead: fault-free plain dist_tiled_potrf vs the same
//     driver checkpointing at intervals {4, 8, 16} — the FT acceptance
//     bar is <= 10% median overhead at the default interval.
// (b) Recovery latency: a rank killed at a fixed panel step, swept over
//     the same intervals — tighter intervals re-execute fewer panel
//     steps after the restore, at the price of more checkpoint traffic.
//
// The --json rows carry no rate (gflops 0, "not accounted"): a row's
// overhead or slowdown is its median_seconds against potrf_baseline's,
// as the console tables print it.
//
// Telemetry: with KGWAS_TELEMETRY set, the kill run's RunReport (fault
// block included) is written for the CI chaos job to upload.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "dist/communicator.hpp"
#include "dist/dist_cholesky.hpp"
#include "dist/dist_tile_matrix.hpp"
#include "dist/fault.hpp"
#include "dist/process_grid.hpp"
#include "linalg/precision_policy.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/run_report.hpp"

namespace kgwas {
namespace {

using dist::Communicator;
using dist::FaultPlan;

struct FtRun {
  double median_seconds = 0.0;
  telemetry::FaultSummary ft;  ///< rank 0's outcome of the last repetition
  std::uint64_t wire_bytes = 0;
};

/// One measured configuration: `interval` <= 0 runs the plain
/// (checkpoint-free) factorization; a nonempty plan injects its faults
/// on every repetition.
FtRun run_case(std::size_t n, std::size_t ts, int ranks, long interval,
               const FaultPlan& plan, const PrecisionMap& map, int reps) {
  SymmetricTileMatrix full(n, ts);
  full.from_dense(bench::spd_dense(n));
  map.apply(full);
  FtRun out;
  std::vector<double> seconds(static_cast<std::size_t>(reps), 0.0);
  std::mutex mutex;
  for (int rep = 0; rep < reps; ++rep) {
    const dist::WireVolume wire =
        dist::run_ranks(ranks, plan, [&](Communicator& comm) {
          Runtime rt(dist::configured_workers_per_rank(ranks));
          const ProcessGrid grid(ranks);
          dist::DistSymmetricTileMatrix a(n, ts, grid, comm.rank());
          a.from_full(full);
          comm.barrier();
          Timer timer;
          dist::DistPotrfOptions options;
          options.precision_map = &map;
          options.checkpoint_interval = std::max(interval, 0L);
          dist::DistFtResult r = dist::dist_tiled_potrf(rt, comm, a, options);
          if (r.active_comm(comm).rank() == 0) {
            std::lock_guard<std::mutex> lock(mutex);
            seconds[static_cast<std::size_t>(rep)] = timer.seconds();
            out.ft = r;
          }
        });
    out.wire_bytes = wire.total_tile_bytes();
  }
  std::sort(seconds.begin(), seconds.end());
  out.median_seconds = seconds[seconds.size() / 2];
  return out;
}

}  // namespace
}  // namespace kgwas

int main(int argc, char** argv) {
  using namespace kgwas;
  const CliArgs args(argc, argv);
  // Checkpoint traffic is O(n^2) against O(n^3) compute, so the overhead
  // measurement needs a problem large enough for compute to dominate.
  const auto n = static_cast<std::size_t>(args.get_long("n", 1536));
  const auto ts = static_cast<std::size_t>(args.get_long("tile", 128));
  const int ranks =
      static_cast<int>(args.get_long("ranks", dist::configured_ranks() > 1
                                                  ? dist::configured_ranks()
                                                  : 4));
  const int reps = static_cast<int>(args.get_long("reps", 3));
  const std::size_t nt = (n + ts - 1) / ts;
  const long kill_step = args.get_long("kill-step", static_cast<long>(nt) / 2);
  const PrecisionMap map =
      band_precision_map(nt, 0.34, Precision::kFp16, Precision::kFp32);

  bench::print_header(
      "Elastic fault tolerance: checkpoint overhead and recovery latency",
      "robustness extension of the distributed mixed-precision solver");
  std::cout << "n=" << n << " tile=" << ts << " ranks=" << ranks
            << " reps=" << reps << " kill-step=" << kill_step << "\n\n";

  std::vector<bench::BenchRecord> records;
  // Untimed warmup: thread pools, allocators and page faults otherwise
  // land entirely on the baseline measurement.
  run_case(n, ts, ranks, 0, FaultPlan{}, map, 1);
  const FtRun baseline = run_case(n, ts, ranks, 0, FaultPlan{}, map, reps);
  records.push_back({"potrf_baseline", n, ts, ranks, baseline.median_seconds,
                     baseline.wire_bytes, 0.0});

  // (a) fault-free checkpoint overhead vs interval.
  Table overhead({"interval", "median s", "overhead %", "ckpt MiB", "cuts"});
  const long default_interval = dist::configured_checkpoint_interval();
  double default_overhead_pct = 0.0;
  for (const long interval : {4L, 8L, 16L}) {
    const FtRun r = run_case(n, ts, ranks, interval, FaultPlan{}, map, reps);
    const double pct =
        baseline.median_seconds > 0.0
            ? (r.median_seconds / baseline.median_seconds - 1.0) * 100.0
            : 0.0;
    if (interval == default_interval) default_overhead_pct = pct;
    overhead.add_row(
        {std::to_string(interval), Table::num(r.median_seconds, 4),
         Table::num(pct, 2),
         Table::num(static_cast<double>(r.ft.checkpoint_bytes) / 1048576.0,
                    3),
         std::to_string(r.ft.checkpoints)});
    records.push_back({"ft_interval_" + std::to_string(interval), n, ts,
                       ranks, r.median_seconds, r.ft.checkpoint_bytes, 0.0});
  }
  std::cout << "(a) fault-free overhead of checkpointed vs plain "
               "dist_tiled_potrf\n";
  overhead.print(std::cout);
  std::cout << "overhead at default interval (" << default_interval
            << "): " << default_overhead_pct << "% (budget: 10%)\n\n";

  // (b) recovery latency: one rank killed at a round boundary.  A seeded
  // KGWAS_FAULT_PLAN in the environment (the CI chaos job) overrides the
  // constructed kill so external plans drive the same measurement.
  const FaultPlan env_plan = FaultPlan::from_env();
  Table recovery({"interval", "median s", "slowdown %", "restore cut",
                  "survivors"});
  for (const long interval : {4L, 8L, 16L}) {
    const long step =
        std::max(interval, (kill_step / interval) * interval);  // boundary
    if (step >= static_cast<long>(nt)) continue;
    const FaultPlan plan =
        env_plan.empty() ? FaultPlan::parse(
                               "kill:rank=" + std::to_string(ranks - 1) +
                               ":step=" + std::to_string(step))
                         : env_plan;
    const FtRun r = run_case(n, ts, ranks, interval, plan, map, reps);
    const double pct =
        baseline.median_seconds > 0.0
            ? (r.median_seconds / baseline.median_seconds - 1.0) * 100.0
            : 0.0;
    recovery.add_row(
        {std::to_string(interval), Table::num(r.median_seconds, 4),
         Table::num(pct, 2), std::to_string(r.ft.last_restore_cut),
         std::to_string(r.ft.final_ranks.size())});
    bench::BenchRecord record{"ft_kill_interval_" + std::to_string(interval),
                              n, ts, ranks, r.median_seconds,
                              r.ft.checkpoint_bytes, 0.0};
    const telemetry::TelemetryConfig telemetry_cfg =
        telemetry::telemetry_config();
    if (telemetry_cfg.report_enabled()) {
      telemetry::RunReportInputs inputs;
      inputs.phase = "dist_potrf_ft";
      inputs.ranks = ranks;
      inputs.fault = &r.ft;
      telemetry::write_run_report(telemetry_cfg.report_path, inputs);
      record.telemetry = telemetry::run_report_json(inputs);
    }
    records.push_back(std::move(record));
  }
  if (env_plan.empty()) {
    std::cout << "(b) recovery latency: rank " << (ranks - 1)
              << " killed at a round boundary near step " << kill_step
              << "\n";
  } else {
    std::cout << "(b) recovery latency under the seeded KGWAS_FAULT_PLAN\n";
  }
  recovery.print(std::cout);
  std::cout << "tighter intervals bound the re-executed panel steps; wider "
               "ones cut the checkpoint traffic.\n";

  if (args.has("json")) {
    bench::write_bench_json(args.get("json", "BENCH_fault.json"), "fault",
                            records);
  }
  // The acceptance bar, enforced where CI can see it: checkpointing at
  // the default interval must not cost more than 10% on a fault-free run.
  if (args.get_bool("enforce-overhead", false) &&
      default_overhead_pct > 10.0) {
    std::cerr << "FAIL: checkpoint overhead " << default_overhead_pct
              << "% exceeds the 10% budget at the default interval\n";
    return 1;
  }
  return 0;
}
