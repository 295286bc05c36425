// Figure 7: weak scalability of the Build phase (INT8 TC distance
// calculations) on Alps, 256 -> 4096 GH200 GPUs, memory-filling sizes.
// Paper: 107.40 / 208.07 / 382.73 / 671.03 / 1296.00 PFlop/s (12.07x).
//
// The second section is measured, not modeled: it runs the Build phase on
// this node through the dataflow runtime and reports the priority
// work-stealing scheduler's efficiency counters (steals, queue depth,
// parallel efficiency).
#include <iostream>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "krr/build.hpp"
#include "perfmodel/scaling_model.hpp"
#include "runtime/runtime.hpp"

using namespace kgwas;

namespace {

void measured_scheduler_section(std::size_t n_patients, std::size_t n_snps,
                                std::size_t workers) {
  std::cout << "\n--- measured: Build phase scheduler efficiency ("
            << n_patients << " patients, " << n_snps << " SNPs, " << workers
            << " workers) ---\n";
  const GenotypeMatrix g = simulate_random_genotypes(n_patients, n_snps, 7);
  const Matrix<float> conf(n_patients, 0);
  BuildConfig config;
  config.tile_size = 64;
  config.gamma = 0.01;

  Table table({"scheduler", "build s", "tasks", "steals", "avg depth",
               "max depth", "efficiency"});
  Runtime rt(workers, /*enable_profiling=*/true);
  // Warm-up pass so thread creation and allocator effects are excluded;
  // reset_profiling also zeroes the scheduler's cumulative counters so
  // the table reflects only the measured build.
  (void)build_kernel_matrix(rt, g, conf, config);
  rt.reset_profiling();

  const std::uint64_t t0 = Timer::now_ns();
  const SymmetricTileMatrix k = build_kernel_matrix(rt, g, conf, config);
  const double seconds = static_cast<double>(Timer::now_ns() - t0) * 1e-9;
  const SchedulerStats sched = rt.profiler().scheduler_stats();
  table.add_row({"priority-ws", Table::num(seconds, 3),
                 std::to_string(sched.tasks_executed),
                 std::to_string(sched.tasks_stolen),
                 Table::num(sched.avg_queue_depth(), 1),
                 std::to_string(sched.max_queue_depth),
                 Table::num(rt.profiler().parallel_efficiency(rt.workers()),
                            3)});
  (void)k;
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::print_header("Build phase weak scaling on Alps (perf model)",
                      "Fig. 7 (256..4096 GH200, PFlop/s, 12.07x annotation)");

  const ScalingModel model(alps_system());
  const PrecisionMix mix{Precision::kFp32, Precision::kFp8E4M3, 1.0};
  Table table({"GPUs", "matrix size", "N_S", "PFlop/s", "per-GPU TFlop/s"});
  double first = 0.0, last = 0.0;
  for (const int gpus : {256, 512, 1024, 2048, 4096}) {
    const double n = model.max_matrix_size(gpus, mix);
    const double ns = n;  // N_P = N_S as in the paper's weak-scaling runs
    const ModelResult r = model.build(n, ns, gpus);
    if (gpus == 256) first = r.pflops;
    last = r.pflops;
    table.add_row({std::to_string(gpus), Table::num(n / 1e6, 2) + "M",
                   Table::num(ns / 1e6, 2) + "M", Table::num(r.pflops, 2),
                   Table::num(r.per_gpu_tflops, 1)});
  }
  table.print(std::cout);
  std::cout << "\nspeedup 256 -> 4096 GPUs: " << Table::num(last / first, 2)
            << "x (paper: 12.07x, 75% parallel efficiency)\n";

  measured_scheduler_section(args.get_long("patients", 768),
                             args.get_long("snps", 512),
                             args.get_long("workers", 8));
  return 0;
}
