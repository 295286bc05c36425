// TLR compression bench (paper Section VIII): compressed-vs-dense
// footprint and factorize/solve cost of the tile low-rank representation
// across a truncation-tolerance sweep, on the smooth synthetic kernel the
// TLR admissibility argument targets.
//
// Each row factors K + alpha*I densely (tol = 0, the baseline) and per
// tolerance with plan_tlr_compression routed through the TLR-aware tiled
// Cholesky, reporting off-diagonal compressed vs dense bytes, the
// data-motion model's byte count, and median wall times over kReps runs
// for compress + factorize + solve.  Two columns check the compressor
// against the full Jacobi SVD of every off-diagonal tile: the largest
// |rank - Jacobi rank| over the tiles the plan compressed, and the
// plan's tlr.compress_fallbacks (tiles whose range-finder sketch failed
// certification and were recompressed by Jacobi).  Beside the serial
// compress time, `associate s` is the median of kReps associate() runs
// on the same kernel, runtime and tolerance (alpha applied once, by
// associate): the whole phase with its tile preparation spread over the
// runtime's workers.  The dist rows time the plain and the checkpointed 4-rank
// factorization separately, kReps runs each.  `--json BENCH_tlr.json`
// emits the CI artifact rows (compress_* and associate_* rows carry those
// two medians).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "dist/communicator.hpp"
#include "dist/dist_cholesky.hpp"
#include "dist/dist_tile_matrix.hpp"
#include "dist/process_grid.hpp"
#include "krr/associate.hpp"
#include "linalg/low_rank.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tiled_cholesky.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/metrics.hpp"
#include "tile/tile_matrix.hpp"

using namespace kgwas;

namespace {

/// Repetitions behind every median_seconds in the output.
constexpr int kReps = 5;

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

Matrix<float> smooth_kernel(std::size_t n, float alpha) {
  const double width = static_cast<double>(n) * n / 10.0;
  Matrix<float> k(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = static_cast<double>(i) - static_cast<double>(j);
      k(i, j) = static_cast<float>(std::exp(-d * d / width));
    }
  }
  for (std::size_t i = 0; i < n; ++i) k(i, i) += alpha;
  return k;
}

/// Largest |rank - Jacobi rank| over the off-diagonal tiles `planned`
/// holds low-rank; `jacobi` is the full SVD of each off-diagonal tile in
/// column-major triangle order.
std::size_t max_rank_deviation(const SymmetricTileMatrix& planned,
                               const std::vector<Svd>& jacobi, double tol) {
  std::size_t worst = 0;
  std::size_t idx = 0;
  const std::size_t nt = planned.tile_count();
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj + 1; ti < nt; ++ti, ++idx) {
      if (!planned.is_low_rank(ti, tj)) continue;
      const std::size_t rank = planned.low_rank_tile(ti, tj).rank();
      const std::size_t reference =
          truncate_svd(jacobi[idx], tol, planned.slot(ti, tj).rows(),
                       planned.slot(ti, tj).cols())
              .rank();
      worst = std::max(worst, rank > reference ? rank - reference
                                               : reference - rank);
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::print_header(
      "TLR tile compression: footprint and factorize cost vs tolerance",
      "Section VIII (low-rank replacements of dense tiles)");

  const auto n = static_cast<std::size_t>(args.get_long("n", 1024));
  const auto ts = static_cast<std::size_t>(args.get_long("tile", 128));
  const auto workers = static_cast<std::size_t>(args.get_long("workers", 0));
  const float alpha = static_cast<float>(args.get_double("alpha", 2.0));

  const Matrix<float> k = smooth_kernel(n, alpha);
  const Matrix<float> unregularized = smooth_kernel(n, 0.0f);
  const Matrix<float> b(n, 4, 1.0f);
  Runtime runtime(workers);

  // The Jacobi reference spectrum of every off-diagonal tile.
  std::vector<Svd> jacobi;
  {
    SymmetricTileMatrix tiles(n, ts);
    tiles.from_dense(k);
    for (std::size_t tj = 0; tj < tiles.tile_count(); ++tj) {
      for (std::size_t ti = tj + 1; ti < tiles.tile_count(); ++ti) {
        jacobi.push_back(jacobi_svd(tiles.tile(ti, tj).to_fp32()));
      }
    }
  }
  const telemetry::Counter& fallback_count =
      telemetry::MetricRegistry::global().counter("tlr.compress_fallbacks");

  Table table({"tol", "off-diag MiB", "dense MiB", "ratio", "mean rank",
               "max |rank-Jacobi|", "fallbacks", "compress s", "associate s",
               "potrf s", "solve s"});
  std::vector<bench::BenchRecord> records;
  for (const double tol : {0.0, 1e-2, 1e-4, 1e-6}) {
    TlrPolicy policy;
    policy.tol = tol;
    std::vector<double> compress_s, associate_s, potrf_s, solve_s;
    TlrCompressionStats stats;
    std::uint64_t storage_bytes = 0;
    std::uint64_t motion_bytes = 0;
    std::uint64_t fallbacks = 0;
    std::size_t rank_deviation = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      SymmetricTileMatrix tiles(n, ts);
      tiles.from_dense(k);
      const PrecisionMap map(tiles.tile_count(), Precision::kFp32);

      const std::uint64_t fallbacks_before = fallback_count.total();
      const std::uint64_t t0 = Timer::now_ns();
      stats = plan_tlr_compression(tiles, map, policy);
      const std::uint64_t t1 = Timer::now_ns();
      // Every rep plans the same tiles to the same bits: one rep's tally,
      // taken outside the timed steps.
      if (rep == 0) {
        fallbacks = fallback_count.total() - fallbacks_before;
        rank_deviation = max_rank_deviation(tiles, jacobi, tol);
      }
      const std::uint64_t t1_factor = Timer::now_ns();
      tiled_potrf(runtime, tiles);
      const std::uint64_t t2 = Timer::now_ns();
      Matrix<float> x = b;
      tiled_potrs(runtime, tiles, x);
      const std::uint64_t t3 = Timer::now_ns();
      compress_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
      potrf_s.push_back(static_cast<double>(t2 - t1_factor) * 1e-9);
      solve_s.push_back(static_cast<double>(t3 - t2) * 1e-9);
      storage_bytes = tiles.storage_bytes();
      motion_bytes = tiled_potrf_data_motion_bytes(tiles);
    }
    AssociateConfig config;
    config.alpha = alpha;
    config.mode = PrecisionMode::kFixed;
    config.tlr = policy;
    for (int rep = 0; rep < kReps; ++rep) {
      SymmetricTileMatrix tiles(n, ts);
      tiles.from_dense(unregularized);
      const std::uint64_t t0 = Timer::now_ns();
      associate(runtime, tiles, b, config);
      associate_s.push_back(static_cast<double>(Timer::now_ns() - t0) *
                            1e-9);
    }

    // Dense baseline bytes of the tiles that compressed; tol = 0 rows
    // report the all-dense footprint for reference.
    const std::uint64_t off_bytes =
        tol > 0.0 ? stats.compressed_bytes : storage_bytes;
    const std::uint64_t dense_bytes =
        tol > 0.0 ? stats.dense_bytes : storage_bytes;
    const double ratio =
        off_bytes > 0 ? static_cast<double>(dense_bytes) /
                            static_cast<double>(off_bytes)
                      : 0.0;
    const double potrf_median = median(potrf_s);
    const double compress_median = median(compress_s);
    const double associate_median = median(associate_s);
    table.add_row({tol > 0.0 ? Table::num(tol, 6) : "dense",
                   Table::num(static_cast<double>(off_bytes) / 1048576.0, 3),
                   Table::num(static_cast<double>(dense_bytes) / 1048576.0, 3),
                   Table::num(ratio, 2), Table::num(stats.mean_rank, 1),
                   tol > 0.0 ? std::to_string(rank_deviation) : "-",
                   tol > 0.0 ? std::to_string(fallbacks) : "-",
                   Table::num(compress_median, 3),
                   Table::num(associate_median, 3),
                   Table::num(potrf_median, 3),
                   Table::num(median(solve_s), 3)});
    const std::string row =
        tol > 0.0 ? "tlr_tol_" + Table::num(tol, 6) : "dense";
    records.push_back({row, n, ts, 1, potrf_median, motion_bytes, 0.0, {}});
    records.push_back(
        {"compress_" + row, n, ts, 1, compress_median, 0, 0.0, {}});
    records.push_back(
        {"associate_" + row, n, ts, 1, associate_median, 0, 0.0, {}});
  }
  table.print(std::cout);
  std::cout << "rank truncation shrinks the off-diagonal footprint (and the "
               "modelled data motion in bytes_moved) while the factor stays "
               "accurate to the chosen tolerance.\n";

  // Distributed section: the same compressed-vs-dense comparison for the
  // bytes that actually cross ranks — panel-broadcast wire traffic and
  // consistent-cut checkpoint captures, both shipped as slot frames so a
  // compressed tile travels at factor-byte cost.  The plain factorization
  // (checkpoint_interval 0) and the checkpointed one are timed
  // separately, alternating run by run.
  const int dist_ranks = static_cast<int>(args.get_long("ranks", 4));
  const long interval = args.get_long("interval", 2);
  struct DistRun {
    double seconds = 0.0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t checkpoint_bytes = 0;
  };
  const auto run_dist = [&](const SymmetricTileMatrix& full,
                            const PrecisionMap& map, long ckpt_interval) {
    DistRun run;
    std::mutex mutex;
    const dist::WireVolume wire = dist::run_ranks(
        dist_ranks, [&](dist::Communicator& comm) {
          Runtime rt(dist::configured_workers_per_rank(dist_ranks));
          dist::DistSymmetricTileMatrix a(n, ts, ProcessGrid(dist_ranks),
                                          comm.rank());
          a.from_full(full);
          comm.barrier();
          Timer timer;
          dist::DistPotrfOptions options;
          options.precision_map = &map;
          options.checkpoint_interval = ckpt_interval;
          dist::DistFtResult r = dist::dist_tiled_potrf(rt, comm, a, options);
          if (r.active_comm(comm).rank() == 0) {
            std::lock_guard<std::mutex> lock(mutex);
            run.seconds = timer.seconds();
            run.checkpoint_bytes = r.checkpoint_bytes;
          }
        });
    run.wire_bytes = wire.total_tile_bytes();
    return run;
  };
  Table dist_table({"row", "ranks", "wire MiB", "checkpoint MiB", "potrf s",
                    "potrf_ft s"});
  for (const double tol : {0.0, 1e-4}) {
    SymmetricTileMatrix full(n, ts);
    full.from_dense(k);
    TlrPolicy policy;
    policy.tol = tol;
    const PrecisionMap map(full.tile_count(), Precision::kFp32);
    plan_tlr_compression(full, map, policy);
    DistRun plain;
    DistRun checkpointed;
    std::vector<double> plain_s, checkpointed_s;
    for (int rep = 0; rep < kReps; ++rep) {
      plain = run_dist(full, map, 0);
      checkpointed = run_dist(full, map, interval);
      plain_s.push_back(plain.seconds);
      checkpointed_s.push_back(checkpointed.seconds);
    }
    const std::string row = tol > 0.0 ? "tlr" : "dense";
    dist_table.add_row(
        {row, std::to_string(dist_ranks),
         Table::num(static_cast<double>(plain.wire_bytes) / 1048576.0, 3),
         Table::num(
             static_cast<double>(checkpointed.checkpoint_bytes) / 1048576.0,
             3),
         Table::num(median(plain_s), 3), Table::num(median(checkpointed_s), 3)});
    records.push_back({"dist_" + row, n, ts, dist_ranks, median(plain_s),
                       plain.wire_bytes, 0.0, {}});
    records.push_back({"dist_" + row + "_checkpoint", n, ts, dist_ranks,
                       median(checkpointed_s), checkpointed.checkpoint_bytes,
                       0.0, {}});
  }
  dist_table.print(std::cout);
  std::cout << "compressed off-diagonal tiles cross the wire (and land in "
               "checkpoints) as factor pairs, so both columns shrink with "
               "the compression ratio.\n";

  if (args.has("json")) {
    bench::write_bench_json(args.get("json", "BENCH_tlr.json"), "tlr",
                            records);
  }
  return 0;
}
