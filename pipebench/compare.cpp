// bench_compare: judges one bench_pipeline result against another, metric
// by metric, with the regression bounds BENCHMARK.json fixes.
//
//   bench_compare [--bounds BENCHMARK.json] BASE.json NEW.json
//   bench_compare [--bounds BENCHMARK.json] BASE1 NEW1 BASE2 NEW2 ...
//
// Files are bench_results.json documents written by bench_pipeline.  With
// one pair, a metric's spread is the wider of the two files' own
// interquartile ranges (over reps).  With several pairs (run alternately,
// base first then new, or the other way round) each side is summarized
// over its files' medians, and the share of pairs the new side wins is
// printed too.  For every workload and end-to-end metric the verdict is:
//
//   worse       the new median is worse than the base by more than the bound
//   unresolved  the spread is wider than the bound, unless every new run
//               beats every base run
//   better      the new median is better by more than the spread, and the
//               new side wins at least 9 in 10 pairs (one pair: both sides
//               have more than one sample, so the spread is known)
//   same        otherwise
//
// Exits 1 when any verdict is "worse" or a metric is missing, else 0.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "pipeline/stats.hpp"
#include "telemetry/json.hpp"

namespace {

using kgwas::telemetry::JsonValue;
using pipebench::Summary;

struct Bound {
  std::string name;
  bool lower_is_better = true;
  double bound = 0.0;
};

JsonValue load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return kgwas::telemetry::parse_json(text.str());
}

std::vector<Bound> load_bounds(const std::string& path) {
  const JsonValue doc = load(path);
  std::vector<Bound> bounds;
  for (const JsonValue& m : doc.at("end_to_end").array) {
    bounds.push_back({m.at("name").string, m.at("better").string == "lower",
                      m.at("bound").number});
  }
  return bounds;
}

/// The workload's entry for `metric`, or nullptr when absent.
const JsonValue* find_metric(const JsonValue& doc, const std::string& workload,
                             const std::string& metric) {
  const JsonValue* w = doc.at("workloads").find(workload);
  if (w == nullptr) return nullptr;
  const JsonValue* e2e = w->find("end_to_end");
  return e2e == nullptr ? nullptr : e2e->find(metric);
}

Summary file_summary(const JsonValue& m) {
  return Summary{m.at("median").number, m.at("q1").number, m.at("q3").number,
                 static_cast<std::size_t>(m.at("n").number)};
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const kgwas::CliArgs args(argc, argv);
    const std::vector<std::string>& files = args.positional();
    if (files.size() < 2 || files.size() % 2 != 0) {
      std::fprintf(stderr,
                   "usage: bench_compare [--bounds BENCHMARK.json] BASE NEW "
                   "[BASE NEW ...]\n");
      return 2;
    }
    const std::vector<Bound> bounds =
        load_bounds(args.get("bounds", "BENCHMARK.json"));
    std::vector<JsonValue> base, next;
    for (std::size_t i = 0; i < files.size(); i += 2) {
      base.push_back(load(files[i]));
      next.push_back(load(files[i + 1]));
    }
    const std::size_t pairs = base.size();

    std::printf("%-12s %-20s %12s %12s %8s %8s %7s %6s  %s\n", "workload",
                "metric", "base", "new", "change", "spread", "bound", "wins",
                "verdict");
    bool regression = false;
    for (const auto& entry : base.front().at("workloads").object) {
      const std::string& workload = entry.first;
      for (const Bound& b : bounds) {
        std::vector<double> base_medians, new_medians;
        Summary base_file, new_file;
        bool missing = false;
        for (std::size_t p = 0; p < pairs; ++p) {
          const JsonValue* bm = find_metric(base[p], workload, b.name);
          const JsonValue* nm = find_metric(next[p], workload, b.name);
          if (bm == nullptr || nm == nullptr) {
            missing = true;
            break;
          }
          base_file = file_summary(*bm);
          new_file = file_summary(*nm);
          base_medians.push_back(base_file.median);
          new_medians.push_back(new_file.median);
        }
        if (missing) {
          std::printf("%-12s %-20s %12s %12s %8s %8s %7s %6s  missing\n",
                      workload.c_str(), b.name.c_str(), "-", "-", "-", "-", "-",
                      "-");
          regression = true;
          continue;
        }
        const Summary bs =
            pairs == 1 ? base_file : pipebench::summarize(base_medians);
        const Summary ns =
            pairs == 1 ? new_file : pipebench::summarize(new_medians);
        const double spread = std::max(bs.spread(), ns.spread());
        // Positive = the new side is worse, as a share of the base median.
        const double sign = b.lower_is_better ? 1.0 : -1.0;
        const double diff = sign * (ns.median - bs.median);
        const double change = bs.median != 0.0 ? diff / std::fabs(bs.median)
                              : diff == 0.0    ? 0.0
                                               : diff * INFINITY;
        std::size_t wins = 0;
        for (std::size_t p = 0; p < pairs; ++p) {
          if (sign * (new_medians[p] - base_medians[p]) < 0.0) ++wins;
        }
        const auto [base_lo, base_hi] =
            std::minmax_element(base_medians.begin(), base_medians.end());
        const auto [new_lo, new_hi] =
            std::minmax_element(new_medians.begin(), new_medians.end());
        const bool dominates =
            pairs > 1 && (b.lower_is_better ? *new_hi < *base_lo
                                            : *new_lo > *base_hi);
        const double win_share =
            static_cast<double>(wins) / static_cast<double>(pairs);
        const char* verdict = "same";
        if (spread > b.bound) {
          verdict = dominates ? "better" : "unresolved";
        } else if (change > b.bound) {
          verdict = "worse";
          regression = true;
        } else if (change < -spread && change < 0.0 &&
                   (pairs > 1 ? win_share >= 0.9 : bs.n > 1 && ns.n > 1)) {
          verdict = "better";
        }
        std::printf("%-12s %-20s %12.6g %12.6g %+7.2f%% %7.2f%% %6.1f%% ",
                    workload.c_str(), b.name.c_str(), bs.median, ns.median,
                    100.0 * change, 100.0 * spread, 100.0 * b.bound);
        if (pairs > 1) {
          std::printf("%5.0f%%  %s\n", 100.0 * win_share, verdict);
        } else {
          std::printf("%6s  %s\n", "-", verdict);
        }
      }
    }
    return regression ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }
}
