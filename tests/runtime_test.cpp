// Tests for the dataflow runtime: dependency semantics, stress
// equivalence with serial execution, exceptions, profiling.
#include <gtest/gtest.h>

#include <atomic>

#include "common/status.hpp"
#include <cctype>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/run_report.hpp"

namespace kgwas {
namespace {

TEST(Runtime, ReadAfterWriteOrdering) {
  Runtime rt(4);
  int value = 0;
  rt.submit({"write", {{&value, Access::kWrite}}}, [&] { value = 42; });
  int seen = -1;
  rt.submit({"read", {{&value, Access::kRead}}}, [&] { seen = value; });
  rt.wait();
  EXPECT_EQ(seen, 42);
}

TEST(Runtime, WriteAfterReadOrdering) {
  Runtime rt(4);
  std::atomic<int> stage{0};
  std::vector<int> read_saw(8, -1);
  // Several readers of the initial value, then a writer: the writer must
  // wait for every reader.
  rt.submit({"init", {{&stage, Access::kWrite}}}, [&] { stage = 1; });
  for (int r = 0; r < 8; ++r) {
    rt.submit({"read", {{&stage, Access::kRead}}},
              [&, r] { read_saw[r] = stage; });
  }
  rt.submit({"overwrite", {{&stage, Access::kWrite}}}, [&] { stage = 2; });
  rt.wait();
  for (int r = 0; r < 8; ++r) EXPECT_EQ(read_saw[r], 1);
}

TEST(Runtime, ConcurrentReadersShareAccess) {
  Runtime rt(4);
  std::atomic<int> count{0};
  rt.submit({"seed", {{&count, Access::kWrite}}}, [&] { count = 0; });
  for (int r = 0; r < 32; ++r) {
    rt.submit({"read", {{&count, Access::kRead}}},
              [&] { count.fetch_add(1); });
  }
  rt.wait();
  EXPECT_EQ(count.load(), 32);
}

TEST(Runtime, IndependentHandlesRunUnordered) {
  // No dependency between data: all tasks must complete regardless.
  Runtime rt(4);
  std::atomic<int> done{0};
  std::vector<int> data(100);
  for (int i = 0; i < 100; ++i) {
    rt.submit({"inc", {{&data[i], Access::kWrite}}},
              [&] { done.fetch_add(1); });
  }
  rt.wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(Runtime, ExceptionPropagatesFromWait) {
  Runtime rt(2);
  std::atomic<int> ok{0};
  rt.submit({"boom", {{&ok, Access::kWrite}}},
            [] { throw NumericalError("pivot failure", 3); });
  EXPECT_THROW(rt.wait(), NumericalError);
  // Runtime stays usable after a failure.
  rt.submit({"fine", {{&ok, Access::kWrite}}}, [&] { ok = 1; });
  rt.wait();
  EXPECT_EQ(ok.load(), 1);
}

TEST(Runtime, SubmitFromInsideTask) {
  Runtime rt(2);
  std::atomic<int> value{0};
  rt.submit({"outer", {{&value, Access::kWrite}}}, [&] {
    value = 1;
    rt.submit({"inner", {{&value, Access::kReadWrite}}},
              [&] { value.fetch_add(10); });
  });
  rt.wait();
  EXPECT_EQ(value.load(), 11);
}

/// Stress test: a random chain program over K cells executed through the
/// runtime must equal serial execution.  Each task reads some cells and
/// overwrites one with a deterministic function of what it read.
TEST(Runtime, RandomProgramMatchesSerialExecution) {
  constexpr int kCells = 12;
  constexpr int kTasks = 400;
  Rng rng(77);

  struct Op {
    int target;
    std::vector<int> sources;
  };
  std::vector<Op> program;
  program.reserve(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    Op op;
    op.target = static_cast<int>(rng.uniform_index(kCells));
    const int n_src = 1 + static_cast<int>(rng.uniform_index(3));
    for (int s = 0; s < n_src; ++s) {
      op.sources.push_back(static_cast<int>(rng.uniform_index(kCells)));
    }
    program.push_back(std::move(op));
  }

  auto apply = [](std::vector<long>& cells, const Op& op) {
    long acc = 1;
    for (int s : op.sources) acc = (acc * 31 + cells[s]) % 1000003;
    cells[op.target] = acc;
  };

  // Serial reference.
  std::vector<long> serial(kCells);
  std::iota(serial.begin(), serial.end(), 1);
  for (const Op& op : program) apply(serial, op);

  // Runtime execution with 4 workers.
  std::vector<long> cells(kCells);
  std::iota(cells.begin(), cells.end(), 1);
  Runtime rt(4);
  for (const Op& op : program) {
    std::vector<Dep> deps{{&cells[op.target], Access::kReadWrite}};
    for (int s : op.sources) deps.push_back({&cells[s], Access::kRead});
    rt.submit({"op", std::move(deps)},
              [&cells, &apply, &op] { apply(cells, op); });
  }
  rt.wait();
  EXPECT_EQ(cells, serial);
}

TEST(Runtime, ProfilerRecordsSpans) {
  Runtime rt(2, /*enable_profiling=*/true);
  const int datum = 0;
  for (int i = 0; i < 5; ++i) {
    rt.submit({"kernel_a", {{&datum, Access::kReadWrite}}}, [] {});
  }
  rt.wait();
  const auto stats = rt.profiler().stats();
  ASSERT_TRUE(stats.count("kernel_a"));
  EXPECT_EQ(stats.at("kernel_a").count, 5u);
  EXPECT_GE(rt.profiler().makespan_seconds(), 0.0);
  EXPECT_EQ(rt.profiler().spans().size(), 5u);
}

// --- Minimal recursive-descent JSON validator for the trace test. ------
// Accepts the JSON value grammar (objects, arrays, strings, numbers,
// true/false/null); returns false on any syntax error or trailing junk.
namespace json_check {

struct Cursor {
  const std::string& s;
  std::size_t i = 0;
  bool ok = true;
  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r')) {
      ++i;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
};

bool parse_value(Cursor& c);

bool parse_string(Cursor& c) {
  if (!c.eat('"')) return false;
  while (c.i < c.s.size() && c.s[c.i] != '"') {
    if (c.s[c.i] == '\\') ++c.i;  // skip the escaped char
    ++c.i;
  }
  return c.i < c.s.size() && c.s[c.i++] == '"';
}

bool parse_number(Cursor& c) {
  const std::size_t start = c.i;
  if (c.i < c.s.size() && c.s[c.i] == '-') ++c.i;
  while (c.i < c.s.size() &&
         (std::isdigit(static_cast<unsigned char>(c.s[c.i])) ||
          c.s[c.i] == '.' || c.s[c.i] == 'e' || c.s[c.i] == 'E' ||
          c.s[c.i] == '+' || c.s[c.i] == '-')) {
    ++c.i;
  }
  return c.i > start;
}

bool parse_object(Cursor& c) {
  if (c.eat('}')) return true;
  for (;;) {
    c.skip_ws();
    if (!parse_string(c)) return false;
    if (!c.eat(':')) return false;
    if (!parse_value(c)) return false;
    if (c.eat(',')) continue;
    return c.eat('}');
  }
}

bool parse_array(Cursor& c) {
  if (c.eat(']')) return true;
  for (;;) {
    if (!parse_value(c)) return false;
    if (c.eat(',')) continue;
    return c.eat(']');
  }
}

bool parse_value(Cursor& c) {
  c.skip_ws();
  if (c.i >= c.s.size()) return false;
  const char ch = c.s[c.i];
  if (ch == '{') {
    ++c.i;
    return parse_object(c);
  }
  if (ch == '[') {
    ++c.i;
    return parse_array(c);
  }
  if (ch == '"') return parse_string(c);
  if (c.s.compare(c.i, 4, "true") == 0) { c.i += 4; return true; }
  if (c.s.compare(c.i, 5, "false") == 0) { c.i += 5; return true; }
  if (c.s.compare(c.i, 4, "null") == 0) { c.i += 4; return true; }
  return parse_number(c);
}

bool valid(const std::string& text) {
  Cursor c{text};
  if (!parse_value(c)) return false;
  c.skip_ws();
  return c.i == text.size();
}

}  // namespace json_check

TEST(Profiler, WriteTraceEmitsParsableJson) {
  Runtime rt(2, /*enable_profiling=*/true);
  const int datum = 0;
  for (int i = 0; i < 4; ++i) {
    rt.submit({"kernel \"quoted\"\ttab", {{&datum, Access::kReadWrite}}},
              [] {});
  }
  rt.wait();

  const std::vector<telemetry::TraceStream> streams{
      telemetry::capture_stream(0, rt.profiler())};
  telemetry::RunReportInputs inputs;
  inputs.phase = "trace";
  inputs.streams = &streams;
  const std::string dir = ::testing::TempDir();
  telemetry::write_run_artifacts({dir, ""}, "kgwas_trace.json", inputs);

  std::ifstream in(dir + "/kgwas_trace.json");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  ASSERT_TRUE(json_check::valid(text)) << "trace is not valid JSON:\n"
                                       << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"tasks_executed\":4"), std::string::npos);
  // Task names with quotes/control chars must have been escaped.
  EXPECT_NE(text.find("kernel \\\"quoted\\\"\\ttab"), std::string::npos);
}

TEST(Profiler, WorkerStatsAggregatePerWorker) {
  Runtime rt(2, /*enable_profiling=*/true);
  const int datum = 0;
  for (int i = 0; i < 12; ++i) {
    rt.submit({"t", {{&datum, Access::kReadWrite}}}, [] {});
  }
  rt.wait();
  const auto per_worker = rt.profiler().worker_stats();
  std::uint64_t total = 0;
  for (const auto& [worker, stats] : per_worker) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 2);
    total += stats.tasks;
    EXPECT_GE(stats.busy_seconds, 0.0);
  }
  EXPECT_EQ(total, 12u);
  EXPECT_GE(rt.profiler().parallel_efficiency(rt.workers()), 0.0);
  EXPECT_LE(rt.profiler().parallel_efficiency(rt.workers()), 1.0);
}

TEST(Runtime, DestroyRightAfterTheLastTaskFinishes) {
  // Regression: the scheduler was the first member, so ~Runtime destroyed
  // the done signal before joining the workers, while the worker that
  // finished the last task could still be notifying it (ThreadSanitizer
  // reports the race).  Spinning until the body has run, then a little
  // longer each round, lands wait() in that window.
  for (int i = 0; i < 300; ++i) {
    Runtime rt(2);
    std::atomic<bool> ran{false};
    rt.submit({"t", {{&ran, Access::kWrite}}}, [&] { ran.store(true); });
    while (!ran.load()) {
    }
    std::atomic<int> spin{0};
    while (spin.fetch_add(1, std::memory_order_relaxed) < (i % 64) * 8) {
    }
    rt.wait();
  }
}

TEST(Runtime, AddressNamedTwiceByOneTaskIsNotItsOwnPredecessor) {
  // A task may name one address more than once, in any order of access
  // modes (an output it also reads as an input).  It must not wait for
  // itself, and it must still be ordered after the earlier writer and
  // before the later reader of that address.
  Runtime rt(2);
  int value = 0;
  rt.submit({"init", {{&value, Access::kWrite}}}, [&] { value = 1; });
  rt.submit({"twice",
             {{&value, Access::kWrite},
              {&value, Access::kRead},
              {&value, Access::kReadWrite},
              {&value, Access::kRead}}},
            [&] { value = value * 10 + 2; });
  int seen = -1;
  rt.submit({"read", {{&value, Access::kRead}}}, [&] { seen = value; });
  rt.wait();
  EXPECT_EQ(seen, 12);
}

TEST(Runtime, WaitIsReentrant) {
  Runtime rt(2);
  rt.wait();  // empty graph
  std::atomic<int> n{0};
  rt.submit({"a", {{&n, Access::kWrite}}}, [&] { n.fetch_add(1); });
  rt.wait();
  rt.submit({"b", {{&n, Access::kWrite}}}, [&] { n.fetch_add(1); });
  rt.wait();
  EXPECT_EQ(n.load(), 2);
}

}  // namespace
}  // namespace kgwas
