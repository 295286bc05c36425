// Tests for the telemetry subsystem (src/telemetry): sharded metrics
// registry semantics and concurrency, the strict JSON writer/parser pair,
// the sharded profiler, cross-rank trace merging with send/recv flow
// events, the RunReport serializer, logging rank prefixes, and the
// KGWAS_TRACE / KGWAS_TELEMETRY env knobs end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/status.hpp"
#include "dist/communicator.hpp"
#include "dist/dist_cholesky.hpp"
#include "dist/dist_tile_matrix.hpp"
#include "dist/process_grid.hpp"
#include "krr/associate.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tiled_cholesky.hpp"
#include "mpblas/cpu_features.hpp"
#include "mpblas/kernels.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/trace.hpp"
#include "tile/precision_map.hpp"
#include "tile/tile_matrix.hpp"

namespace kgwas {
namespace {

namespace tel = telemetry;

// ----------------------------------------------------------- registry

TEST(MetricRegistry, CounterAccumulatesAndIsIdempotentByName) {
  tel::MetricRegistry registry;
  tel::Counter& c = registry.counter("test.counter");
  EXPECT_EQ(c.total(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.total(), 42u);
  // Same name -> same metric, not a second cell.
  tel::Counter& again = registry.counter("test.counter");
  EXPECT_EQ(&again, &c);
  again.add(8);
  EXPECT_EQ(c.total(), 50u);
}

TEST(MetricRegistry, KindMismatchThrows) {
  tel::MetricRegistry registry;
  registry.counter("metric.a");
  EXPECT_THROW(registry.gauge("metric.a"), Error);
  EXPECT_THROW(registry.histogram("metric.a"), Error);
  registry.histogram("metric.h");
  EXPECT_THROW(registry.counter("metric.h"), Error);
}

TEST(MetricRegistry, GaugeSetAddUpdateMax) {
  tel::MetricRegistry registry;
  tel::Gauge& g = registry.gauge("test.gauge");
  EXPECT_EQ(g.value(), 0);
  g.set(10);
  EXPECT_EQ(g.add(-4), 6);
  EXPECT_EQ(g.value(), 6);
  tel::Gauge& hw = registry.gauge("test.high_water");
  hw.update_max(6);
  hw.update_max(3);  // lower: no effect
  EXPECT_EQ(hw.value(), 6);
  hw.update_max(9);
  EXPECT_EQ(hw.value(), 9);
}

TEST(MetricRegistry, HistogramLog2BucketSemantics) {
  tel::MetricRegistry registry;
  tel::Histogram& h = registry.histogram("test.hist");
  h.record(0);     // bucket 0
  h.record(1);     // bucket 1
  h.record(2);     // bucket 2 (values 2..3)
  h.record(3);     // bucket 2
  h.record(1024);  // bucket 11 (values 1024..2047)
  const tel::HistogramData d = h.data();
  EXPECT_EQ(d.count, 5u);
  EXPECT_EQ(d.sum, 0u + 1 + 2 + 3 + 1024);
  EXPECT_EQ(d.buckets[0], 1u);
  EXPECT_EQ(d.buckets[1], 1u);
  EXPECT_EQ(d.buckets[2], 2u);
  EXPECT_EQ(d.buckets[11], 1u);
  EXPECT_DOUBLE_EQ(d.mean(), 1030.0 / 5.0);
  // Bucket bounds used as RunReport keys must be unique and ordered.
  EXPECT_EQ(tel::HistogramData::bucket_lo(0), 0u);
  EXPECT_EQ(tel::HistogramData::bucket_lo(1), 1u);
  EXPECT_EQ(tel::HistogramData::bucket_lo(2), 2u);
  EXPECT_EQ(tel::HistogramData::bucket_lo(11), 1024u);
  EXPECT_EQ(tel::HistogramData::bucket_hi(11), 2047u);
}

TEST(MetricRegistry, SnapshotIsSortedByNameAndResetZeroes) {
  tel::MetricRegistry registry;
  registry.counter("z.last").add(3);
  registry.gauge("a.first").set(7);
  registry.histogram("m.middle").record(5);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[1].name, "m.middle");
  EXPECT_EQ(snap[2].name, "z.last");
  EXPECT_EQ(snap[0].level, 7);
  EXPECT_EQ(snap[1].hist.count, 1u);
  EXPECT_EQ(snap[2].value, 3u);

  registry.reset();
  for (const auto& m : registry.snapshot()) {
    EXPECT_EQ(m.value, 0u) << m.name;
    EXPECT_EQ(m.level, 0) << m.name;
    EXPECT_EQ(m.hist.count, 0u) << m.name;
  }
}

// The tentpole's "no shared-mutex on the hot path" claim, checked as
// observable behavior: concurrent tight-loop increments from many threads
// are exactly linear (no lost updates), and under TSan (the sanitize CI
// job runs this binary) a data race on a shared cell would be reported.
TEST(MetricRegistry, ConcurrentIncrementsAreExactlyLinear) {
  tel::MetricRegistry registry;
  tel::Counter& c = registry.counter("test.concurrent");
  tel::Histogram& h = registry.histogram("test.concurrent_hist");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.record(i & 0xFF);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.total(), kThreads * kPerThread);
  EXPECT_EQ(h.data().count, kThreads * kPerThread);
}

TEST(MetricRegistry, ManyRegistriesKeepThreadCachesApart) {
  // More live registries than thread-cache slots: correctness must not
  // depend on the 8-slot cache (evicted entries reattach via the
  // registry's thread map).
  std::vector<std::unique_ptr<tel::MetricRegistry>> registries;
  std::vector<tel::Counter*> counters;
  for (int i = 0; i < 12; ++i) {
    registries.push_back(std::make_unique<tel::MetricRegistry>());
    counters.push_back(&registries.back()->counter("x"));
  }
  for (int round = 0; round < 3; ++round) {
    for (auto* c : counters) c->add(1);
  }
  for (auto* c : counters) EXPECT_EQ(c->total(), 3u);
}

// --------------------------------------------------------- JSON writer

TEST(JsonWriter, EscapesAndClampsNonFinite) {
  std::ostringstream out;
  tel::JsonWriter w(out);
  w.begin_object();
  w.kv("quote\"back\\slash", "tab\there\nnewline");
  w.kv("ctrl", std::string("\x01\x1f", 2));
  w.kv("inf", std::numeric_limits<double>::infinity());
  w.kv("nan", std::nan(""));
  w.kv("pi", 3.5);
  w.end_object();
  const std::string text = out.str();
  EXPECT_NE(text.find("\"quote\\\"back\\\\slash\""), std::string::npos);
  EXPECT_NE(text.find("\\t"), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  EXPECT_NE(text.find("\\u001f"), std::string::npos);
  EXPECT_NE(text.find("\"inf\":0"), std::string::npos);
  EXPECT_NE(text.find("\"nan\":0"), std::string::npos);
  // The writer's own output must satisfy the strict parser.
  EXPECT_NO_THROW(tel::parse_json(text));
}

// --------------------------------------------------------- JSON parser

TEST(JsonParser, AcceptsStrictDocuments) {
  const tel::JsonValue doc = tel::parse_json(
      R"({"a":[1,2.5,-3e2],"b":{"nested":"v"},"t":true,"n":null})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("a").array.size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("a").array[1].number, 2.5);
  EXPECT_EQ(doc.at("b").at("nested").string, "v");
  EXPECT_TRUE(doc.at("t").boolean);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParser, RejectsMalformedDocuments) {
  // Trailing commas.
  EXPECT_THROW(tel::parse_json("[1,2,]"), Error);
  EXPECT_THROW(tel::parse_json(R"({"a":1,})"), Error);
  // Bad escapes and raw control bytes in strings.
  EXPECT_THROW(tel::parse_json(R"({"a":"\q"})"), Error);
  EXPECT_THROW(tel::parse_json(R"({"a":"\u12"})"), Error);
  EXPECT_THROW(tel::parse_json(std::string("{\"a\":\"\x01\"}")), Error);
  // Non-finite and malformed numbers.
  EXPECT_THROW(tel::parse_json("Infinity"), Error);
  EXPECT_THROW(tel::parse_json("NaN"), Error);
  EXPECT_THROW(tel::parse_json("[01]"), Error);
  EXPECT_THROW(tel::parse_json("[1.]"), Error);
  EXPECT_THROW(tel::parse_json("[+1]"), Error);
  // Structure errors.
  EXPECT_THROW(tel::parse_json("{\"a\":1} garbage"), Error);
  EXPECT_THROW(tel::parse_json("{\"a\" 1}"), Error);
  EXPECT_THROW(tel::parse_json("[1 2]"), Error);
  EXPECT_THROW(tel::parse_json(""), Error);
  EXPECT_THROW(tel::parse_json("truely"), Error);
}

// ------------------------------------------------------------ profiler

TEST(Profiler, ShardedConcurrentRecordKeepsEverySpanSorted) {
  Profiler profiler(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        TaskSpan span;
        span.name = "op";
        span.start_ns = static_cast<std::uint64_t>(t * kPerThread + i);
        span.end_ns = span.start_ns + 1;
        span.worker = t;
        profiler.record(span);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto spans = profiler.spans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].start_ns, spans[i].start_ns);
  }
  EXPECT_EQ(profiler.stats().at("op").count,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Profiler, WriteTraceSurvivesEvilSpanNames) {
  Profiler profiler(true);
  TaskSpan span;
  span.name = std::string("ev\"il\\name\x02\n") + "end";
  span.start_ns = 100;
  span.end_ns = 200;
  span.worker = 0;
  profiler.record(span);
  const std::vector<tel::TraceStream> streams{
      tel::capture_stream(0, profiler)};
  tel::RunReportInputs inputs;
  inputs.phase = "trace";
  inputs.streams = &streams;
  const std::string dir = ::testing::TempDir();
  tel::write_run_artifacts({dir, ""}, "kgwas_telemetry_evil_trace.json",
                           inputs);
  std::ifstream in(dir + "/kgwas_telemetry_evil_trace.json");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  // Strict parse: bad escaping of the quote/backslash/control bytes in
  // the span name would be rejected here.
  const tel::JsonValue doc = tel::parse_json(buffer.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.at("traceEvents").is_array());
  // The name round-trips bit-for-bit through escape + parse.
  bool found = false;
  for (const auto& event : doc.at("traceEvents").array) {
    const tel::JsonValue* name = event.find("name");
    if (name != nullptr && name->string == span.name) found = true;
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------- merged trace + RunReport

Matrix<float> spd(std::size_t n) {
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

// A 4-rank dist_tiled_potrf with tracing on produces one merged trace
// with a pid lane per rank and send->recv flow arrows for the panel
// broadcasts, and a RunReport whose wire block is the transport ledger
// byte for byte and whose recovery block counts one factorization.
TEST(CrossRankTrace, FourRankPotrfProducesFlowsAndExactWireReport) {
  tel::MetricRegistry::global().reset();
  const std::size_t n = 128, ts = 32;
  const int ranks = 4;
  SymmetricTileMatrix full(n, ts);
  full.from_dense(spd(n));
  std::vector<tel::TraceStream> streams(static_cast<std::size_t>(ranks));
  const dist::WireVolume volume =
      dist::run_ranks(ranks, [&](dist::Communicator& comm) {
        comm.set_event_recording(true);
        Runtime runtime(1, /*enable_profiling=*/true);
        runtime.profiler().set_rank(comm.rank());
        const ProcessGrid grid(ranks);
        dist::DistSymmetricTileMatrix a(n, ts, grid, comm.rank());
        a.from_full(full);
        dist::dist_tiled_potrf(runtime, comm, a);
        tel::TraceStream stream =
            tel::capture_stream(comm.rank(), runtime.profiler());
        stream.comm = comm.comm_events();
        streams[static_cast<std::size_t>(comm.rank())] = std::move(stream);
      });

  const std::string path =
      ::testing::TempDir() + "/kgwas_merged_trace.json";
  std::vector<tel::TraceStream> stream_vec = streams;
  tel::RunReportInputs inputs;
  inputs.phase = "dist_potrf";
  inputs.ranks = ranks;
  inputs.streams = &stream_vec;
  inputs.wire = &volume;
  tel::write_merged_trace(path, stream_vec, [&](tel::JsonWriter& w) {
    tel::write_run_report_fields(w, inputs);
  });

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const tel::JsonValue doc = tel::parse_json(buffer.str());

  // One pid lane per rank.
  std::set<int> pids;
  std::size_t sends = 0;
  std::set<std::string> flow_starts, flow_ends;
  for (const auto& event : doc.at("traceEvents").array) {
    const tel::JsonValue* pid = event.find("pid");
    if (pid != nullptr) pids.insert(static_cast<int>(pid->number));
    const tel::JsonValue* ph = event.find("ph");
    if (ph == nullptr) continue;
    if (ph->string == "X" && event.at("cat").string == "comm" &&
        event.at("name").string.rfind("send", 0) == 0) {
      ++sends;
    }
    if (ph->string == "s") flow_starts.insert(event.at("id").string);
    if (ph->string == "f") flow_ends.insert(event.at("id").string);
  }
  EXPECT_EQ(pids, (std::set<int>{0, 1, 2, 3}));
  EXPECT_GT(sends, 0u);
  // Panel broadcasts: at least one flow per panel column beyond the last
  // (nt = 4 gives >= 3), and every send arrow lands on a matched recv.
  std::size_t matched = 0;
  for (const auto& id : flow_starts) {
    if (flow_ends.count(id) > 0) ++matched;
  }
  EXPECT_GE(matched, 3u);

  // The embedded RunReport agrees with the ledger, byte for byte.
  const tel::JsonValue& wire = doc.at("otherData").at("wire");
  EXPECT_EQ(static_cast<std::uint64_t>(wire.at("bytes_total").number),
            volume.payload_bytes);
  EXPECT_EQ(static_cast<std::uint64_t>(wire.at("frames").number),
            volume.messages);
  EXPECT_EQ(static_cast<std::uint64_t>(wire.at("tile_bytes_total").number),
            volume.total_tile_bytes());

  // One factorization of the world, whatever the rank count.
  EXPECT_EQ(doc.at("otherData").at("recovery").at("factorizations").number,
            1.0);

  // Each quantity has one store: the metrics fold carries no registry
  // copy of the wire ledger, the scheduler's counters, the recovery
  // stats or the checkpoint tallies.
  for (const auto& metric : doc.at("otherData").at("metrics").object) {
    for (const char* deleted :
         {"wire.frames", "wire.bytes", "wire.tile_bytes.", "recovery.",
          "checkpoint.", "sched.queue_depth"}) {
      EXPECT_NE(metric.first.rfind(deleted, 0), 0u) << metric.first;
    }
  }
}

TEST(RunReport, SerializesSchemaSchedulerAndMetrics) {
  tel::MetricRegistry::global().reset();
  Runtime runtime(2, /*enable_profiling=*/true);
  const int datum = 0;
  for (int i = 0; i < 4; ++i) {
    runtime.submit({"noop", {{&datum, Access::kReadWrite}}}, [] {});
  }
  runtime.wait();
  tel::Histogram& hist =
      tel::MetricRegistry::global().histogram("test.report_histogram");
  for (std::uint64_t v = 1; v <= 4; ++v) hist.record(v);
  std::vector<tel::TraceStream> streams;
  streams.push_back(tel::capture_stream(0, runtime.profiler()));
  tel::RunReportInputs inputs;
  inputs.phase = "unit";
  inputs.ranks = 1;
  inputs.streams = &streams;
  const std::string text = tel::run_report_json(inputs);
  const tel::JsonValue doc = tel::parse_json(text);
  EXPECT_EQ(doc.at("schema").string, "kgwas.run_report.v1");
  EXPECT_EQ(doc.at("phase").string, "unit");
  EXPECT_DOUBLE_EQ(doc.at("scheduler").at("tasks_executed").number, 4.0);
  // No transport ran: the wire block is omitted entirely.
  EXPECT_EQ(doc.find("wire"), nullptr);
  // The metrics fold serializes a registry histogram.
  const tel::JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const tel::JsonValue* serialized = metrics->find("test.report_histogram");
  ASSERT_NE(serialized, nullptr);
  EXPECT_EQ(serialized->at("type").string, "histogram");
  EXPECT_EQ(serialized->at("count").number, 4.0);
  EXPECT_EQ(serialized->at("sum").number, 10.0);
}

TEST(RunReport, EngineBlockRecordsInt8Kernel) {
  // The report names the INT8 microkernel behind the Build numbers: the
  // VNNI kernel exactly when the avx512 variant runs on a host with
  // AVX512-BW and AVX512-VNNI, the portable kernel under every other.
  namespace kernels = mpblas::kernels;
  struct Restore {
    ~Restore() { kernels::set_gemm_arch(std::nullopt); }
  } restore;
  const mpblas::CpuFeatures& f = mpblas::cpu_features();
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    tel::RunReportInputs inputs;
    inputs.phase = "unit";
    inputs.ranks = 1;
    const tel::JsonValue doc = tel::parse_json(tel::run_report_json(inputs));
    const std::string& got = doc.at("engine").at("int8_kernel").string;
    const bool vnni =
        arch == kernels::Arch::kAvx512 && f.avx512bw && f.avx512vnni;
    EXPECT_EQ(got, vnni ? "avx512_vnni" : "generic") << to_string(arch);
    EXPECT_EQ(got, kernels::int8_kernel());
  }
}

// ------------------------------------------------------------- logging

TEST(Logging, FormatLineCarriesRankAndTimestamp) {
  using detail::format_log_line;
  EXPECT_EQ(format_log_line(LogLevel::kWarn, -1, -1.0, "msg"),
            "[kgwas WARN ] msg");
  EXPECT_EQ(format_log_line(LogLevel::kError, 3, -1.0, "boom"),
            "[kgwas r3 ERROR] boom");
  EXPECT_EQ(format_log_line(LogLevel::kInfo, 0, 12.3456, "hello"),
            "[kgwas +12.346s r0 INFO ] hello");
  EXPECT_EQ(format_log_line(LogLevel::kDebug, -1, 0.0, "t"),
            "[kgwas +0.000s DEBUG] t");
}

TEST(Logging, UnknownLevelKnobWarnsAndKeepsWarn) {
  // The level knob is read once per process, at the first log call, so a
  // fresh child process reads it.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("KGWAS_LOG_LEVEL", "verbose", 1);
        std::exit(log_level() == LogLevel::kWarn ? 0 : 1);
      },
      ::testing::ExitedWithCode(0),
      "ignoring KGWAS_LOG_LEVEL='verbose' .*keeping the default warn");
}

TEST(Logging, TimestampKnobIsStrict) {
  // Read once per process, at the first log call, so each value runs in a
  // fresh child process.  1 and on prefix the elapsed seconds; 0, off and
  // empty leave them off; any other value warns and keeps the default.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string on = "\\[kgwas \\+[0-9]+\\.[0-9]{3}s WARN \\] probe";
  const std::string off = "\\[kgwas WARN \\] probe";
  const std::string rejected =
      "\\[kgwas WARN \\] ignoring KGWAS_LOG_TIMESTAMPS='yes' \\(want "
      "1\\|on\\|0\\|off\\); keeping the default off\n" + off;
  const std::pair<const char*, std::string> cases[] = {
      {"1", on},    {"on", on}, {"0", off},
      {"off", off}, {"", off},  {"yes", rejected}};
  for (const auto& [value, pattern] : cases) {
    EXPECT_EXIT(
        {
          ::unsetenv("KGWAS_LOG_LEVEL");
          ::setenv("KGWAS_LOG_TIMESTAMPS", value, 1);
          KGWAS_LOG_WARN("probe");
          std::exit(0);
        },
        ::testing::ExitedWithCode(0), pattern)
        << "KGWAS_LOG_TIMESTAMPS='" << value << "'";
  }
}

TEST(Logging, ThreadRankTagIsPerThread) {
  set_thread_log_rank(5);
  EXPECT_EQ(thread_log_rank(), 5);
  int other_rank = -2;
  std::thread t([&] { other_rank = thread_log_rank(); });
  t.join();
  EXPECT_EQ(other_rank, -1);  // fresh threads are untagged
  set_thread_log_rank(-1);
  EXPECT_EQ(thread_log_rank(), -1);
}

// ------------------------------------------------------- env knobs

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(TelemetryEnv, AssociateWritesTraceAndReportWhenKnobsSet) {
  const std::string dir = ::testing::TempDir() + "/kgwas_telemetry_env";
  std::filesystem::remove_all(dir);
  const std::string report_path = dir + "/run_report.json";
  ScopedEnv trace_env("KGWAS_TRACE", dir.c_str());
  ScopedEnv report_env("KGWAS_TELEMETRY", report_path.c_str());

  // The Runtime is constructed after the knobs are set: KGWAS_TRACE must
  // auto-enable profiling with no API change at the call site.
  Runtime runtime(2);
  const std::size_t n = 64, ts = 32;
  SymmetricTileMatrix k(n, ts);
  k.from_dense(spd(n));
  Matrix<float> phenotypes(n, 2);
  for (std::size_t j = 0; j < 2; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      phenotypes(i, j) = 0.01f * static_cast<float>(i + j);
    }
  }
  AssociateConfig config;
  config.mode = PrecisionMode::kFixed;
  config.tlr.tol = 0.0;
  associate(runtime, k, phenotypes, config);

  // Both artifacts exist, parse strictly, and carry spans of this run.
  std::ifstream trace_in(dir + "/trace_associate.json");
  ASSERT_TRUE(trace_in.good()) << "trace_associate.json was not written";
  std::stringstream trace_text;
  trace_text << trace_in.rdbuf();
  const tel::JsonValue trace = tel::parse_json(trace_text.str());
  EXPECT_GT(trace.at("traceEvents").array.size(), 0u);

  std::ifstream report_in(report_path);
  ASSERT_TRUE(report_in.good()) << "run report was not written";
  std::stringstream report_text;
  report_text << report_in.rdbuf();
  const tel::JsonValue report = tel::parse_json(report_text.str());
  EXPECT_EQ(report.at("schema").string, "kgwas.run_report.v1");
  EXPECT_EQ(report.at("phase").string, "associate");
  EXPECT_GT(report.at("scheduler").at("tasks_executed").number, 0.0);
  std::filesystem::remove_all(dir);
}

TEST(TelemetryEnv, ConfigIsReadFreshPerCall) {
  {
    ScopedEnv trace_env("KGWAS_TRACE", "/tmp/somewhere");
    ScopedEnv report_env("KGWAS_TELEMETRY", nullptr);
    const tel::TelemetryConfig cfg = tel::telemetry_config();
    EXPECT_TRUE(cfg.trace_enabled());
    EXPECT_FALSE(cfg.report_enabled());
  }
  {
    ScopedEnv trace_env("KGWAS_TRACE", nullptr);
    ScopedEnv report_env("KGWAS_TELEMETRY", nullptr);
    const tel::TelemetryConfig cfg = tel::telemetry_config();
    EXPECT_FALSE(cfg.any_enabled());
  }
}

}  // namespace
}  // namespace kgwas
