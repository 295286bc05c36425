#include "telemetry/trace.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/status.hpp"
#include "telemetry/json.hpp"

namespace kgwas::telemetry {

namespace {

// Synthetic tids for per-rank tracks that are not runtime workers.
constexpr int kCommTid = 1000000;      // transport send/recv slices
constexpr int kExternalTid = 1000001;  // spans recorded off-worker

int span_tid(const TaskSpan& span) {
  return span.worker >= 0 ? span.worker : kExternalTid;
}

}  // namespace

TraceStream capture_stream(int rank, const Profiler& profiler) {
  TraceStream stream;
  stream.rank = rank;
  stream.spans = profiler.spans();
  stream.sched = profiler.scheduler_stats();
  stream.recovery = profiler.recovery_stats();
  return stream;
}

void write_merged_trace(
    const std::string& path, const std::vector<TraceStream>& streams,
    const std::function<void(JsonWriter&)>& other_data) {
  const std::filesystem::path fs_path(path);
  if (fs_path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(fs_path.parent_path(), ec);
  }
  std::ofstream out(path);
  if (!out) throw Error("cannot open trace file: " + path);

  // Rebase timestamps so the trace starts near zero; chrome://tracing
  // uses microseconds.
  std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
  for (const TraceStream& s : streams) {
    for (const TaskSpan& span : s.spans) t0 = std::min(t0, span.start_ns);
    for (const CommEvent& e : s.comm) t0 = std::min(t0, e.start_ns);
  }
  if (t0 == std::numeric_limits<std::uint64_t>::max()) t0 = 0;
  const auto us = [t0](std::uint64_t ns) {
    return static_cast<double>(ns - t0) * 1e-3;
  };

  JsonWriter w(out);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  for (const TraceStream& s : streams) {
    // Process/thread naming metadata: one process lane per rank, one
    // thread track per worker plus the comm track.
    w.begin_object();
    w.kv("name", "process_name");
    w.kv("ph", "M");
    w.kv("pid", s.rank);
    w.key("args");
    w.begin_object();
    w.kv("name", "rank " + std::to_string(s.rank));
    w.end_object();
    w.end_object();
    w.begin_object();
    w.kv("name", "process_sort_index");
    w.kv("ph", "M");
    w.kv("pid", s.rank);
    w.key("args");
    w.begin_object();
    w.kv("sort_index", s.rank);
    w.end_object();
    w.end_object();
    for (std::size_t worker = 0; worker < s.sched.workers.size(); ++worker) {
      w.begin_object();
      w.kv("name", "thread_name");
      w.kv("ph", "M");
      w.kv("pid", s.rank);
      w.kv("tid", worker);
      w.key("args");
      w.begin_object();
      w.kv("name", "worker " + std::to_string(worker) + " (stolen " +
                       std::to_string(s.sched.workers[worker].stolen) + ")");
      w.end_object();
      w.end_object();
    }
    if (!s.comm.empty()) {
      w.begin_object();
      w.kv("name", "thread_name");
      w.kv("ph", "M");
      w.kv("pid", s.rank);
      w.kv("tid", kCommTid);
      w.key("args");
      w.begin_object();
      w.kv("name", "comm");
      w.end_object();
      w.end_object();
    }

    for (const TaskSpan& span : s.spans) {
      w.begin_object();
      w.kv("name", span.name);
      w.kv("cat", "task");
      w.kv("ph", "X");
      w.kv("pid", s.rank);
      w.kv("tid", span_tid(span));
      w.kv("ts", us(span.start_ns));
      w.kv("dur", static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
      w.end_object();
    }

    for (const CommEvent& e : s.comm) {
      std::string peer(1, 'r');
      peer += std::to_string(e.peer);
      w.begin_object();
      w.kv("name", std::string(e.is_send ? "send -> " : "recv <- ") + peer);
      w.kv("cat", "comm");
      w.kv("ph", "X");
      w.kv("pid", s.rank);
      w.kv("tid", kCommTid);
      w.kv("ts", us(e.start_ns));
      w.kv("dur", static_cast<double>(e.end_ns - e.start_ns) * 1e-3);
      w.key("args");
      w.begin_object();
      w.kv("tag", e.tag);
      w.kv("bytes", e.bytes);
      w.end_object();
      w.end_object();
      // Flow edge: the id encodes (frame tag, consumer rank), so a tag
      // broadcast to N destinations yields N distinct arrows and each
      // receive binds to exactly the send aimed at it.
      const int dst = e.is_send ? e.peer : s.rank;
      w.begin_object();
      w.kv("name", "tile");
      w.kv("cat", "flow");
      w.kv("ph", e.is_send ? "s" : "f");
      if (!e.is_send) w.kv("bp", "e");
      w.kv("id", std::to_string(e.tag) + "/" + std::to_string(dst));
      w.kv("pid", s.rank);
      w.kv("tid", kCommTid);
      w.kv("ts", us(e.end_ns));
      w.end_object();
    }
  }
  w.end_array();
  if (other_data) {
    w.key("otherData");
    w.begin_object();
    other_data(w);
    w.end_object();
  }
  w.end_object();
  out << "\n";
  if (!out.good()) throw Error("failed writing trace file: " + path);
}

}  // namespace kgwas::telemetry
