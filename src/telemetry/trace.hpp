// Cross-rank tracing: per-rank trace streams and the merger that joins
// them into one chrome://tracing / Perfetto timeline.
//
// Each in-process rank captures a `TraceStream`: its profiler's task
// spans, scheduler counters, recovery counters, and the communication
// events its transport recorded (slot-frame sends from `send_slot` /
// `send_dense_slot`, receives from the progress loop).  `write_merged_trace` emits all
// streams into one file with pid = rank (one process lane per rank in the
// viewer, one thread track per worker, plus a dedicated "comm" track),
// and ties each tile send to its matching tagged receive with chrome
// `ph:"s"` / `ph:"f"` flow events — the panel-broadcast pattern of
// `dist_tiled_potrf` becomes a fan of arrows from the owner's comm track
// to every consumer rank.
//
// Flow binding: a tile tag is broadcast to several destinations, so the
// flow id is "<tag>/<dst rank>" — unique per (frame, consumer) edge.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/profiler.hpp"

namespace kgwas::telemetry {

class JsonWriter;

/// One recorded transport event (a tile send or a matched receive).
struct CommEvent {
  std::uint64_t tag = 0;     ///< application tag of the frame
  int peer = -1;             ///< destination (send) / source (recv) rank
  bool is_send = false;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t bytes = 0;   ///< frame payload bytes
};

/// Everything one rank contributes to the merged timeline.
struct TraceStream {
  int rank = 0;
  std::vector<TaskSpan> spans;
  SchedulerStats sched;
  RecoveryStats recovery;
  std::vector<CommEvent> comm;
};

/// Snapshots `profiler` into a stream for `rank` (comm events are the
/// transport's; append them from Communicator::comm_events separately).
TraceStream capture_stream(int rank, const Profiler& profiler);

/// Writes `streams` as one chrome "traceEvents" JSON file: pid = rank
/// lanes, tid = worker tracks, a comm track per rank, X slices for task
/// spans and transport events, and s/f flow events linking each send to
/// its matched receive.  `other_data` (optional) writes the members of
/// the top-level "otherData" object — the RunReport serializer plugs in
/// here so trace metadata and RunReports share one schema.  Creates
/// parent directories; throws Error when the file cannot be written.
void write_merged_trace(
    const std::string& path, const std::vector<TraceStream>& streams,
    const std::function<void(JsonWriter&)>& other_data = {});

}  // namespace kgwas::telemetry
