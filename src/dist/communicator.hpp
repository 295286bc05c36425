// Multi-rank communicator — the message substrate of the distributed tile
// execution layer.
//
// `Communicator` is the per-rank endpoint: rank/size, tagged asynchronous
// send, blocking tag-matched receive, barrier and allreduce.  It holds
// frames, never received tiles: those belong to the algorithm round that
// expected them (dist/progress.hpp).  The
// interface is deliberately MPI-shaped (tags ~ MPI tags, collectives ~
// MPI_Barrier/MPI_Allreduce) so an MPI backend can drop in behind the same
// calls later; the backend shipped here is `InProcessWorld`, which runs N
// ranks as N threads of one process connected by lock-free mailboxes, so
// CI exercises real multi-rank execution without an MPI installation.
//
// Threading contract:
//  * `send` is asynchronous and never blocks; callable from any thread of
//    the rank (the tiled solvers post sends from runtime worker tasks).
//  * `recv` / `recv_any` / collectives block and are single-consumer: only
//    the rank's driving thread may call them.
//
// Wire accounting: every endpoint keeps a ledger of frames and bytes sent,
// plus per-storage-precision tile payload bytes recorded by the tile
// transport (dist/tile_transport.hpp).  This is the measured counterpart
// of the DAG simulator's modelled communication volume — the calibration
// test asserts they agree exactly.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "dist/fault.hpp"
#include "dist/mailbox.hpp"
#include "precision/precision.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace kgwas::dist {

/// Thrown on surviving ranks when another rank of the world failed: the
/// in-process backend poisons every mailbox so blocked receives abort
/// instead of waiting forever for a dead peer (run_ranks then reports
/// the original error, not this secondary one).  Carries the originating
/// rank and the protocol phase it was executing when it failed.
class WorldAborted : public Error {
 public:
  WorldAborted() : WorldAborted(-1, "unknown") {}
  WorldAborted(int origin_rank, const std::string& phase)
      : Error(origin_rank >= 0
                  ? "rank " + std::to_string(origin_rank) +
                        " failed during phase '" + phase + "'; world aborted"
                  : "a peer rank failed; world aborted"),
        origin_rank_(origin_rank),
        phase_(phase) {}

  /// Rank whose failure poisoned the world (-1 when unknown).
  int origin_rank() const noexcept { return origin_rank_; }
  /// Protocol phase label the failing rank had set (see set_phase_label).
  const std::string& phase() const noexcept { return phase_; }

 private:
  int origin_rank_ = -1;
  std::string phase_;
};

/// Tags with this bit set are reserved for the communicator's internal
/// collective protocol; application tags must leave it clear (recv_any
/// skips reserved frames).
inline constexpr std::uint64_t kReservedTagBit = std::uint64_t{1} << 63;

/// Snapshot of an endpoint's send-side wire ledger.
struct WireVolume {
  std::uint64_t messages = 0;       ///< frames sent (incl. collectives)
  std::uint64_t payload_bytes = 0;  ///< bytes of every frame sent
  /// Tile payload bytes by storage precision (headers excluded) — the
  /// paper's "data moved at storage precision" metric, recorded by
  /// send_slot / send_dense_slot and checkpoint replica sends.  Indexed
  /// by static_cast<size_t>(Precision).
  std::array<std::uint64_t, kNumPrecisions> tile_payload_bytes{};

  std::uint64_t tile_bytes(Precision p) const {
    return tile_payload_bytes[static_cast<std::size_t>(p)];
  }
  std::uint64_t total_tile_bytes() const {
    std::uint64_t total = 0;
    for (const std::uint64_t b : tile_payload_bytes) total += b;
    return total;
  }
};

class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual int rank() const noexcept = 0;
  virtual int size() const noexcept = 0;

  /// Asynchronous tagged send; never blocks.
  void send(int dest, std::uint64_t tag, std::vector<std::byte> payload);

  /// Blocks until a message with `tag` arrives (tags are unique per
  /// logical datum in every protocol this library runs, so matching by
  /// tag alone suffices; the source rank is reported in the result).
  Message recv(std::uint64_t tag);

  /// Blocks until any *application* message (reserved collective frames
  /// are skipped and stay pending) is available; returns the oldest.
  Message recv_any();

  /// Rendezvous of all ranks.  SPMD discipline: every rank must call the
  /// collectives in the same order.
  void barrier();

  /// Element-wise sum of `values` across ranks; every rank receives the
  /// result.  The reduction is applied in ascending rank order, so the
  /// result is bitwise identical on every rank and across repeated runs.
  void allreduce_sum(double* values, std::size_t n);

  /// Discards every *application* frame currently queued or pending at
  /// this endpoint (reserved collective-protocol frames are preserved);
  /// returns the number discarded.  Single-consumer, like recv.  The
  /// breakdown-recovery protocol calls this between two barriers to flush
  /// stale tile frames of an aborted factorization attempt: after the
  /// first barrier every rank has drained its runtime (so every frame of
  /// the attempt is already delivered), and no rank re-enters the
  /// factorization (and re-sends) until after the second.  Frames are all
  /// there is to flush: a tile already received belongs to the aborted
  /// round and died with it.
  std::size_t discard_pending() { return do_discard_pending(); }

  // --- Fault-tolerance surface (backend-dependent; defaults are the
  // --- fault-free behavior so non-injected backends pay nothing).

  /// Physical ranks known dead (ascending).  Monotone: ranks are never
  /// resurrected.
  virtual std::vector<int> dead_ranks() const { return {}; }

  /// True when a fault-injection plan is active in this world (protocols
  /// relax duplicate-frame strictness under injection).
  virtual bool fault_injection_active() const noexcept { return false; }

  /// Marks the current dead set as handled: blocked receives stop
  /// throwing PeerUnreachable for it.  Called by the rank-loss recovery
  /// protocol once survivors have re-established a consistent state.
  virtual void acknowledge_failures() {}

  /// Protocol cancellation point at panel step `step`: fires step-
  /// triggered kill events and surfaces unacknowledged peer deaths
  /// (PeerUnreachable) promptly even when this rank is compute-bound.
  virtual void fault_point(std::uint64_t step) { (void)step; }

  /// Drops queued reserved collective frames whose embedded epoch is
  /// below `min_epoch` — stale barrier/allreduce traffic of a previous
  /// communicator generation (pre-fault, or from a dead rank) that must
  /// not be matched by the survivors' restarted collectives.  Returns
  /// the number dropped.  Single-consumer.
  virtual std::size_t purge_stale(std::uint64_t min_epoch) {
    (void)min_epoch;
    return 0;
  }

  /// Protocol-phase label for failure attribution: WorldAborted carries
  /// the label the failing rank had set.  The pointer must have static
  /// storage duration (string literals).
  void set_phase_label(const char* phase) noexcept {
    phase_label_.store(phase, std::memory_order_release);
  }
  const char* phase_label() const noexcept {
    return phase_label_.load(std::memory_order_acquire);
  }

  // --- Transport passthroughs for wrapping communicators (SurvivorComm):
  // --- raw backend access with no ledger/registry accounting, so a frame
  // --- sent through a wrapper is counted exactly once (at the wrapper).

  void send_transport(int dest, std::uint64_t tag,
                      std::vector<std::byte> payload) {
    do_send(dest, tag, std::move(payload));
  }
  Message recv_transport(std::uint64_t tag) { return do_recv(tag); }
  Message recv_any_transport() { return do_recv_any(); }

  /// Adds another endpoint's ledger into this one.  Used by wrapping
  /// communicators on destruction so the world total still sees their
  /// traffic.
  void absorb_wire_volume(const WireVolume& v) noexcept;

  /// Adds tile payload bytes to the per-precision ledger (called by the
  /// tile transport at send time).
  void record_tile_payload(Precision precision, std::uint64_t bytes) noexcept;

  WireVolume wire_volume() const;
  void reset_wire_volume() noexcept;

  /// Comm-event capture for cross-rank traces.  Off by default (events
  /// cost a mutexed vector push per tile message); run_dist_krr and the
  /// bench harness enable it when KGWAS_TRACE is set.  The tile transport
  /// and the progress loop call record_comm_event for every timed tile
  /// send/recv; captured events become the "comm" lane and the send→recv
  /// flow arrows of the merged trace (telemetry/trace.hpp).
  void set_event_recording(bool enabled) noexcept {
    record_events_.store(enabled, std::memory_order_relaxed);
  }
  bool event_recording() const noexcept {
    return record_events_.load(std::memory_order_relaxed);
  }
  void record_comm_event(const telemetry::CommEvent& event);
  std::vector<telemetry::CommEvent> comm_events() const;

 protected:
  virtual void do_send(int dest, std::uint64_t tag,
                       std::vector<std::byte> payload) = 0;
  virtual Message do_recv(std::uint64_t tag) = 0;
  virtual Message do_recv_any() = 0;
  virtual std::size_t do_discard_pending() = 0;

  // Collective sequence number; advances identically on every rank under
  // the SPMD call-order contract, keeping consecutive collectives' frames
  // apart even when a fast rank races ahead.  Survivor generations offset
  // it (generation << 32) so a regenerated communicator's collectives can
  // never match stale pre-fault frames.
  std::uint64_t collective_epoch_ = 0;

 private:
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> payload_bytes_{0};
  std::array<std::atomic<std::uint64_t>, kNumPrecisions> tile_bytes_{};

  // Per-peer registry counters ("wire.to_rank.N.*"), resolved once per
  // endpoint so the send path never does a name lookup.
  std::once_flag peer_counters_once_;
  std::vector<std::pair<telemetry::Counter*, telemetry::Counter*>>
      peer_counters_;  // {frames, bytes} per destination rank

  std::atomic<bool> record_events_{false};
  mutable std::mutex events_mutex_;
  std::vector<telemetry::CommEvent> events_;

  std::atomic<const char*> phase_label_{"startup"};
};

/// In-process world: N ranks as N endpoints over lock-free mailboxes.
/// Construct once, hand `comm(r)` to rank r's thread (see run_ranks).
///
/// Fault model: a nonempty FaultPlan threads a deterministic FaultInjector
/// through every endpoint (drop/dup/delay/kill on application frames; the
/// reserved collective protocol is never faulted).  A killed rank is
/// entered into the world's monotone dead set; its subsequent sends are
/// suppressed (a crashed process's packets stop) and every parked receive
/// is woken — the dead rank's own receive throws RankKilled, survivors'
/// throw PeerUnreachable until the recovery protocol calls
/// acknowledge_failures().
class InProcessWorld {
 public:
  explicit InProcessWorld(int ranks, FaultPlan plan = {});
  ~InProcessWorld();

  InProcessWorld(const InProcessWorld&) = delete;
  InProcessWorld& operator=(const InProcessWorld&) = delete;

  int size() const noexcept { return static_cast<int>(comms_.size()); }
  Communicator& comm(int rank);

  /// Sum of every endpoint's send ledger — the world's total wire volume.
  WireVolume total_wire_volume() const;

  /// Marks the world failed and wakes every parked receive, which then
  /// throws WorldAborted carrying `origin_rank`/`phase`.  Idempotent;
  /// called by run_ranks when a rank's body throws so the surviving ranks
  /// fail fast instead of hanging.
  void poison(int origin_rank = -1, const char* phase = "unknown");
  bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// Declares `rank` dead: inserts it into the monotone dead set, bumps
  /// the dead-set version, and wakes every parked receive so the death
  /// surfaces immediately.  Idempotent per rank; thread-safe.
  void declare_dead(int rank);
  bool is_dead(int rank) const;
  std::vector<int> dead_ranks() const;
  std::uint64_t dead_version() const noexcept {
    return dead_version_.load(std::memory_order_acquire);
  }

 private:
  class RankComm;
  std::vector<std::unique_ptr<RankComm>> comms_;
  std::atomic<bool> poisoned_{false};
  std::atomic<int> abort_origin_{-1};
  std::atomic<const char*> abort_phase_{"unknown"};

  std::unique_ptr<FaultInjector> injector_;
  mutable std::mutex dead_mutex_;
  std::vector<int> dead_;  // ascending
  std::atomic<std::uint64_t> dead_version_{0};

  // Timeout-armed receive knobs (KGWAS_COMM_TIMEOUT_MS, 0 = off;
  // KGWAS_COMM_RETRIES), read once at world construction.
  std::uint64_t recv_timeout_ms_ = 0;
  std::uint64_t recv_retries_ = 0;
};

/// Logical communicator over the survivors of a rank loss: presents a
/// dense [0, survivors) rank space to the protocols while routing frames
/// to the surviving physical ranks of `parent`.  Collectives run the
/// base-class protocol in logical space with epochs offset by
/// generation << 32, so a regenerated world's collective frames can never
/// be matched against stale pre-fault traffic (purge_stale drops the
/// leftovers).  Wire accounting happens once, at this wrapper; the
/// destructor folds the wrapper ledger back into the parent so world
/// totals remain complete.
class SurvivorComm final : public Communicator {
 public:
  /// `survivors`: ascending physical ranks still alive (must contain the
  /// parent's own rank).  `generation`: monotone regeneration count —
  /// the size of the dead set is the canonical choice (every survivor
  /// derives the same value from the same dead set).
  SurvivorComm(Communicator& parent, std::vector<int> survivors,
               std::uint64_t generation);
  ~SurvivorComm() override;

  int rank() const noexcept override { return my_logical_; }
  int size() const noexcept override {
    return static_cast<int>(survivors_.size());
  }

  int physical_rank(int logical) const {
    return survivors_[static_cast<std::size_t>(logical)];
  }
  const std::vector<int>& survivors() const noexcept { return survivors_; }
  Communicator& parent() noexcept { return parent_; }

  std::vector<int> dead_ranks() const override { return parent_.dead_ranks(); }
  bool fault_injection_active() const noexcept override {
    return parent_.fault_injection_active();
  }
  void acknowledge_failures() override { parent_.acknowledge_failures(); }
  void fault_point(std::uint64_t step) override { parent_.fault_point(step); }
  std::size_t purge_stale(std::uint64_t min_epoch) override {
    return parent_.purge_stale(min_epoch);
  }

 protected:
  void do_send(int dest, std::uint64_t tag,
               std::vector<std::byte> payload) override;
  Message do_recv(std::uint64_t tag) override;
  Message do_recv_any() override;
  std::size_t do_discard_pending() override;

 private:
  int to_logical(int physical) const;

  Communicator& parent_;
  std::vector<int> survivors_;  // logical -> physical, ascending
  int my_logical_ = 0;
};

/// SPMD harness: runs `fn(comm)` on `ranks` fresh threads over a fresh
/// InProcessWorld and joins them.  The first exception thrown by any rank
/// is rethrown after every thread has exited.  Returns the world's total
/// wire volume.
WireVolume run_ranks(int ranks, const std::function<void(Communicator&)>& fn);

/// Fault-injected variant: same harness over a world constructed with
/// `plan`.  A rank exiting with RankKilled is absorbed silently (the rank
/// simply disappears; survivors see its death through the dead set) —
/// every other exception behaves as in the plain overload.
WireVolume run_ranks(int ranks, FaultPlan plan,
                     const std::function<void(Communicator&)>& fn);

/// KGWAS_RANKS (default 1; a value outside [1, 256] warns and keeps 1):
/// world size the distributed entry points use when the caller does not
/// pass one.
int configured_ranks();

/// KGWAS_DIST_WORKERS (default 0 = hardware_concurrency / ranks, at least
/// 1): runtime workers each rank spawns.
std::size_t configured_workers_per_rank(int ranks);

}  // namespace kgwas::dist
