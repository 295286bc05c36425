#include "dist/communicator.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "common/status.hpp"

namespace kgwas::dist {

namespace {

// Internal collective frame kinds, packed into reserved tags as
// kReservedTagBit | kind << 56 | epoch << 16 | src.
enum CollectiveKind : std::uint64_t {
  kBarrierArrive = 1,
  kBarrierRelease = 2,
  kReduceContribution = 3,
  kReduceResult = 4,
};

constexpr std::uint64_t collective_tag(CollectiveKind kind,
                                       std::uint64_t epoch, int src) {
  return kReservedTagBit | (static_cast<std::uint64_t>(kind) << 56) |
         ((epoch & 0xFFFFFFFFFFull) << 16) |
         static_cast<std::uint64_t>(src & 0xFFFF);
}

constexpr std::uint64_t collective_epoch_of(std::uint64_t reserved_tag) {
  return (reserved_tag >> 16) & 0xFFFFFFFFFFull;
}

}  // namespace

void Communicator::send(int dest, std::uint64_t tag,
                        std::vector<std::byte> payload) {
  KGWAS_CHECK_ARG(dest >= 0 && dest < size(), "send destination out of range");
  messages_.fetch_add(1, std::memory_order_relaxed);
  payload_bytes_.fetch_add(payload.size(), std::memory_order_relaxed);

  // The per-destination split lives only in the registry; the ledger above
  // keeps the endpoint totals.  Per-peer counters are resolved once per
  // endpoint.
  std::call_once(peer_counters_once_, [this] {
    auto& registry = telemetry::MetricRegistry::global();
    peer_counters_.reserve(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) {
      const std::string prefix = "wire.to_rank." + std::to_string(r);
      peer_counters_.emplace_back(&registry.counter(prefix + ".frames"),
                                  &registry.counter(prefix + ".bytes"));
    }
  });
  peer_counters_[static_cast<std::size_t>(dest)].first->add(1);
  peer_counters_[static_cast<std::size_t>(dest)].second->add(payload.size());

  do_send(dest, tag, std::move(payload));
}

Message Communicator::recv(std::uint64_t tag) { return do_recv(tag); }

Message Communicator::recv_any() { return do_recv_any(); }

void Communicator::absorb_wire_volume(const WireVolume& v) noexcept {
  messages_.fetch_add(v.messages, std::memory_order_relaxed);
  payload_bytes_.fetch_add(v.payload_bytes, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumPrecisions; ++i) {
    tile_bytes_[i].fetch_add(v.tile_payload_bytes[i],
                             std::memory_order_relaxed);
  }
}

void Communicator::barrier() {
  const std::uint64_t epoch = collective_epoch_++;
  if (size() == 1) return;
  if (rank() == 0) {
    for (int r = 1; r < size(); ++r) {
      do_recv(collective_tag(kBarrierArrive, epoch, r));
    }
    for (int r = 1; r < size(); ++r) {
      send(r, collective_tag(kBarrierRelease, epoch, 0), {});
    }
  } else {
    send(0, collective_tag(kBarrierArrive, epoch, rank()), {});
    do_recv(collective_tag(kBarrierRelease, epoch, 0));
  }
}

void Communicator::allreduce_sum(double* values, std::size_t n) {
  const std::uint64_t epoch = collective_epoch_++;
  if (size() == 1) return;
  const std::size_t bytes = n * sizeof(double);
  if (rank() == 0) {
    // Reduce contributions in ascending rank order: deterministic FP sums,
    // identical on every rank because only rank 0 reduces.
    for (int r = 1; r < size(); ++r) {
      const Message m = do_recv(collective_tag(kReduceContribution, epoch, r));
      KGWAS_CHECK_ARG(m.payload.size() == bytes,
                      "allreduce contribution size mismatch");
      for (std::size_t i = 0; i < n; ++i) {
        double v;
        std::memcpy(&v, m.payload.data() + i * sizeof(double), sizeof(double));
        values[i] += v;
      }
    }
    std::vector<std::byte> result(bytes);
    std::memcpy(result.data(), values, bytes);
    for (int r = 1; r < size(); ++r) {
      send(r, collective_tag(kReduceResult, epoch, 0), result);
    }
  } else {
    std::vector<std::byte> contribution(bytes);
    std::memcpy(contribution.data(), values, bytes);
    send(0, collective_tag(kReduceContribution, epoch, rank()),
         std::move(contribution));
    const Message m = do_recv(collective_tag(kReduceResult, epoch, 0));
    KGWAS_CHECK_ARG(m.payload.size() == bytes, "allreduce result size mismatch");
    std::memcpy(values, m.payload.data(), bytes);
  }
}

void Communicator::record_tile_payload(Precision precision,
                                       std::uint64_t bytes) noexcept {
  tile_bytes_[static_cast<std::size_t>(precision)].fetch_add(
      bytes, std::memory_order_relaxed);
}

void Communicator::record_comm_event(const telemetry::CommEvent& event) {
  if (!event_recording()) return;
  std::lock_guard<std::mutex> lock(events_mutex_);
  events_.push_back(event);
}

std::vector<telemetry::CommEvent> Communicator::comm_events() const {
  std::lock_guard<std::mutex> lock(events_mutex_);
  return events_;
}

WireVolume Communicator::wire_volume() const {
  WireVolume v;
  v.messages = messages_.load(std::memory_order_relaxed);
  v.payload_bytes = payload_bytes_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumPrecisions; ++i) {
    v.tile_payload_bytes[i] = tile_bytes_[i].load(std::memory_order_relaxed);
  }
  return v;
}

void Communicator::reset_wire_volume() noexcept {
  messages_.store(0, std::memory_order_relaxed);
  payload_bytes_.store(0, std::memory_order_relaxed);
  for (auto& b : tile_bytes_) b.store(0, std::memory_order_relaxed);
}

// ------------------------------------------------------------- in-process

class InProcessWorld::RankComm final : public Communicator {
 public:
  RankComm(InProcessWorld* world, int rank) : world_(world), rank_(rank) {}

  int rank() const noexcept override { return rank_; }
  int size() const noexcept override { return world_->size(); }

  std::vector<int> dead_ranks() const override {
    return world_->dead_ranks();
  }

  bool fault_injection_active() const noexcept override {
    return world_->injector_ != nullptr && world_->injector_->active();
  }

  void acknowledge_failures() override {
    acked_dead_version_ = world_->dead_version();
  }

  void fault_point(std::uint64_t step) override {
    FaultInjector* injector = world_->injector_.get();
    if (injector != nullptr && injector->kill_at_step(rank_, step)) {
      die();
    }
    check_world();
  }

  std::size_t purge_stale(std::uint64_t min_epoch) override {
    const std::size_t before = pending_.size();
    mailbox_.drain(pending_);
    seen_ += pending_.size() - before;
    std::size_t purged = 0;
    for (auto it = pending_.begin(); it != pending_.end();) {
      // Wake frames (kind 0) and pre-fault collective frames are both
      // dead traffic for the regenerated collective space; application
      // frames are discard_pending's job and stay.
      if ((it->tag & kReservedTagBit) != 0 &&
          collective_epoch_of(it->tag) < min_epoch) {
        it = pending_.erase(it);
        ++purged;
      } else {
        ++it;
      }
    }
    return purged;
  }

 protected:
  void do_send(int dest, std::uint64_t tag,
               std::vector<std::byte> payload) override {
    // A dead process's packets stop: suppress everything a killed rank's
    // still-running worker tasks try to send (including the breakdown
    // wake-ups its error callback would broadcast — survivors must see a
    // rank *loss*, not a spurious numerical breakdown).
    if (world_->dead_version() != 0 && world_->is_dead(rank_)) return;
    FaultInjector* injector = world_->injector_.get();
    if (injector != nullptr && (tag & kReservedTagBit) == 0) {
      const FaultInjector::SendFaults faults = injector->on_send(rank_);
      if (faults.kill) {
        // Mark dead first so this frame and everything after it is
        // suppressed; the driving thread surfaces RankKilled at its next
        // receive or fault point (a send may run on a worker thread,
        // where throwing would surface as a task error instead).
        world_->declare_dead(rank_);
        return;
      }
      if (faults.delay_ms > 0) {
        static telemetry::Counter& delays =
            telemetry::MetricRegistry::global().counter("dist.fault.delays");
        delays.add(1);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(faults.delay_ms));
      }
      if (faults.drop) {
        static telemetry::Counter& drops =
            telemetry::MetricRegistry::global().counter("dist.fault.drops");
        drops.add(1);
        return;
      }
      if (faults.dup) {
        static telemetry::Counter& dups =
            telemetry::MetricRegistry::global().counter("dist.fault.dups");
        dups.add(1);
        world_->comms_[static_cast<std::size_t>(dest)]->mailbox_.push(
            Message{rank_, tag, payload});
      }
    }
    world_->comms_[static_cast<std::size_t>(dest)]->mailbox_.push(
        Message{rank_, tag, std::move(payload)});
  }

  Message do_recv(std::uint64_t tag) override {
    for (;;) {
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->tag == tag) {
          Message out = std::move(*it);
          pending_.erase(it);
          return out;
        }
      }
      wait_and_drain();
    }
  }

  Message do_recv_any() override {
    FaultInjector* injector = world_->injector_.get();
    if (injector != nullptr && injector->kill_on_recv(rank_)) die();
    for (;;) {
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if ((it->tag & kReservedTagBit) == 0) {
          Message out = std::move(*it);
          pending_.erase(it);
          return out;
        }
      }
      wait_and_drain();
    }
  }

  std::size_t do_discard_pending() override {
    // Pull whatever is already delivered (non-blocking), then drop every
    // application frame; reserved collective frames stay pending so a
    // racing collective protocol is never corrupted.
    const std::size_t before = pending_.size();
    mailbox_.drain(pending_);
    seen_ += pending_.size() - before;
    std::size_t discarded = 0;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if ((it->tag & kReservedTagBit) == 0) {
        it = pending_.erase(it);
        ++discarded;
      } else {
        ++it;
      }
    }
    return discarded;
  }

 private:
  [[noreturn]] void die() {
    static telemetry::Counter& kills =
        telemetry::MetricRegistry::global().counter("dist.fault.kills");
    kills.add(1);
    world_->declare_dead(rank_);
    throw RankKilled(rank_);
  }

  /// Surfaces world-state changes a parked (or about-to-park) receive
  /// must not sleep through: a poisoned world, this rank's own death, or
  /// an unacknowledged peer death.
  void check_world() {
    if (world_->poisoned()) {
      throw WorldAborted(
          world_->abort_origin_.load(std::memory_order_acquire),
          world_->abort_phase_.load(std::memory_order_acquire));
    }
    if (world_->dead_version() != acked_dead_version_) {
      if (world_->is_dead(rank_)) throw RankKilled(rank_);
      throw PeerUnreachable(world_->dead_ranks(), rank_,
                            "peer rank declared dead");
    }
  }

  /// Pulls newly delivered frames into pending_; true when any arrived.
  bool drain_new() {
    const std::size_t before = pending_.size();
    mailbox_.drain(pending_);
    seen_ += pending_.size() - before;
    return pending_.size() != before;
  }

  void wait_and_drain() {
    // Frames that beat a failure must still be consumed: the world is
    // only checked once the queue has nothing new, so a collective whose
    // last frame was already delivered completes instead of aborting.
    // (A checkpoint barrier then commits on every survivor or none that
    // passed it — the death surfaces at the next *blocking* receive.)
    if (drain_new()) return;
    check_world();
    if (world_->recv_timeout_ms_ == 0) {
      mailbox_.wait_beyond(seen_);
    } else {
      // Deadline-armed park: bounded retries with exponential backoff,
      // then a typed PeerUnreachable (empty dead set: detection only) —
      // the hardened alternative to an infinite atomic::wait on a frame
      // a lost or partitioned peer will never deliver.
      static telemetry::Counter& timeouts =
          telemetry::MetricRegistry::global().counter("dist.recv_timeouts");
      std::uint64_t backoff_ms = world_->recv_timeout_ms_;
      std::uint64_t attempt = 0;
      while (!mailbox_.wait_beyond_for(
          seen_, std::chrono::milliseconds(backoff_ms))) {
        check_world();
        timeouts.add(1);
        if (++attempt > world_->recv_retries_) {
          throw PeerUnreachable(
              {}, rank_,
              "receive timed out after " +
                  std::to_string(world_->recv_retries_ + 1) +
                  " waits (KGWAS_COMM_TIMEOUT_MS=" +
                  std::to_string(world_->recv_timeout_ms_) + ")");
        }
        backoff_ms *= 2;
      }
    }
    // No check_world here: the wake may have been a real frame racing
    // the death notification — drain it first; the next call finds the
    // queue dry and surfaces the failure.
    drain_new();
  }

  friend class InProcessWorld;
  void wake() { mailbox_.push(Message{-1, kReservedTagBit, {}}); }

  InProcessWorld* world_;
  int rank_;
  Mailbox mailbox_;
  // Consumer-side arrival list: drained but not yet tag-requested frames.
  std::deque<Message> pending_;
  std::uint64_t seen_ = 0;  // messages drained from the mailbox so far
  // Dead-set version this rank's protocol has recovered past; a newer
  // version surfaces as PeerUnreachable exactly once per regeneration.
  std::uint64_t acked_dead_version_ = 0;
};

InProcessWorld::InProcessWorld(int ranks, FaultPlan plan) {
  KGWAS_CHECK_ARG(ranks >= 1, "world needs at least one rank");
  comms_.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    comms_.push_back(std::make_unique<RankComm>(this, r));
  }
  if (!plan.empty()) {
    injector_ = std::make_unique<FaultInjector>(std::move(plan), ranks);
  }
  recv_timeout_ms_ = env_size_t("KGWAS_COMM_TIMEOUT_MS", 0);
  recv_retries_ = env_size_t("KGWAS_COMM_RETRIES", 4);
}

InProcessWorld::~InProcessWorld() = default;

Communicator& InProcessWorld::comm(int rank) {
  KGWAS_CHECK_ARG(rank >= 0 && rank < size(), "rank out of range");
  return *comms_[static_cast<std::size_t>(rank)];
}

void InProcessWorld::poison(int origin_rank, const char* phase) {
  if (poisoned_.exchange(true, std::memory_order_acq_rel)) return;
  abort_origin_.store(origin_rank, std::memory_order_release);
  abort_phase_.store(phase, std::memory_order_release);
  // One reserved wake frame per rank: parked receives re-check the flag
  // and throw; the frame itself matches no application or collective tag.
  for (const auto& c : comms_) c->wake();
}

void InProcessWorld::declare_dead(int rank) {
  {
    std::lock_guard<std::mutex> lock(dead_mutex_);
    const auto it = std::lower_bound(dead_.begin(), dead_.end(), rank);
    if (it != dead_.end() && *it == rank) return;
    dead_.insert(it, rank);
  }
  dead_version_.fetch_add(1, std::memory_order_acq_rel);
  // Wake everyone (the dead rank included): parked receives re-check the
  // dead set and surface RankKilled / PeerUnreachable instead of waiting
  // forever for frames the dead rank will never send.
  for (const auto& c : comms_) c->wake();
}

bool InProcessWorld::is_dead(int rank) const {
  std::lock_guard<std::mutex> lock(dead_mutex_);
  return std::binary_search(dead_.begin(), dead_.end(), rank);
}

std::vector<int> InProcessWorld::dead_ranks() const {
  std::lock_guard<std::mutex> lock(dead_mutex_);
  return dead_;
}

WireVolume InProcessWorld::total_wire_volume() const {
  WireVolume total;
  for (const auto& c : comms_) {
    const WireVolume v = c->wire_volume();
    total.messages += v.messages;
    total.payload_bytes += v.payload_bytes;
    for (std::size_t i = 0; i < kNumPrecisions; ++i) {
      total.tile_payload_bytes[i] += v.tile_payload_bytes[i];
    }
  }
  return total;
}

// --------------------------------------------------------- survivor view

SurvivorComm::SurvivorComm(Communicator& parent, std::vector<int> survivors,
                           std::uint64_t generation)
    : parent_(parent), survivors_(std::move(survivors)) {
  KGWAS_CHECK_ARG(!survivors_.empty(), "survivor set is empty");
  KGWAS_CHECK_ARG(std::is_sorted(survivors_.begin(), survivors_.end()),
                  "survivor set must be ascending");
  const auto me = std::lower_bound(survivors_.begin(), survivors_.end(),
                                   parent_.rank());
  KGWAS_CHECK_ARG(me != survivors_.end() && *me == parent_.rank(),
                  "survivor set does not contain this rank");
  my_logical_ = static_cast<int>(me - survivors_.begin());
  // Regenerated collective space: epochs of generation g live in
  // [g << 32, (g + 1) << 32), disjoint from every earlier generation's,
  // so stale pre-fault collective frames can never be tag-matched here.
  collective_epoch_ = generation << 32;
  set_phase_label(parent_.phase_label());
}

SurvivorComm::~SurvivorComm() {
  // Frames routed through this wrapper were counted here only; fold the
  // ledger into the parent endpoint so the world total stays complete
  // after the wrapper dies (wrappers die inside the rank body, before
  // run_ranks sums endpoint ledgers).
  parent_.absorb_wire_volume(wire_volume());
}

int SurvivorComm::to_logical(int physical) const {
  const auto it =
      std::lower_bound(survivors_.begin(), survivors_.end(), physical);
  if (it == survivors_.end() || *it != physical) return -1;
  return static_cast<int>(it - survivors_.begin());
}

void SurvivorComm::do_send(int dest, std::uint64_t tag,
                           std::vector<std::byte> payload) {
  // Raw transport passthrough: the ledger/registry accounting already
  // happened in this wrapper's non-virtual send().
  parent_.send_transport(physical_rank(dest), tag, std::move(payload));
}

Message SurvivorComm::do_recv(std::uint64_t tag) {
  Message m = parent_.recv_transport(tag);
  m.src = to_logical(m.src);
  return m;
}

Message SurvivorComm::do_recv_any() {
  Message m = parent_.recv_any_transport();
  m.src = to_logical(m.src);
  return m;
}

std::size_t SurvivorComm::do_discard_pending() {
  return parent_.discard_pending();
}

// ------------------------------------------------------------ SPMD harness

WireVolume run_ranks(int ranks, const std::function<void(Communicator&)>& fn) {
  return run_ranks(ranks, FaultPlan{}, fn);
}

WireVolume run_ranks(int ranks, FaultPlan plan,
                     const std::function<void(Communicator&)>& fn) {
  InProcessWorld world(ranks, std::move(plan));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(ranks));
  // Root-cause error and the secondary WorldAborted cascade are tracked
  // separately: when a rank fails, the world is poisoned so its peers'
  // blocked receives abort (instead of hanging the join forever), and
  // the original exception is the one rethrown.
  std::exception_ptr root_error;
  std::exception_ptr aborted_error;
  std::mutex error_mutex;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      set_thread_log_rank(r);
      try {
        fn(world.comm(r));
      } catch (const RankKilled&) {
        // An injected kill: the rank simply disappears.  Survivors see
        // the death through the dead set (and recover or fail with their
        // own typed errors); nothing to record here.
      } catch (const WorldAborted&) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!aborted_error) aborted_error = std::current_exception();
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!root_error) root_error = std::current_exception();
        }
        world.poison(r, world.comm(r).phase_label());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (root_error) std::rethrow_exception(root_error);
  if (aborted_error) std::rethrow_exception(aborted_error);
  return world.total_wire_volume();
}

int configured_ranks() {
  return static_cast<int>(env_size_t("KGWAS_RANKS", 1, 1, 256));
}

std::size_t configured_workers_per_rank(int ranks) {
  const std::size_t configured = env_size_t("KGWAS_DIST_WORKERS", 0);
  if (configured > 0) return configured;
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t per_rank = hw / static_cast<std::size_t>(ranks < 1 ? 1 : ranks);
  return per_rank > 0 ? per_rank : 1;
}

}  // namespace kgwas::dist
