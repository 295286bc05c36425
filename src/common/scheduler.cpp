#include "common/scheduler.hpp"

#include <chrono>

#include "common/logging.hpp"
#include "common/status.hpp"
#include "telemetry/metrics.hpp"

namespace kgwas {

namespace {

// Which scheduler (if any) owns the calling thread, and its worker index.
struct WorkerIdentity {
  const Scheduler* owner = nullptr;
  int index = -1;
};
thread_local WorkerIdentity t_identity;

// Cheap per-thread xorshift for randomized victim selection; determinism
// across runs is irrelevant, independence across workers is what matters.
std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

}  // namespace

Scheduler::Scheduler(std::size_t num_workers)
    : creator_log_rank_(thread_log_rank()) {
  if (num_workers == 0) {
    num_workers = std::thread::hardware_concurrency();
    if (num_workers == 0) num_workers = 1;
  }
  queues_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  threads_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    stopping_.store(true);
  }
  work_available_.notify_all();
  for (auto& thread : threads_) thread.join();
}

int Scheduler::current_worker() const noexcept {
  return t_identity.owner == this ? t_identity.index : -1;
}

void Scheduler::push(std::size_t queue_index, Task task) {
  WorkerQueue& q = *queues_[queue_index];
  std::lock_guard<std::mutex> lock(q.mutex);
  q.buckets[task.priority].push_back(std::move(task));
  q.size.fetch_add(1, std::memory_order_relaxed);
  // Counted under the lock that the pop or steal taking this task also
  // holds, so queued_ can never be decremented first and wrap.  seq_cst:
  // pairs with the sleepers_/queued_ Dekker handshake in notify_work() /
  // worker_loop() — a publisher must not read a stale sleepers_ == 0
  // after a worker committed to sleeping on queued_ == 0.
  queued_.fetch_add(1);
}

void Scheduler::notify_work() {
  // Fast path: nobody is parked, so a notify would be a wasted global
  // lock.  Safe because the queued_ increment (seq_cst) precedes this
  // load, and a worker raises sleepers_ (seq_cst) before re-checking
  // queued_ in the wait predicate: one side always sees the other.
  if (sleepers_.load() == 0) return;
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
  }
  work_available_.notify_one();
}

void Scheduler::sample_queue_depth() {
  const std::uint64_t depth = queued_.load(std::memory_order_relaxed);
  depth_samples_.fetch_add(1, std::memory_order_relaxed);
  depth_sum_.fetch_add(depth, std::memory_order_relaxed);
  std::uint64_t seen = depth_max_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !depth_max_.compare_exchange_weak(seen, depth,
                                           std::memory_order_relaxed)) {
  }
}

void Scheduler::submit(std::function<void()> fn, int priority) {
  KGWAS_ASSERT(fn != nullptr);
  // Submitting into a scheduler that is tearing down would enqueue a task
  // no worker will ever run (and deadlock a later wait_idle); fail loudly
  // at the submit site, like the old ThreadPool did.
  KGWAS_ASSERT(!stopping_.load());
  const int self = current_worker();
  const std::size_t target =
      self >= 0 ? static_cast<std::size_t>(self)
                : next_external_.fetch_add(1, std::memory_order_relaxed) %
                      queues_.size();

  pending_.fetch_add(1, std::memory_order_release);
  push(target, Task{std::move(fn), priority});
  sample_queue_depth();
  notify_work();
}

bool Scheduler::pop_local(std::size_t worker_index, Task& out) {
  WorkerQueue& q = *queues_[worker_index];
  if (q.size.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> lock(q.mutex);
  if (q.size.load(std::memory_order_relaxed) == 0) return false;
  auto bucket = q.buckets.begin();  // highest priority
  KGWAS_ASSERT(!bucket->second.empty());
  out = std::move(bucket->second.back());
  bucket->second.pop_back();
  if (bucket->second.empty()) q.buckets.erase(bucket);
  q.size.fetch_sub(1, std::memory_order_relaxed);
  queued_.fetch_sub(1, std::memory_order_release);
  return true;
}

bool Scheduler::steal(std::size_t thief_index, Task& out) {
  const std::size_t n = queues_.size();
  if (n <= 1) return false;
  thread_local std::uint64_t rng_state = 0;
  if (rng_state == 0) rng_state = 0x9e3779b97f4a7c15ull ^ (thief_index + 1);

  WorkerQueue& me = *queues_[thief_index];
  // One full sweep over the victims starting at a random offset.
  const std::size_t start = next_rand(rng_state) % n;
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t victim = (start + step) % n;
    if (victim == thief_index) continue;
    WorkerQueue& q = *queues_[victim];
    me.steal_attempts.fetch_add(1, std::memory_order_relaxed);
    // Lock-free emptiness peek so idle sweeps don't serialize on victim
    // mutexes; the count is re-checked under the lock.
    if (q.size.load(std::memory_order_relaxed) == 0) continue;

    // Steal-half (capped): migrating a batch of equal-priority tasks
    // amortizes the handoff, the classic fix for steal churn when ready
    // tasks are fine-grained.
    Task extra[7];
    std::size_t n_extra = 0;
    {
      std::lock_guard<std::mutex> lock(q.mutex);
      const std::size_t avail = q.size.load(std::memory_order_relaxed);
      if (avail == 0) continue;
      auto bucket = q.buckets.begin();
      // Thieves take the oldest tasks at the victim's best priority: the
      // front of the deque is the largest untouched piece of work.
      std::size_t grab = std::min((avail + 1) / 2, bucket->second.size());
      grab = std::min(grab, sizeof(extra) / sizeof(extra[0]) + 1);
      out = std::move(bucket->second.front());
      bucket->second.pop_front();
      for (std::size_t g = 1; g < grab; ++g) {
        extra[n_extra++] = std::move(bucket->second.front());
        bucket->second.pop_front();
      }
      if (bucket->second.empty()) q.buckets.erase(bucket);
      q.size.fetch_sub(grab, std::memory_order_relaxed);
      queued_.fetch_sub(grab, std::memory_order_release);
      me.stolen.fetch_add(grab, std::memory_order_relaxed);
    }
    if (n_extra > 0) {
      // Re-home the rest of the batch into our own deque (they keep their
      // priority; the owner will pop them LIFO like local work).
      std::lock_guard<std::mutex> lock(me.mutex);
      for (std::size_t g = 0; g < n_extra; ++g) {
        me.buckets[extra[g].priority].push_back(std::move(extra[g]));
      }
      me.size.fetch_add(n_extra, std::memory_order_relaxed);
      queued_.fetch_add(n_extra);  // seq_cst, see push()
      // A worker that went idle during the migration window (queued_
      // briefly dipped) must learn about the re-homed tasks.
      notify_work();
    }
    return true;
  }
  return false;
}

void Scheduler::worker_loop(std::size_t worker_index) {
  t_identity.owner = this;
  t_identity.index = static_cast<int>(worker_index);
  if (creator_log_rank_ >= 0) set_thread_log_rank(creator_log_rank_);
  WorkerQueue& me = *queues_[worker_index];
  static telemetry::Histogram& steal_latency =
      telemetry::MetricRegistry::global().histogram("sched.steal_ns");

  for (;;) {
    Task task;
    bool got = pop_local(worker_index, task);
    if (!got) {
      // Time the victim sweep so steal cost shows up in telemetry: the
      // latency of a *successful* steal is the handoff price of load
      // balancing (failed sweeps fall through to sleep and aren't a
      // per-task cost).
      const auto sweep_start = std::chrono::steady_clock::now();
      got = steal(worker_index, task);
      if (got) {
        steal_latency.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - sweep_start)
                .count()));
      }
    }
    if (got) {
      // Count before running: a task may observe (via Runtime::wait)
      // that the whole graph drained the instant its body returns, and
      // a stats() read after that wait must already include it.
      me.executed.fetch_add(1, std::memory_order_relaxed);
      task.fn();
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(control_mutex_);
        idle_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(control_mutex_);
    sleepers_.fetch_add(1);  // seq_cst before the queued_ re-check below
    work_available_.wait(lock, [this] {
      return stopping_ || queued_.load() > 0;
    });
    sleepers_.fetch_sub(1);
    if (stopping_ && queued_.load(std::memory_order_acquire) == 0) return;
  }
}

void Scheduler::wait_idle() {
  std::unique_lock<std::mutex> lock(control_mutex_);
  idle_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats out;
  out.workers.reserve(queues_.size());
  for (const auto& q : queues_) {
    WorkerStats w;
    w.executed = q->executed.load(std::memory_order_relaxed);
    w.stolen = q->stolen.load(std::memory_order_relaxed);
    w.steal_attempts = q->steal_attempts.load(std::memory_order_relaxed);
    out.tasks_executed += w.executed;
    out.tasks_stolen += w.stolen;
    out.steal_attempts += w.steal_attempts;
    out.workers.push_back(w);
  }
  out.queue_depth_samples = depth_samples_.load(std::memory_order_relaxed);
  out.queue_depth_sum = depth_sum_.load(std::memory_order_relaxed);
  out.max_queue_depth = depth_max_.load(std::memory_order_relaxed);
  return out;
}

void Scheduler::reset_stats() {
  for (auto& q : queues_) {
    q->executed.store(0, std::memory_order_relaxed);
    q->stolen.store(0, std::memory_order_relaxed);
    q->steal_attempts.store(0, std::memory_order_relaxed);
  }
  depth_samples_.store(0, std::memory_order_relaxed);
  depth_sum_.store(0, std::memory_order_relaxed);
  depth_max_.store(0, std::memory_order_relaxed);
}

}  // namespace kgwas
