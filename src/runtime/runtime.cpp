#include "runtime/runtime.hpp"

#include <algorithm>
#include <condition_variable>

#include "common/status.hpp"
#include "common/timer.hpp"
#include "telemetry/run_report.hpp"

namespace kgwas {

struct Runtime::TaskNode {
  std::uint64_t id = 0;
  std::string name;
  std::function<void()> fn;
  int priority = 0;
  double flops = 0.0;
  std::atomic<std::uint64_t> remaining_deps{0};
  std::vector<TaskNode*> successors;
  // Guards `successors` and `finished` during graph construction races.
  std::mutex mutex;
  bool finished = false;
};

struct Runtime::HandleState {
  std::string name;
  // Superscalar tracking: last task that wrote the datum, and every reader
  // submitted since that write.
  TaskNode* last_writer = nullptr;
  std::vector<TaskNode*> readers_since_write;
};

Runtime::Runtime(std::size_t workers, bool enable_profiling,
                 SchedulerPolicy policy)
    : scheduler_(workers, policy),
      // KGWAS_TRACE turns on span recording without an API change at the
      // call site: trace output is useless without spans, so asking for a
      // trace directory implies asking for profiling.
      profiler_(enable_profiling ||
                telemetry::telemetry_config().trace_enabled()),
      profiling_enabled_(enable_profiling ||
                         telemetry::telemetry_config().trace_enabled()) {}

Runtime::~Runtime() {
  // Drain outstanding work so tasks never outlive the graph state.
  try {
    wait();
  } catch (...) {
    // Destructor must not throw; errors were already visible via wait().
  }
}

DataHandle Runtime::register_data() {
  // An empty name fits in SSO storage, so this stays O(1) allocations.
  return register_data(std::string{});
}

DataHandle Runtime::register_data(std::string name) {
  const std::uint64_t id = next_handle_id_.fetch_add(1);
  auto state = std::make_unique<HandleState>();
  state->name = std::move(name);
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    handles_.emplace(id, std::move(state));
  }
  return DataHandle{id};
}

void Runtime::submit(std::string name, std::vector<Dep> deps,
                     std::function<void()> fn) {
  submit(TaskDesc{std::move(name), std::move(deps), 0}, std::move(fn));
}

void Runtime::submit(std::string name, std::vector<Dep> deps,
                     std::function<void()> fn, SubmitOptions options) {
  submit(TaskDesc{std::move(name), std::move(deps), options.priority},
         std::move(fn));
}

void Runtime::submit(TaskDesc desc, std::function<void()> fn) {
  submit_impl(std::move(desc), std::move(fn));
}

ExternalEvent Runtime::submit_external(TaskDesc desc) {
  return ExternalEvent{
      submit_impl(std::move(desc), nullptr, /*external=*/true)};
}

void Runtime::signal_external(ExternalEvent event) {
  KGWAS_CHECK_ARG(event.valid(), "signalled an invalid external event");
  TaskNode* node = nullptr;
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    auto it = live_tasks_.find(event.task_id);
    KGWAS_CHECK_ARG(it != live_tasks_.end(),
                    "signalled an unknown or already-completed external event");
    node = it->second.get();
  }
  // Drop the signal hold; completes inline when it was the last one.
  if (node->remaining_deps.fetch_sub(1) == 1) {
    enqueue_ready(node);
  }
}

std::uint64_t Runtime::submit_impl(TaskDesc desc, std::function<void()> fn,
                                   bool external) {
  auto node = std::make_unique<TaskNode>();
  node->name = std::move(desc.name);
  node->fn = std::move(fn);
  node->priority = desc.priority;
  node->flops = desc.flops;
  // Sentinel dependency held by this submit() call itself: the task cannot
  // fire until every edge below has been wired.  External events carry a
  // second hold, released only by signal_external.
  node->remaining_deps.store(external ? 2 : 1);
  TaskNode* raw = node.get();

  // Dependencies this task must wait for (deduplicated by pointer).
  std::vector<TaskNode*> predecessors;
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    // Validate every handle before mutating any tracking state, so a bad
    // dependency leaves the runtime fully consistent (and the destructor's
    // wait() is not poisoned by a phantom pending task).
    for (const Dep& dep : desc.deps) {
      KGWAS_CHECK_ARG(handles_.count(dep.handle.id) != 0,
                      "task depends on an unregistered data handle");
    }
    node->id = next_task_id_.fetch_add(1) + 1;
    pending_tasks_.fetch_add(1);
    for (const Dep& dep : desc.deps) {
      HandleState& hs = *handles_.at(dep.handle.id);
      const bool reads = dep.access != Access::kWrite;
      const bool writes = dep.access != Access::kRead;
      // A task may declare the same handle several times (e.g. ReadWrite
      // on its output plus Read as an input): it must never become its own
      // predecessor, hence the `!= raw` guards throughout.
      if (reads && hs.last_writer != nullptr && hs.last_writer != raw) {
        predecessors.push_back(hs.last_writer);
      }
      if (writes) {
        if (hs.last_writer != nullptr && hs.last_writer != raw) {
          predecessors.push_back(hs.last_writer);
        }
        for (TaskNode* reader : hs.readers_since_write) {
          if (reader != raw) predecessors.push_back(reader);
        }
        hs.readers_since_write.clear();
        hs.last_writer = raw;
      }
      if (reads && !writes) {
        hs.readers_since_write.push_back(raw);
      }
    }
    live_tasks_.emplace(raw->id, std::move(node));
  }

  // Deduplicate predecessors and wire edges.  The count is raised *before*
  // each edge is published (under the predecessor's mutex) so a completing
  // predecessor can never decrement a counter that does not yet include it.
  // Predecessors that already finished are skipped.
  std::sort(predecessors.begin(), predecessors.end());
  predecessors.erase(std::unique(predecessors.begin(), predecessors.end()),
                     predecessors.end());
  for (TaskNode* pred : predecessors) {
    std::lock_guard<std::mutex> lock(pred->mutex);
    if (!pred->finished) {
      raw->remaining_deps.fetch_add(1);
      pred->successors.push_back(raw);
    }
  }
  // Drop the sentinel; fires immediately when there were no live deps.
  if (raw->remaining_deps.fetch_sub(1) == 1) {
    enqueue_ready(raw);
  }
  return raw->id;
}

void Runtime::enqueue_ready(TaskNode* node) {
  if (node->fn == nullptr) {
    // External event: no body to schedule — complete inline on whichever
    // thread met the last condition (final dependency or the signal), so
    // successors release without a scheduler round-trip.
    run_task(node);
    return;
  }
  scheduler_.submit([this, node] { run_task(node); }, node->priority);
}

void Runtime::run_task(TaskNode* node) {
  // Cancellation skips the body of every task that has not started yet —
  // dependents of a failed task never run on garbage — while completion
  // bookkeeping below still releases successors, so the graph drains.
  // External events (fn == nullptr) are completion markers, not bodies;
  // they always "run" so the signalling contract survives cancellation.
  const bool skip =
      node->fn != nullptr && cancelled_.load(std::memory_order_acquire);
  if (skip) tasks_cancelled_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t start = Timer::now_ns();
  try {
    if (!skip && node->fn) node->fn();
  } catch (...) {
    handle_task_error(std::current_exception());
  }
  const std::uint64_t end = Timer::now_ns();
  // Skipped bodies leave no span: their declared FLOPs never executed,
  // and recording them would corrupt per-class gflops in every trace of
  // a cancelled (breakdown-recovery) attempt.
  if (profiling_enabled_ && !skip) {
    profiler_.record(TaskSpan{node->name, start, end,
                              scheduler_.current_worker(), node->flops});
  }
  release_successors(node);

  // Nodes are retired in bulk by wait(): handle states may still hold
  // pointers to finished tasks, so per-task deletion would dangle.
  if (pending_tasks_.fetch_sub(1) == 1) {
    std::lock_guard<std::mutex> lock(done_mutex_);
    all_done_.notify_all();
  }
}

void Runtime::handle_task_error(std::exception_ptr error) {
  bool first = false;
  std::function<void(const std::exception_ptr&)> callback;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) {
      first_error_ = error;
      first = true;
      callback = error_callback_;
    }
  }
  // Publish the cancellation BEFORE the failing task releases its
  // successors (release_successors runs after this returns), so every
  // dependent is guaranteed to see the flag and skip.
  cancelled_.store(true, std::memory_order_release);
  if (first && callback) callback(error);
}

void Runtime::cancel() noexcept {
  cancelled_.store(true, std::memory_order_release);
}

void Runtime::set_error_callback(
    std::function<void(const std::exception_ptr&)> cb) {
  std::lock_guard<std::mutex> lock(error_mutex_);
  error_callback_ = std::move(cb);
}

void Runtime::release_successors(TaskNode* node) {
  std::vector<TaskNode*> ready;
  {
    std::lock_guard<std::mutex> lock(node->mutex);
    node->finished = true;
    for (TaskNode* succ : node->successors) {
      if (succ->remaining_deps.fetch_sub(1) == 1) ready.push_back(succ);
    }
    node->successors.clear();
  }
  // No ordering needed here: the scheduler's priority buckets decide
  // which ready task a worker pops, regardless of push order.
  for (TaskNode* succ : ready) enqueue_ready(succ);
}

void Runtime::wait() {
  {
    std::unique_lock<std::mutex> lock(done_mutex_);
    all_done_.wait(lock, [this] { return pending_tasks_.load() == 0; });
  }
  // The graph has drained: retire every node and reset handle tracking so
  // the next algorithm starts from a clean slate.
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    if (pending_tasks_.load() == 0) {
      live_tasks_.clear();
      for (auto& [id, state] : handles_) {
        state->last_writer = nullptr;
        state->readers_since_write.clear();
      }
    }
  }
  // Steal/priority counters are part of every drain, independent of span
  // profiling, so benches can always read scheduler efficiency.
  profiler_.set_scheduler_stats(scheduler_.stats());
  // The drained graph is gone: clear the cancellation so tasks submitted
  // after this wait() run normally — this is what makes the Runtime
  // reusable after a failure.
  cancelled_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (first_error_) {
    auto error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void Runtime::reset_profiling() {
  profiler_.clear();
  scheduler_.reset_stats();
}

void Runtime::account_data_motion(std::size_t bytes) noexcept {
  data_motion_.fetch_add(bytes, std::memory_order_relaxed);
}

}  // namespace kgwas
