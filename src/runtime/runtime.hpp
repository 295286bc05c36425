// Task-based dataflow runtime — the library's PaRSEC substitute.
//
// The paper drives every tiled kernel through PaRSEC: tasks declare which
// tiles they read/write and the runtime extracts the DAG, schedules tasks
// onto resources, and converts tile precision on the fly when producer and
// consumer disagree.  This runtime reproduces the same *semantics* on a
// shared-memory node:
//
//  * A task names each datum it touches by address (a tile slot, the
//    first element of a row block, ...), as OpenMP `depend` clauses and
//    QUARK do.  Nothing is registered: the first task that names an
//    address starts its tracking, and `wait()` forgets every address, so
//    dependency state lives exactly as long as one task graph.
//  * `submit(desc, fn)` registers a task.  The runtime infers dependencies
//    from access modes with the usual superscalar rules — a reader waits
//    for the last writer, a writer waits for the last writer and every
//    reader since — which yields the identical DAG a dataflow description
//    would for our algorithms.  Within one graph an address must name one
//    datum: whoever submits a graph keeps the data it names alive until
//    the graph has drained.
//  * Ready tasks execute on a priority-aware work-stealing Scheduler
//    (common/scheduler.hpp).  A task's integer priority (higher first)
//    decides which ready task a worker picks next; the tiled solvers use
//    this to keep the Cholesky critical path (panel POTRF/TRSM) ahead of
//    trailing-update GEMMs, the way PaRSEC's priority hints do.
//  * Completions release successors.  The `Profiler` records per-task
//    spans (for trace dumps) and reads the scheduler's steal and
//    queue-depth counters live.  The modelled data motion of a tiled
//    factorization is `tiled_potrf_data_motion_bytes`
//    (linalg/tiled_cholesky.hpp), a pure function of the matrix.
//
// Execution is fully asynchronous: `submit` never blocks and `wait()`
// drains the graph.  Submitting from inside a task is allowed.
//
// Error contract (structured failure propagation): an exception thrown
// inside a task body is captured and *cancels the remaining DAG* — every
// task that has not started yet (dependents and independents alike) is
// skipped instead of running on garbage, while the dependency graph still
// resolves so `wait()` always drains.  `wait()` rethrows the first
// captured exception and resets the cancellation state, leaving the
// Runtime fully reusable: the next graph starts from no tracked data and
// runs normally.  External events must still be signalled even under
// cancellation (the distributed layer's recovery protocol force-signals
// the events of receives that can no longer happen).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/scheduler.hpp"
#include "runtime/profiler.hpp"

namespace kgwas {

/// How a task touches a datum.
enum class Access : unsigned char { kRead, kWrite, kReadWrite };

/// One dependency declaration of a task: the address that names the
/// datum within the current graph, and how the task touches it.
struct Dep {
  const void* datum = nullptr;
  Access access = Access::kRead;
};

/// Full task description: name (traces only), data dependencies,
/// priority, and optionally the task's useful FLOP count (profiler
/// reports achieved GFLOP/s per task class when set).
struct TaskDesc {
  std::string name;
  std::vector<Dep> deps;
  int priority = 0;
  double flops = 0.0;
};

/// Handle to an externally-completed task (see Runtime::submit_external).
struct ExternalEvent {
  std::uint64_t task_id = 0;
  bool valid() const noexcept { return task_id != 0; }
};

/// Task-group counters, always zero: every task runs on its own through
/// submit().  This view stays only until the pipeline benchmark drops its
/// `runtime.batch.*` metrics, which read it (ROADMAP.md, benchmark-change
/// queue).
struct BatchStats {
  std::uint64_t groups = 0;
  std::uint64_t batched_tasks = 0;
  std::uint64_t empty_runs = 0;

  double avg_group() const noexcept {
    return groups == 0 ? 0.0
                       : static_cast<double>(batched_tasks) /
                             static_cast<double>(groups);
  }
};

class Runtime {
 public:
  /// `workers` = 0 selects hardware concurrency.  `enable_profiling`
  /// records per-task spans (KGWAS_TRACE turns it on as well).
  explicit Runtime(std::size_t workers = 0, bool enable_profiling = false);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Submits a task.  Dependencies are inferred from the tasks of the
  /// current graph submitted earlier that touch the same addresses.
  /// Never blocks.
  void submit(TaskDesc desc, std::function<void()> fn);

  /// Registers an external completion as a task: dependencies are
  /// declared and inferred exactly as for `submit`, but the task has no
  /// body — it completes (releasing its successors) only once both its
  /// dependencies are satisfied and `signal_external` has been called.
  /// The distributed layer uses this to wire message arrival into the
  /// task graph: a recv-completion event is the writer of the slot a
  /// received tile decodes into, and consumer tasks simply declare a Read
  /// on that slot.
  ///
  /// Contract: every submitted event must be signalled exactly once
  /// before `wait()` can return (an unsignalled event counts as a pending
  /// task and blocks the drain forever).
  ExternalEvent submit_external(TaskDesc desc);

  /// Completes an external event.  Callable from any thread, including
  /// non-worker threads (the distributed progress loop).  When the event
  /// is the last unmet dependency of successor tasks, they are released
  /// inline on the calling thread.
  void signal_external(ExternalEvent event);

  /// The zero BatchStats view (see BatchStats).
  BatchStats batch_stats() const noexcept { return {}; }

  /// Blocks until every submitted task (and tasks they submitted) is done,
  /// then forgets the graph: every task and every tracked address.
  /// Rethrows the first task exception, if any — a task exception cancels
  /// every not-yet-started task of the current graph (see the error
  /// contract above), so wait() returns promptly after a failure and the
  /// Runtime is reusable afterwards.
  void wait();

  /// Cancels every not-yet-started task of the current graph: their
  /// bodies are skipped, but the dependency graph still resolves so
  /// wait() drains.  Unlike a task exception, an explicit cancel records
  /// no error — wait() returns normally (unless a task also threw).  The
  /// distributed recovery protocol uses this when a *remote* rank reports
  /// a breakdown: local tasks must stop without manufacturing a local
  /// error.  Cleared by wait().
  void cancel() noexcept;

  /// Task bodies skipped by cancellation so far (monotonic, like
  /// tasks_submitted); diff around a drain to count one graph's skips.
  std::uint64_t tasks_cancelled() const noexcept {
    return tasks_cancelled_.load(std::memory_order_relaxed);
  }

  /// Installs a callback invoked at most once per drain cycle, on the
  /// worker thread that caught the *first* task exception, before the
  /// failing task's successors are released.  The callback must be cheap
  /// and must not call wait() (it runs inside a worker); the distributed
  /// layer uses it to broadcast a breakdown wake-up frame so peer ranks'
  /// progress loops unblock.  Pass nullptr to clear.  Persists across
  /// drains until replaced.
  void set_error_callback(std::function<void(const std::exception_ptr&)> cb);

  /// Total tasks submitted so far.
  std::uint64_t tasks_submitted() const noexcept { return next_task_id_.load(); }

  const Profiler& profiler() const noexcept { return profiler_; }
  Profiler& profiler() noexcept { return profiler_; }

  /// Clears recorded spans AND the scheduler's cumulative steal/queue
  /// counters, so measurements after a warm-up start from zero.
  void reset_profiling();

  std::size_t workers() const noexcept { return scheduler_.workers(); }

 private:
  struct TaskNode;
  // Superscalar tracking of one datum: the last task that wrote it, and
  // every reader submitted since that write.
  struct HandleState {
    TaskNode* last_writer = nullptr;
    std::vector<TaskNode*> readers_since_write;
  };

  void release_successors(TaskNode* node);
  void enqueue_ready(TaskNode* node);
  void run_task(TaskNode* node);
  void handle_task_error(std::exception_ptr error);
  std::uint64_t submit_impl(TaskDesc desc, std::function<void()> fn,
                            bool external = false);

  Profiler profiler_;

  std::mutex graph_mutex_;
  // Dependency state of the current graph, keyed by datum address.
  std::unordered_map<const void*, HandleState> data_;
  std::unordered_map<std::uint64_t, std::unique_ptr<TaskNode>> live_tasks_;
  std::atomic<std::uint64_t> next_task_id_{0};
  std::atomic<std::uint64_t> pending_tasks_{0};

  std::mutex done_mutex_;
  std::condition_variable all_done_;
  std::exception_ptr first_error_;
  std::function<void(const std::exception_ptr&)> error_callback_;
  std::mutex error_mutex_;
  std::atomic<bool> cancelled_{false};
  std::atomic<std::uint64_t> tasks_cancelled_{0};

  // Declared last, so destroyed first: its destructor joins the workers
  // while everything a finishing task touches (the profiler, the graph,
  // the done signal) is still alive.  A worker may still be notifying
  // all_done_ when wait() has already seen the last task finish.
  Scheduler scheduler_;
};

}  // namespace kgwas
