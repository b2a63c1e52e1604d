// A persistent fixed-size worker pool with task groups, exception
// capture, and help-while-waiting — the thread substrate of the
// ingestion engine. Created once per engine and reused across every
// parallel stage (decode, shard-clean, tournament merge) of every
// window and every poll()/finish() call, replacing the per-stage
// spawn/join that dominated fixed cost at small windows.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bgpcc::core {

/// A fixed set of worker threads fed from one task queue. Work is
/// organised in Groups: submit(group, task) enqueues a task, and
/// wait(group) blocks until every task of that group has finished,
/// rethrowing the first exception any of them threw.
///
/// Two properties make a fixed pool safe for pipelined stages:
///
///  - wait() and help_one() HELP: a thread with nothing to do but wait
///    executes queued tasks itself (from any group), so a caller can
///    always drive its own work to completion — even on a pool with
///    zero workers, and even when a task enqueues further tasks into
///    its own group (the framer → decoder pattern).
///  - A failed group short-circuits: once one task of a group throws,
///    the group's remaining queued tasks are skipped (completed without
///    running), so a failing stage stops promptly instead of burning
///    the pool on doomed work. The check runs when a task starts, so a
///    task already in flight may let later tasks of its group start:
///    until its throw is recorded, other workers and helping waiters
///    keep taking the group's queued tasks. Only tasks that start after
///    the failure is recorded are skipped.
///
/// Tasks must not wait() on their own group (they would deadlock on
/// their own completion); submitting into their own group is fine.
class WorkerPool {
 public:
  /// Completion/error state of one batch of related tasks. Reusable
  /// after wait() returns; not movable while tasks reference it.
  class Group {
   public:
    Group() = default;
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

    /// True once any task of this group has thrown (or fail() was
    /// called). Cheap: long-running tasks poll it to stop early.
    [[nodiscard]] bool failed() const {
      return failed_.load(std::memory_order_acquire);
    }

   private:
    friend class WorkerPool;
    std::size_t pending_ = 0;     // tasks submitted, not yet completed
    std::exception_ptr error_;    // first failure; rethrown by wait()
    std::atomic<bool> failed_{false};
  };

  /// Starts `workers` threads. Zero is valid: every task then runs on
  /// the thread that wait()s (or help_one()s) — the degenerate inline
  /// configuration, used so callers need no separate single-threaded
  /// code path.
  explicit WorkerPool(unsigned workers);
  /// Joins the workers after draining the queue. Every group must have
  /// been wait()ed first — destroying the pool with tasks in flight
  /// whose captures are already dead is the caller's bug.
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues a task into `group` (which must outlive its completion).
  /// Callable from any thread, including from running tasks.
  void submit(Group& group, std::function<void()> task);

  /// Blocks until every task of `group` has completed, executing queued
  /// tasks (any group) while waiting. Rethrows the group's first
  /// exception and resets the group for reuse.
  void wait(Group& group);

  /// Runs one queued task on the calling thread, if any is available.
  /// The cooperative back-off for tasks that would otherwise block on a
  /// capacity limit. Returns false when the queue is empty.
  bool help_one();

  /// Runs body(0..jobs-1), the workers and the calling thread pulling
  /// job indices from a shared counter; rethrows the first exception
  /// after all claimed jobs finish. Once any job throws, unclaimed jobs
  /// are never started. Runs inline when the pool has no workers or
  /// jobs <= 1.
  void parallel_for(std::size_t jobs,
                    const std::function<void(std::size_t)>& body);

  /// Records an external failure into `group`, as if one of its tasks
  /// had thrown: queued tasks are skipped and wait() rethrows. Used by
  /// callers that run part of a group's work on their own thread.
  void fail(Group& group, std::exception_ptr error);

  /// Number of pool threads (excludes helping callers).
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

 private:
  struct Task {
    Group* group = nullptr;
    std::function<void()> fn;
    // Submit timestamp for the obs queue-wait histogram; only stamped
    // (and only read) while obs stage timing is enabled.
    std::chrono::steady_clock::time_point enqueued{};
    bool timed = false;
  };

  void worker_loop();
  void run_task(Task& task);
  void complete(Group& group);

  std::mutex mutex_;
  std::condition_variable task_cv_;  // workers: task available or stop
  std::condition_variable done_cv_;  // waiters: group done or helpable work
  std::deque<Task> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace bgpcc::core
