// Work-sharing thread pool with per-batch task groups, used by the
// experiment harness and the route-query service.
//
// Workers pull jobs from ONE shared FIFO queue, so jobs from independent
// groups interleave freely; each job is accounted to the TaskGroup that
// submitted it, and group.wait() blocks only until THAT group's jobs are
// done (helping to run its own queued jobs meanwhile), never on other
// callers' work. Exceptions are captured per group: a throwing job in one
// batch can never surface on another batch's wait. See DESIGN.md
// section 8 for the executor contract.
//
// The sweeps in bench/ are embarrassingly parallel over trials; results
// stay bitwise reproducible because each trial derives its RNG from
// (seed, trial) rather than from thread identity (see common/rng.h).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/telemetry.h"

namespace meshrt {

class ThreadPool;

/// Optional pool instrumentation (common/telemetry.h). Null members are
/// simply not updated, so a default-constructed PoolTelemetry keeps the
/// pool untouched.
struct PoolTelemetry {
  std::shared_ptr<Counter> jobsExecuted;  ///< jobs dequeued for running
  std::shared_ptr<Gauge> queueDepth;      ///< jobs sitting in the queue
  std::shared_ptr<Histogram> waitStall;   ///< ns a waiter slept per doze
};

namespace detail {

/// Shared accounting of one task group: jobs in flight (queued or
/// running), jobs still sitting in the pool queue (so a helping waiter
/// knows to wake up and pop them — nested submits can arrive while it
/// sleeps), and the first exception any job raised. Jobs keep the state
/// alive via shared_ptr, so a group may be destroyed while its last jobs
/// still drain.
struct GroupState {
  std::mutex mutex;
  std::condition_variable cvDone;
  std::size_t inFlight = 0;
  /// Signed: a pop may be counted before the matching post-push
  /// increment lands (see ThreadPool::enqueue), making -1 a legal
  /// transient. Only `> 0` is ever meaningful.
  std::ptrdiff_t queued = 0;
  std::exception_ptr firstError;
};

}  // namespace detail

/// Fixed-size pool executing void() jobs FIFO from a shared queue.
///
/// Jobs are submitted only through a TaskGroup (or parallelFor, which
/// makes one). Independent groups share the workers but wait
/// independently.
class ThreadPool {
 public:
  /// `threads == 0` selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0, PoolTelemetry telemetry = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const { return workers_.size(); }

 private:
  friend class TaskGroup;

  /// One queue entry: the job plus the group it is accounted to.
  struct QueuedJob {
    std::function<void()> job;
    std::shared_ptr<detail::GroupState> group;
  };

  /// Accounts the job to `group` and enqueues it.
  void enqueue(std::shared_ptr<detail::GroupState> group,
               std::function<void()> job);

  /// Runs one dequeued job, routing its exception and its in-flight
  /// decrement to the owning group. Never throws.
  static void runJob(QueuedJob&& entry);

  /// Pops the first queued job accounted to `group`, if any (the helping
  /// path of TaskGroup::wait()).
  bool tryPopGroupJob(const detail::GroupState& group, QueuedJob& out);

  /// Maintains GroupState::queued (and the depth/executed instruments)
  /// when a job leaves the pool queue.
  void markDequeued(detail::GroupState& group);

  /// Blocks until `group` is idle, running its queued jobs on the caller
  /// meanwhile. Does not rethrow (callers decide what to do with the
  /// group's firstError).
  void helpUntilIdle(detail::GroupState& group);

  void workerLoop();

  std::vector<std::thread> workers_;
  std::deque<QueuedJob> jobs_;
  std::mutex mutex_;
  std::condition_variable cvJob_;
  PoolTelemetry telemetry_;
  bool stop_ = false;
};

/// One caller's batch of jobs on a shared pool.
///
/// Contract (DESIGN.md section 8):
///  - submit() may be called from the owning thread AND from inside this
///   group's own jobs (nested fan-out); every submitted job is covered
///   by the next wait().
///  - wait() blocks only until THIS group is idle. While waiting, the
///    caller helps by running its own group's queued jobs, so a waiting
///    batch never just burns a core. It then rethrows the group's first
///    job exception (other groups' errors are invisible here).
///  - wait() must be called from outside the pool's workers (a job must
///    not wait on its own group — it would deadlock once every worker
///    does it).
///  - The destructor drains remaining jobs without rethrowing, so a
///    group unwinding through an exception never leaves jobs running
///    against destroyed captures.
///  - A group is tied to one pool and must not outlive it.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool)
      : pool_(pool), state_(std::make_shared<detail::GroupState>()) {}

  /// Drains (waits for every submitted job) without rethrowing.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues a job accounted to this group.
  void submit(std::function<void()> job);

  /// Blocks until the group is idle (helping with its own queued jobs),
  /// then rethrows the group's first job exception, if any. The group is
  /// reusable afterwards.
  void wait();

 private:
  ThreadPool& pool_;
  std::shared_ptr<detail::GroupState> state_;
};

/// Runs body(i) for i in [0, count) across the pool in contiguous chunks
/// on a private TaskGroup: concurrent parallelFor calls on one pool make
/// independent progress. Blocks until all iterations complete (the caller
/// helps run its own chunks). Safe to call with count == 0.
void parallelFor(ThreadPool& pool, std::size_t count,
                 const std::function<void(std::size_t)>& body);

}  // namespace meshrt
