#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

namespace meshrt {

ThreadPool::ThreadPool(std::size_t threads, PoolTelemetry telemetry)
    : telemetry_(std::move(telemetry)) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cvJob_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::shared_ptr<detail::GroupState> group,
                         std::function<void()> job) {
  detail::GroupState& state = *group;
  // inFlight counts BEFORE the job becomes runnable (a waiter must never
  // observe an idle group with a job queued); queued counts AFTER the
  // push, so a waiter woken by the queued signal always finds the job in
  // the pool queue instead of busy-looping on the window in between. A
  // worker may pop-and-decrement inside that window, which is why queued
  // is signed.
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    ++state.inFlight;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(QueuedJob{std::move(job), std::move(group)});
  }
  if (telemetry_.queueDepth) telemetry_.queueDepth->add(1);
  cvJob_.notify_one();
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    ++state.queued;
  }
  // Also wake the group's waiter (if any): a nested submit must be
  // helpable even when the waiter already went to sleep.
  state.cvDone.notify_all();
}

void ThreadPool::runJob(QueuedJob&& entry) {
  std::exception_ptr error;
  try {
    entry.job();
  } catch (...) {
    error = std::current_exception();
  }
  // Destroy the closure (and its by-value captures) BEFORE the group is
  // marked idle: a drained group must mean every job object is gone, not
  // just returned from.
  entry.job = nullptr;
  detail::GroupState& group = *entry.group;
  std::lock_guard<std::mutex> lock(group.mutex);
  if (error && !group.firstError) group.firstError = error;
  if (--group.inFlight == 0) group.cvDone.notify_all();
}

bool ThreadPool::tryPopGroupJob(const detail::GroupState& group,
                                QueuedJob& out) {
  // Linear scan under the pool mutex: queue depth is bounded by
  // (concurrent callers) x (threadCount * 4) chunk jobs, tens of entries
  // in practice. Revisit with a per-group job index if callers ever
  // queue thousands of jobs each.
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
    if (it->group.get() == &group) {
      out = std::move(*it);
      jobs_.erase(it);
      markDequeued(*out.group);
      return true;
    }
  }
  return false;
}

/// Group-mutex nests inside the pool mutex on the pop paths; enqueue()
/// takes them sequentially, never nested the other way, so the order is
/// acyclic.
void ThreadPool::markDequeued(detail::GroupState& group) {
  if (telemetry_.queueDepth) telemetry_.queueDepth->sub(1);
  if (telemetry_.jobsExecuted) telemetry_.jobsExecuted->add(1);
  std::lock_guard<std::mutex> lock(group.mutex);
  --group.queued;
}

void ThreadPool::helpUntilIdle(detail::GroupState& group) {
  for (;;) {
    QueuedJob entry;
    if (tryPopGroupJob(group, entry)) {
      runJob(std::move(entry));
      continue;
    }
    // Nothing of ours queued right now: sleep until the group is idle OR
    // more of its jobs land in the queue (a job running on a worker may
    // submit nested jobs — we must wake and help those too, or they
    // could starve behind other groups' work on a saturated pool).
    TraceSpan stall(telemetry_.waitStall.get());
    std::unique_lock<std::mutex> lock(group.mutex);
    group.cvDone.wait(lock, [&group] {
      return group.inFlight == 0 || group.queued > 0;
    });
    if (group.inFlight == 0) return;
  }
}

void ThreadPool::workerLoop() {
  for (;;) {
    QueuedJob entry;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cvJob_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) {
        if (stop_) return;
        continue;
      }
      entry = std::move(jobs_.front());
      jobs_.pop_front();
      markDequeued(*entry.group);
    }
    runJob(std::move(entry));
  }
}

TaskGroup::~TaskGroup() { pool_.helpUntilIdle(*state_); }

void TaskGroup::submit(std::function<void()> job) {
  pool_.enqueue(state_, std::move(job));
}

void TaskGroup::wait() {
  pool_.helpUntilIdle(*state_);
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    error = std::exchange(state_->firstError, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void parallelFor(ThreadPool& pool, std::size_t count,
                 const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  TaskGroup group(pool);
  const std::size_t chunks = std::min(count, pool.threadCount() * 4);
  const std::size_t per = (count + chunks - 1) / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * per;
    const std::size_t hi = std::min(count, lo + per);
    if (lo >= hi) break;
    group.submit([lo, hi, &body] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    });
  }
  group.wait();
}

}  // namespace meshrt
