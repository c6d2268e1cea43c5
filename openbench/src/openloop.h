// Open-loop arrival engine.
//
// A phase is one time-ordered schedule of requests and fault events (an
// event queue keyed by due time, released by a single clock loop in the
// style of a discrete-event simulator's tick loop). The generator thread
// sleeps until each arrival is due and hands it to the caller thread
// (requests) or the writer thread (fault events). It never waits for a
// reply, so a stall in the system under test delays later requests
// instead of thinning the offered load, and every request is timed from
// the instant it was due, not from when a caller got to it.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/telemetry.h"

namespace openbench {

/// The library's span clock: deadlines and stage histograms use it too.
inline std::uint64_t nowNs() { return meshrt::telemetryNowNs(); }

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Sleeps until shortly before `t`, then spins: a bare sleep overshoots
/// by tens of microseconds, which would show up as generator lateness.
inline void waitUntilNs(std::uint64_t t) {
  constexpr std::uint64_t kSpinNs = 100'000;
  const std::uint64_t now = nowNs();
  if (t > now + kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t - now - kSpinNs));
  }
  while (nowNs() < t) cpuRelax();
}

/// Unbounded hand-off between the generator and one consumer.
template <class T>
class HandOff {
 public:
  void push(T value) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      items_.push_back(value);
      count_.fetch_add(1, std::memory_order_release);
    }
    cv_.notify_one();
  }

  /// Next item. Busy-waits for up to `spinNs` first, so a request that
  /// arrives within that window never pays a thread wake-up before its
  /// serve, then sleeps, so an idle caller leaves its core to the
  /// system's own threads. nullopt once closed and drained.
  std::optional<T> popSpinThenWait(std::uint64_t spinNs) {
    const std::uint64_t until = nowNs() + spinNs;
    for (;;) {
      if (count_.load(std::memory_order_acquire) > 0 ||
          closedFlag_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!items_.empty()) {
          T value = items_.front();
          items_.pop_front();
          count_.fetch_sub(1, std::memory_order_relaxed);
          return value;
        }
        if (closed_) return std::nullopt;
      }
      if (nowNs() > until) return pop();
      cpuRelax();
    }
  }

  /// Next item; waits up to `timeoutNs` (0 = until an item arrives or the
  /// queue closes). nullopt on timeout or when closed and drained.
  std::optional<T> pop(std::uint64_t timeoutNs = 0) {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto ready = [&] { return closed_ || !items_.empty(); };
    if (timeoutNs == 0) {
      cv_.wait(lock, ready);
    } else {
      cv_.wait_for(lock, std::chrono::nanoseconds(timeoutNs), ready);
    }
    if (items_.empty()) return std::nullopt;
    T value = items_.front();
    items_.pop_front();
    count_.fetch_sub(1, std::memory_order_relaxed);
    return value;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      closedFlag_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
  std::atomic<std::size_t> count_{0};
  std::atomic<bool> closedFlag_{false};
};

/// One schedule entry; `dueNs` is relative to the phase start.
struct Arrival {
  std::uint64_t dueNs = 0;
  bool isEvent = false;
  std::uint32_t index = 0;  ///< into the phase's requests or events
};

struct RequestTiming {
  std::uint64_t due = 0;
  std::uint64_t start = 0;  ///< the caller entered the serve call
  std::uint64_t end = 0;    ///< 0 when abandoned (capacity probes only)
};

struct EventTiming {
  std::uint64_t due = 0;
  std::uint64_t visible = 0;  ///< 0 when never observed
};

/// What the engine drives. serve() runs on the caller thread;
/// applyEvent() and pollPending() on the writer thread.
class Target {
 public:
  virtual ~Target() = default;
  virtual void serve(std::uint32_t request, const RequestTiming& timing) = 0;
  /// Applies or submits one event. Synchronous targets set
  /// timing.visible before returning; asynchronous ones remember the
  /// slot and fill it from pollPending().
  virtual void applyEvent(std::uint32_t event, EventTiming& timing) = 0;
  /// Fills visibility for submitted events; true while some are pending.
  virtual bool pollPending() { return false; }
};

struct PhaseResult {
  std::vector<RequestTiming> requests;
  std::vector<EventTiming> events;
  std::vector<std::uint64_t> lateNs;  ///< generator lateness per arrival
  std::size_t inflightMax = 0;
  /// Requests released but not finished when the last arrival was due.
  std::size_t backlogAtEnd = 0;
  std::size_t abandoned = 0;
};

struct PhaseOptions {
  /// Capacity probes: when the backlog at the end exceeds this, queued
  /// requests are dropped instead of served (they were never sent to the
  /// system, so they count as neither attempted nor failed).
  std::size_t abandonAbove = SIZE_MAX;
  /// Upper bound on waiting for event visibility after the last arrival.
  std::uint64_t visibilityTimeoutNs = 10'000'000'000ULL;
};

/// How long an idle caller busy-waits before it sleeps. Longer than any
/// gap the request rates in workloads.json leave between arrivals, so on
/// those the caller never pays a wake-up; an idle caller still yields its
/// core after a second.
constexpr std::uint64_t kCallerSpinNs = 1'000'000'000;

/// Runs one phase in real time: this thread is the generator, one caller
/// thread serves requests in arrival order, one writer thread applies
/// events. Returns when every request finished (or was abandoned) and
/// every event became visible (or timed out).
inline PhaseResult runPhase(const std::vector<Arrival>& schedule,
                            std::size_t requestCount, std::size_t eventCount,
                            Target& target, const PhaseOptions& options) {
  PhaseResult out;
  out.requests.resize(requestCount);
  out.events.resize(eventCount);
  out.lateNs.reserve(schedule.size());
  HandOff<std::uint32_t> callerQueue;
  HandOff<std::uint32_t> writerQueue;
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> abandon{false};
  std::atomic<std::size_t> abandoned{0};

  std::thread caller([&] {
    while (auto idx = callerQueue.popSpinThenWait(kCallerSpinNs)) {
      RequestTiming& t = out.requests[*idx];
      if (abandon.load(std::memory_order_relaxed)) {
        abandoned.fetch_add(1);
      } else {
        t.start = nowNs();
        target.serve(*idx, t);
        t.end = nowNs();
      }
      completed.fetch_add(1, std::memory_order_release);
    }
  });
  std::thread writer([&] {
    constexpr std::uint64_t kPollNs = 200'000;
    bool pending = false;
    std::uint64_t giveUpAt = 0;
    for (;;) {
      auto idx = writerQueue.pop(pending ? kPollNs : 0);
      if (idx) {
        target.applyEvent(*idx, out.events[*idx]);
      }
      pending = target.pollPending();
      if (idx || !writerQueue.closed()) continue;
      // Closed and drained: wait (bounded) for submitted events to show.
      if (!pending) break;
      if (giveUpAt == 0) giveUpAt = nowNs() + options.visibilityTimeoutNs;
      if (nowNs() > giveUpAt) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(kPollNs));
    }
  });

  const std::uint64_t t0 = nowNs() + 2'000'000;  // 2 ms lead-in
  std::size_t released = 0;
  for (std::size_t a = 0; a < schedule.size(); ++a) {
    const Arrival& arrival = schedule[a];
    const std::uint64_t due = t0 + arrival.dueNs;
    waitUntilNs(due);
    const std::uint64_t now = nowNs();
    out.lateNs.push_back(now > due ? now - due : 0);
    if (arrival.isEvent) {
      out.events[arrival.index].due = due;
      writerQueue.push(arrival.index);
    } else {
      out.requests[arrival.index].due = due;
      callerQueue.push(arrival.index);
      ++released;
      const std::size_t inflight =
          released - completed.load(std::memory_order_acquire);
      out.inflightMax = std::max(out.inflightMax, inflight);
    }
  }
  out.backlogAtEnd = released - completed.load(std::memory_order_acquire);
  if (out.backlogAtEnd > options.abandonAbove) abandon.store(true);
  callerQueue.close();
  caller.join();
  writerQueue.close();
  writer.join();
  out.abandoned = abandoned.load();
  return out;
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

}  // namespace openbench
