// In-memory span log for the traced run.
//
// Each span records a name, start, end, its parent span and the request it
// belongs to (spans of one request share that id). Threads append to
// private buffers, so recording takes no lock after a thread's first
// span; everything is aggregated and written out once, at exit. A
// disabled log makes SpanScope inert, with no clock reads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "openloop.h"

namespace openbench {

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;   ///< 0 = root
  std::uint32_t request = 0;  ///< 0 = not part of a request
  std::uint16_t name = 0;
};

/// Per-name totals: busy time and self time (busy minus child spans).
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t totalNs = 0;
  std::uint64_t selfNs = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// Interns a span name. Call before worker threads start.
  std::uint16_t intern(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint16_t>(i);
    }
    names_.push_back(name);
    return static_cast<std::uint16_t>(names_.size() - 1);
  }

  std::uint32_t nextId() { return ids_.fetch_add(1) + 1; }

  void record(const Span& span) {
    if (!enabled_) return;
    thread_local SpanLog* owner = nullptr;
    thread_local std::deque<Span>* buffer = nullptr;
    if (owner != this) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<std::deque<Span>>());
      buffer = buffers_.back().get();
      owner = this;
    }
    buffer->push_back(span);
  }

  /// Busy and self time per span name. Call after every recording thread
  /// has been joined.
  std::map<std::string, SpanTotals> totals() const {
    std::unordered_map<std::uint32_t, std::uint64_t> childNs;
    for (const auto& buf : buffers_) {
      for (const Span& s : *buf) {
        if (s.parent != 0) childNs[s.parent] += s.end - s.start;
      }
    }
    std::map<std::string, SpanTotals> out;
    for (const auto& buf : buffers_) {
      for (const Span& s : *buf) {
        SpanTotals& t = out[names_[s.name]];
        const std::uint64_t busy = s.end - s.start;
        const auto child = childNs.find(s.id);
        const std::uint64_t covered = child == childNs.end() ? 0 : child->second;
        t.count += 1;
        t.totalNs += busy;
        t.selfNs += busy > covered ? busy - covered : 0;
      }
    }
    return out;
  }

  /// Writes spans as CSV (id,parent,request,name,start_ns,end_ns), at
  /// most `limit` of them per recording thread so a traced run's file
  /// stays a few megabytes; totals() always covers every span.
  bool writeCsv(const std::string& path, std::size_t limit) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "id,parent,request,name,start_ns,end_ns\n";
    for (const auto& buf : buffers_) {
      const std::size_t n = std::min(limit, buf->size());
      for (std::size_t i = 0; i < n; ++i) {
        const Span& s = (*buf)[i];
        os << s.id << ',' << s.parent << ',' << s.request << ','
           << names_[s.name] << ',' << s.start << ',' << s.end << '\n';
      }
    }
    return static_cast<bool>(os);
  }

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::atomic<std::uint32_t> ids_{0};
  std::mutex mutex_;
  /// Deques: growing one never copies the spans already recorded.
  std::vector<std::unique_ptr<std::deque<Span>>> buffers_;
};

/// RAII span around one layer call.
class SpanScope {
 public:
  SpanScope(SpanLog& log, std::uint16_t name, std::uint32_t request,
            std::uint32_t parent)
      : log_(log.enabled() ? &log : nullptr) {
    if (log_ == nullptr) return;
    span_.name = name;
    span_.request = request;
    span_.parent = parent;
    span_.id = log_->nextId();
    span_.start = nowNs();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { stop(); }

  void stop() {
    if (log_ == nullptr) return;
    span_.end = nowNs();
    log_->record(span_);
    log_ = nullptr;
  }

 private:
  SpanLog* log_;
  Span span_;
};

}  // namespace openbench
