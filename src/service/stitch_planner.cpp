#include "service/stitch_planner.h"

#include <algorithm>
#include <queue>

namespace meshrt {

namespace {

void bump(const std::shared_ptr<Counter>& c, std::uint64_t n = 1) {
  if (c && n != 0) c->add(n);
}

}  // namespace

StitchPlanner::StitchPlanner(const ShardLayout& layout, StitchPlanMode,
                             StitchPlannerCounters counters)
    : layout_(&layout), counters_(std::move(counters)) {
  const std::size_t count = layout.shardCount();
  // Same canonical enumeration order as the flat graph's ctor (from
  // ascending, neighbors ascending, each border once): keys come out
  // ascending, so borderIndex is a binary search.
  for (std::size_t from = 0; from < count; ++from) {
    for (std::size_t to : layout.neighbors(from)) {
      if (to < from) continue;
      borderKeys_.push_back(from * count + to);
      borderShards_.emplace_back(from, to);
    }
  }
  entries_.resize(borderShards_.size());
}

std::size_t StitchPlanner::borderIndex(std::size_t a, std::size_t b) const {
  const std::size_t key =
      std::min(a, b) * layout_->shardCount() + std::max(a, b);
  const auto it =
      std::lower_bound(borderKeys_.begin(), borderKeys_.end(), key);
  if (it == borderKeys_.end() || *it != key) return borderShards_.size();
  return static_cast<std::size_t>(it - borderKeys_.begin());
}

std::shared_ptr<const StitchPlanner::BorderEntry> StitchPlanner::scanBorder(
    std::size_t idx, const std::function<bool(Point)>& healthy,
    std::uint64_t epochA, std::uint64_t epochB, bool full) const {
  const auto [a, b] = borderShards_[idx];
  auto entry = std::make_shared<BorderEntry>();
  entry->epochA = epochA;
  entry->epochB = epochB;
  entry->full = full;
  for (const ShardLayout::Crossing& c : layout_->crossings(a, b)) {
    if (!healthy(c.a) || !healthy(c.b)) continue;
    entry->adjacent = true;
    if (!full) break;  // adjacency only needs one healthy crossing
    entry->crossings.push_back(Waypoint{c.a, c.b, a, b});
  }
  return entry;
}

StitchPlanner::Session::Session(StitchPlanner& owner,
                                std::function<bool(Point)> healthy,
                                std::vector<std::uint64_t> borderEpochs)
    : owner_(&owner),
      healthy_(std::move(healthy)),
      epochs_(std::move(borderEpochs)),
      resolved_(owner.borderShards_.size()) {}

const StitchPlanner::BorderEntry& StitchPlanner::Session::entry(
    std::size_t idx, bool needFull) {
  if (resolved_[idx] && (resolved_[idx]->full || !needFull)) {
    return *resolved_[idx];
  }
  const auto [a, b] = owner_->borderShards_[idx];
  const std::uint64_t ea = epochs_[a];
  const std::uint64_t eb = epochs_[b];
  {
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    const auto& shared = owner_->entries_[idx];
    if (shared && shared->epochA == ea && shared->epochB == eb &&
        (shared->full || !needFull)) {
      bump(owner_->counters_.borderReuses);
      resolved_[idx] = shared;
      return *resolved_[idx];
    }
  }
  // Scan outside the lock — healthy() walks pinned fault views and the
  // planner must not serialize concurrent reader batches on it.
  auto fresh = owner_->scanBorder(idx, healthy_, ea, eb, needFull);
  bump(owner_->counters_.borderBuilds);
  {
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    auto& shared = owner_->entries_[idx];
    // Keep a richer same-epoch entry; otherwise last-writer-wins (a
    // concurrent session racing a mid-apply epoch sample publishes
    // guidance either way — serve-time validation owns correctness).
    if (!shared || shared->epochA != ea || shared->epochB != eb ||
        (fresh->full && !shared->full)) {
      shared = fresh;
    }
  }
  resolved_[idx] = std::move(fresh);
  return *resolved_[idx];
}

bool StitchPlanner::Session::adjacent(std::size_t a, std::size_t b) {
  const std::size_t idx = owner_->borderIndex(a, b);
  if (idx == owner_->borderShards_.size()) return false;
  return entry(idx, /*needFull=*/false).adjacent;
}

const std::vector<StitchPlanner::Waypoint>& StitchPlanner::Session::crossings(
    std::size_t k, std::size_t kn) {
  static const std::vector<Waypoint> kEmpty;
  const std::size_t idx = owner_->borderIndex(k, kn);
  if (idx == owner_->borderShards_.size()) return kEmpty;
  return entry(idx, /*needFull=*/true).crossings;
}

std::vector<std::size_t> StitchPlanner::Session::shardPath(
    std::size_t from, std::size_t to,
    const std::vector<std::pair<std::size_t, std::size_t>>* blockedBorders) {
  if (from == to) return {from};

  const bool cacheable = blockedBorders == nullptr;
  const auto key = std::make_pair(from, to);
  if (cacheable) {
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    if (owner_->pathEpochs_ == epochs_) {
      const auto it = owner_->pathCache_.find(key);
      if (it != owner_->pathCache_.end()) {
        bump(owner_->counters_.planCacheHits);
        return it->second;
      }
    }
  }

  // The flat graph's BFS verbatim (ascending neighbors = stable ties),
  // with adjacency answered by the supergraph instead of border lists.
  auto blocked = [&](std::size_t a, std::size_t b) {
    if (!blockedBorders) return false;
    for (const auto& [u, v] : *blockedBorders) {
      if ((u == a && v == b) || (u == b && v == a)) return true;
    }
    return false;
  };
  const std::size_t count = owner_->layout_->shardCount();
  std::vector<std::size_t> parent(count, count);
  std::queue<std::size_t> frontier;
  parent[from] = from;
  frontier.push(from);
  while (!frontier.empty()) {
    const std::size_t k = frontier.front();
    frontier.pop();
    if (k == to) break;
    for (std::size_t n : owner_->layout_->neighbors(k)) {
      if (parent[n] != count || blocked(k, n) || !adjacent(k, n)) continue;
      parent[n] = k;
      frontier.push(n);
    }
  }
  std::vector<std::size_t> path;
  if (parent[to] != count) {
    for (std::size_t k = to; k != from; k = parent[k]) path.push_back(k);
    path.push_back(from);
    std::reverse(path.begin(), path.end());
  }

  if (cacheable) {
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    if (owner_->pathEpochs_ != epochs_) {
      // Some border epoch moved since the cache was filled: every cached
      // path is suspect (a flipped border elsewhere can shorten a path
      // that never consulted it), so the whole cache goes.
      if (!owner_->pathCache_.empty()) {
        bump(owner_->counters_.planInvalidations);
        owner_->pathCache_.clear();
      }
      owner_->pathEpochs_ = epochs_;
    }
    owner_->pathCache_[key] = path;
    bump(owner_->counters_.planCacheMisses);
  }
  return path;
}

}  // namespace meshrt
