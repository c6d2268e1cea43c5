// StitchPlanner: hierarchical cross-shard planning for the service fleet.
//
// PR-7's fleet rebuilt the whole BoundaryWaypointGraph per served batch —
// a full healthy() scan of every border crossing of the mesh, O(grid *
// meshSide) fault probes per batch even when every batch sees the same
// border state. At 1024x1024 grid 4x4 that is ~24k probes per batch for a
// structure that changes only when a fault event lands on a shard's owned
// border ring.
//
// The planner splits cross-shard planning into the two granularities it
// actually has:
//
//   1. The SHARD-ADJACENCY SUPERGRAPH: one bit per border ("do these two
//      shards share a healthy crossing?"). Resolving it needs only an
//      early-exit scan of one border's crossings, and the resulting
//      shard-level BFS is the same deterministic BFS
//      BoundaryWaypointGraph::shardPath runs (ascending-neighbor
//      tie-break), so planned shard sequences are identical to the flat
//      graph's.
//   2. FULL BORDER CROSSING LISTS, materialized lazily — only for the
//      borders a planned shard path actually crosses. Everything else
//      stays a single adjacency bit.
//
// Both levels cache across batches keyed by (border, borderEpoch pair):
// each shard carries a border epoch the fleet's event routing bumps
// whenever an event touches the shard's owned border ring, so an
// unchanged epoch pair proves the cached entry still describes the
// pinned fault views and costs zero probes. Shard paths cache too,
// keyed by (shard pair, full border-epoch vector): any border event
// anywhere invalidates the path cache (conservative, counted as
// fleet.plan_invalidations), because a flipped border elsewhere could
// shorten a path that never consulted it.
//
// The cache is GUIDANCE, exactly like the flat graph it replaces: every
// stitched segment is still validated against its shard's pinned epoch
// at serve time, so a stale entry (the bounded mid-apply sampling race —
// see fleet.cpp's border-epoch bumps) costs retries, never correctness.
// The flat BoundaryWaypointGraph is this planner's test oracle
// (tests/stitch_planner_test.cpp). See DESIGN.md section 14.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/telemetry.h"
#include "mesh/shard_layout.h"
#include "route/waypoint_graph.h"

namespace meshrt {

/// Kept only because openbench/src/main.cpp passes it; no code reads it.
enum class StitchPlanMode : std::uint8_t { Hierarchical };

/// Registry instruments the planner reports into (owned by the fleet;
/// null pointers are allowed and skip the count).
struct StitchPlannerCounters {
  std::shared_ptr<Counter> borderBuilds;      ///< border scans performed
  std::shared_ptr<Counter> borderReuses;      ///< epoch-keyed cache hits
  std::shared_ptr<Counter> planCacheHits;     ///< shard paths served cached
  std::shared_ptr<Counter> planCacheMisses;   ///< shard paths BFS-computed
  std::shared_ptr<Counter> planInvalidations; ///< path-cache clears
};

class StitchPlanner {
 public:
  using Waypoint = BoundaryWaypointGraph::Waypoint;

  StitchPlanner(const ShardLayout& layout, StitchPlanMode mode,
                StitchPlannerCounters counters);

  /// One resolved border: epoch-stamped adjacency, optionally upgraded
  /// with the full healthy crossing list. Immutable once published.
  struct BorderEntry {
    std::uint64_t epochA = 0;
    std::uint64_t epochB = 0;
    bool adjacent = false;
    /// crossings populated (adjacency-only entries leave it empty).
    bool full = false;
    std::vector<Waypoint> crossings;
  };

  /// One served batch's view of the planner: bound to the batch's healthy
  /// predicate (over the pinned per-shard fault views) and the border
  /// epochs sampled with those pins. Single-threaded, must not outlive
  /// the batch's pinned handles.
  class Session {
   public:
    /// Shortest shard sequence, identical to
    /// BoundaryWaypointGraph::shardPath on the same fault views (same
    /// BFS, same ascending-neighbor tie-break). `blockedBorders` bypasses
    /// the path cache (retry paths are per-query state).
    std::vector<std::size_t> shardPath(
        std::size_t from, std::size_t to,
        const std::vector<std::pair<std::size_t, std::size_t>>*
            blockedBorders = nullptr);

    /// Healthy crossings of the border between k and kn, ordered along
    /// the border (direction-independent, same content and order as the
    /// flat graph's border() list). Empty when not adjacent. The
    /// reference stays valid for the session's lifetime.
    const std::vector<Waypoint>& crossings(std::size_t k, std::size_t kn);

   private:
    friend class StitchPlanner;
    Session(StitchPlanner& owner, std::function<bool(Point)> healthy,
            std::vector<std::uint64_t> borderEpochs);

    /// Resolves border `idx` at this session's epochs, from the shared
    /// cache when the epochs match (upgrading adjacency-only entries to
    /// full on demand), scanning and publishing otherwise.
    const BorderEntry& entry(std::size_t idx, bool needFull);
    bool adjacent(std::size_t a, std::size_t b);

    StitchPlanner* owner_;
    std::function<bool(Point)> healthy_;
    std::vector<std::uint64_t> epochs_;
    /// Per-session resolved entries (one shared-cache lock per border per
    /// batch, not per query).
    std::vector<std::shared_ptr<const BorderEntry>> resolved_;
  };

  /// Opens a batch session. `healthy` must read the batch's pinned fault
  /// views; `borderEpochs[k]` is shard k's border epoch sampled under the
  /// same lock as the pin.
  Session session(std::function<bool(Point)> healthy,
                  std::vector<std::uint64_t> borderEpochs) {
    return Session(*this, std::move(healthy), std::move(borderEpochs));
  }

  std::size_t borderCount() const { return borderShards_.size(); }

 private:
  friend class Session;
  /// Canonical index of the (a, b) border; borderCount() when the shards
  /// are not grid-adjacent.
  std::size_t borderIndex(std::size_t a, std::size_t b) const;
  /// Scans the border's crossings against `healthy`: adjacency-only
  /// (early exit at the first healthy crossing) or the full list.
  std::shared_ptr<const BorderEntry> scanBorder(
      std::size_t idx, const std::function<bool(Point)>& healthy,
      std::uint64_t epochA, std::uint64_t epochB, bool full) const;

  const ShardLayout* layout_;
  StitchPlannerCounters counters_;
  /// Canonical borders, ascending (minShard * shardCount + maxShard).
  std::vector<std::size_t> borderKeys_;
  std::vector<std::pair<std::size_t, std::size_t>> borderShards_;

  mutable std::mutex mutex_;
  /// Shared epoch-keyed entries, indexed by canonical border
  /// (last-writer-wins on the bounded mid-apply race; entries only
  /// guide). Guarded by mutex_.
  std::vector<std::shared_ptr<const BorderEntry>> entries_;
  /// Path cache: valid only while pathEpochs_ matches a session's epoch
  /// vector exactly. Guarded by mutex_.
  std::vector<std::uint64_t> pathEpochs_;
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>>
      pathCache_;
};

}  // namespace meshrt
