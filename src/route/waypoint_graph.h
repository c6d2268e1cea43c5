// Waypoint graphs: corner waypoints for the detour planner, and boundary
// waypoints for the sharded route-service fleet.
//
// WaypointGraph is an independent oracle for the detour planner. Vertices
// are the source, the destination and every MCC corner; edges join pairs
// with a clear monotone (Manhattan-distance) leg. Running Dijkstra over
// this graph computes the transitive closure of the paper's Eq. 2
// recursion — any multi-phase route of Manhattan legs between corners is
// representable — so its distance must equal the planner's (and the
// safe-BFS optimum) on every solvable instance. Used only by
// tests/baselines_test.cpp; quadratic in corner count, so not for the hot
// path.
//
// BoundaryWaypointGraph is the cross-shard planning seam of the service
// fleet (src/service/fleet.h): its vertices are the healthy border
// crossings between adjacent shards of a ShardLayout — pairs of
// 4-adjacent global cells owned by different shards — and its shard-level
// adjacency (symmetric by construction: a crossing connects both of its
// shards or neither) drives the BFS that turns a cross-shard query into a
// chain of per-shard segments stitched at crossing cells. See DESIGN.md
// section 11.2.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "fault/analysis.h"
#include "mesh/shard_layout.h"

namespace meshrt {

class WaypointGraph {
 public:
  explicit WaypointGraph(const QuadrantAnalysis& qa);

  /// Shortest distance from u to d (local frame) over corner-to-corner
  /// Manhattan legs; kUnreachable when no composition of legs connects
  /// them. Both endpoints must be safe.
  Distance distance(Point u, Point d) const;

 private:
  const QuadrantAnalysis* qa_;
  std::vector<Point> corners_;
};

/// The healthy border crossings of a sharded mesh, indexed per directed
/// border. Immutable once built; the fleet rebuilds it when any shard
/// publishes a new epoch (the graph only GUIDES planning — segment
/// endpoints are re-validated against each shard's pinned epoch at serve
/// time, so a stale graph costs retries, never correctness).
class BoundaryWaypointGraph {
 public:
  /// One healthy crossing: global cells (a, b), 4-adjacent, with a owned
  /// by shardA and b owned by shardB (shardA < shardB, canonical form).
  struct Waypoint {
    Point a;
    Point b;
    std::size_t shardA = 0;
    std::size_t shardB = 0;
  };

  /// Builds the graph over `layout`, keeping exactly the crossings whose
  /// BOTH cells satisfy `healthy` (the fleet passes its owner-epoch fault
  /// view). `healthy` is only consulted during construction.
  BoundaryWaypointGraph(const ShardLayout& layout,
                        const std::function<bool(Point)>& healthy);

  const ShardLayout& layout() const { return *layout_; }

  std::size_t size() const { return waypoints_.size(); }
  const Waypoint& waypoint(std::size_t i) const { return waypoints_[i]; }

  /// Indices of the healthy waypoints on the border between `from` and
  /// `to`, ordered along the border; empty when the shards do not share
  /// an edge or every crossing is blocked. Direction-independent (the
  /// same list for (from, to) and (to, from)).
  const std::vector<std::size_t>& border(std::size_t from,
                                         std::size_t to) const;

  /// The cell of waypoint i inside `shard` (its a or b side). `shard`
  /// must be one of the waypoint's two shards.
  Point cellIn(std::size_t i, std::size_t shard) const {
    const Waypoint& w = waypoints_[i];
    return shard == w.shardA ? w.a : w.b;
  }

  /// The cell of waypoint i on the OTHER side of `shard`.
  Point cellAcross(std::size_t i, std::size_t shard) const {
    const Waypoint& w = waypoints_[i];
    return shard == w.shardA ? w.b : w.a;
  }

  /// True when the shards share at least one healthy crossing. Symmetric.
  bool adjacent(std::size_t a, std::size_t b) const {
    return !border(a, b).empty();
  }

  /// Shortest shard sequence from `from` to `to` over the healthy-border
  /// adjacency (BFS, deterministic tie-break by ascending shard index),
  /// including both endpoints; {from} when from == to; empty when
  /// disconnected. `blockedBorders` lists additional borders to treat as
  /// down (canonical (min, max) shard pairs) — the fleet's retry path
  /// after a border's every waypoint failed segment validation.
  std::vector<std::size_t> shardPath(
      std::size_t from, std::size_t to,
      const std::vector<std::pair<std::size_t, std::size_t>>* blockedBorders =
          nullptr) const;

 private:
  const ShardLayout* layout_;
  std::vector<Waypoint> waypoints_;
  /// Per canonical border (minShard, maxShard), indices into waypoints_.
  /// Keyed by minShard * shardCount + maxShard in a sorted flat map.
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>> borders_;
};

}  // namespace meshrt
