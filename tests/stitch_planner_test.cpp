// Differential suite for hierarchical stitch planning
// (src/service/stitch_planner.h). The contract: the planner — epoch-cached
// border supergraph, lazy waypoint materialization, and the (shard pair,
// border-epoch vector) plan cache — answers every shard-path and
// crossing query exactly like a BoundaryWaypointGraph (the flat oracle)
// built fresh over the same fault view, across live churn, as long as
// border epochs move on exactly the events that touch an owned border
// ring (the fleet's rule). The planner counters prove the caches are
// doing work (reuse, hits) and that border-touching events — and only
// those — invalidate them.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fault/injectors.h"
#include "fleet_test_util.h"
#include "route/waypoint_graph.h"
#include "service/fleet.h"
#include "service/stitch_planner.h"

namespace meshrt {
namespace {

using fleettest::injectInterior;
using fleettest::pooledBatch;
using fleettest::validateAgainstPinnedEpochs;

/// fleet.cpp's touchesOwnedBorder rule: p lies on its owner's owned
/// border ring.
bool onOwnedRing(const ShardLayout& layout, Point p) {
  const Rect& r = layout.owned(layout.owner(p));
  return p.x == r.x0 || p.x == r.x1 || p.y == r.y0 || p.y == r.y1;
}

TEST(StitchPlanTest, HierarchicalVsFlatDifferential) {
  const Mesh2D mesh = Mesh2D::square(64);
  for (const std::size_t grid : {2u, 4u}) {
    SCOPED_TRACE("grid " + std::to_string(grid));
    const ShardLayout layout(mesh, grid, 2);
    const std::size_t shards = layout.shardCount();
    Rng rng(9001 + grid);
    FaultSet faults = injectUniform(mesh, 60, rng);
    StitchPlannerCounters counters{
        std::make_shared<Counter>(), std::make_shared<Counter>(),
        std::make_shared<Counter>(), std::make_shared<Counter>(),
        std::make_shared<Counter>()};
    StitchPlanner planner(layout, StitchPlanMode::Hierarchical, counters);
    std::vector<std::uint64_t> epochs(shards, 0);
    const auto healthy = [&](Point p) { return faults.isHealthy(p); };

    Rng trng(9002 + grid);
    for (std::size_t round = 0; round <= 24; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      if (round > 0) {
        // Alternate owned-ring and interior toggles; only ring events
        // bump the owner's border epoch.
        Point p;
        do {
          p = {static_cast<Coord>(trng.below(64)),
               static_cast<Coord>(trng.below(64))};
        } while (onOwnedRing(layout, p) != (round % 2 == 1));
        if (faults.isFaulty(p)) {
          faults.remove(p);
        } else {
          faults.add(p);
        }
        if (onOwnedRing(layout, p)) ++epochs[layout.owner(p)];
      }
      const BoundaryWaypointGraph flat(layout, healthy);
      StitchPlanner::Session session = planner.session(healthy, epochs);
      for (std::size_t from = 0; from < shards; ++from) {
        for (std::size_t to = 0; to < shards; ++to) {
          const std::vector<std::size_t> path = flat.shardPath(from, to);
          ASSERT_EQ(session.shardPath(from, to), path)
              << from << " -> " << to;
          if (path.size() < 2) continue;
          // Block the first border the oracle crosses (the fleet's
          // retry path; uncached by design).
          const std::vector<std::pair<std::size_t, std::size_t>> blocked{
              {std::min(path[0], path[1]), std::max(path[0], path[1])}};
          ASSERT_EQ(session.shardPath(from, to, &blocked),
                    flat.shardPath(from, to, &blocked))
              << from << " -> " << to << " blocked";
        }
        for (const std::size_t to : layout.neighbors(from)) {
          const std::vector<std::size_t>& expected = flat.border(from, to);
          const std::vector<StitchPlanner::Waypoint>& got =
              session.crossings(from, to);
          ASSERT_EQ(got.size(), expected.size()) << from << " | " << to;
          for (std::size_t i = 0; i < got.size(); ++i) {
            const BoundaryWaypointGraph::Waypoint& w =
                flat.waypoint(expected[i]);
            EXPECT_EQ(got[i].a, w.a);
            EXPECT_EQ(got[i].b, w.b);
            EXPECT_EQ(got[i].shardA, w.shardA);
            EXPECT_EQ(got[i].shardB, w.shardB);
          }
        }
      }
    }
    // Interior rounds keep every epoch, so the next fresh session answers
    // from the caches: those cached answers were compared too.
    EXPECT_GT(counters.borderReuses->value(), 0u);
    EXPECT_GT(counters.planCacheHits->value(), 0u);
    EXPECT_GT(counters.planInvalidations->value(), 0u);
  }
}

TEST(StitchPlanTest, PlanCacheInvalidationOnBorderFault) {
  const Mesh2D mesh = Mesh2D::square(64);
  const ShardLayout probe(mesh, 2, 2);
  Rng rng(9101);
  const FaultSet faults = injectInterior(probe, 40, 3, rng);
  ServiceFleet fleet(faults, fleettest::fleetConfig("rb2", 2));
  const std::vector<Query> batch = pooledBatch(mesh, 100, 8, 9102);
  fleet.serve(batch, /*wantPaths=*/true);
  const FleetCounters warm = fleet.counters();
  ASSERT_GT(warm.crossQueries, 0u);
  // Same epochs, same shard pairs: the second serve answers its shard
  // paths from the plan cache.
  fleet.serve(batch, /*wantPaths=*/true);
  const FleetCounters repeat = fleet.counters();
  EXPECT_GT(repeat.planCacheHits, warm.planCacheHits);
  EXPECT_EQ(repeat.planInvalidations, warm.planInvalidations);
  // A fault ON shard 0's owned border ring bumps its border epoch: the
  // next batch's epoch vector no longer matches, the plan cache clears,
  // and the crossed borders rescan under the new epoch pair.
  const Point borderCell{31, 16};
  ASSERT_TRUE(faults.isHealthy(borderCell));
  ASSERT_EQ(fleet.submitAddFault(borderCell), SubmitResult::Accepted);
  ASSERT_TRUE(fleet.drainWriters());
  const FleetBatchResult after = fleet.serve(batch, /*wantPaths=*/true);
  const FleetCounters invalidated = fleet.counters();
  EXPECT_GT(invalidated.planInvalidations, repeat.planInvalidations);
  EXPECT_GT(invalidated.borderBuilds, repeat.borderBuilds);
  // Rerouted results still hold every pinned-epoch invariant, and no
  // delivered path steps on the new fault.
  validateAgainstPinnedEpochs(fleet.layout(), batch, after);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!after.delivered(i)) continue;
    for (const Point c : after.paths[i]) EXPECT_NE(c, borderCell);
  }
}

TEST(StitchPlanTest, BorderEpochBumpsOnlyOnRingEvents) {
  const Mesh2D mesh = Mesh2D::square(64);
  const ShardLayout probe(mesh, 2, 2);
  Rng rng(9201);
  const FaultSet faults = injectInterior(probe, 40, 3, rng);
  ServiceFleet fleet(faults, fleettest::fleetConfig("rb2", 2));
  const std::vector<Query> batch = pooledBatch(mesh, 100, 8, 9202);
  fleet.serve(batch, /*wantPaths=*/true);
  const FleetCounters warm = fleet.counters();
  ASSERT_GT(warm.crossQueries, 0u);
  // A deep-interior event (margin clear of every owned ring and every
  // halo replica) advances snapshot epochs but not border epochs: the
  // border cache and the plan cache both stay valid.
  const Point interior{10, 10};
  ASSERT_TRUE(faults.isHealthy(interior));
  ASSERT_TRUE(fleettest::interiorCell(probe, interior, 3));
  ASSERT_EQ(fleet.submitAddFault(interior), SubmitResult::Accepted);
  ASSERT_TRUE(fleet.drainWriters());
  fleet.serve(batch, /*wantPaths=*/true);
  const FleetCounters after = fleet.counters();
  EXPECT_EQ(after.borderBuilds, warm.borderBuilds);
  EXPECT_GT(after.borderReuses, warm.borderReuses);
  EXPECT_GT(after.planCacheHits, warm.planCacheHits);
  EXPECT_EQ(after.planInvalidations, warm.planInvalidations);
}

}  // namespace
}  // namespace meshrt
