// Slow fleet-scale suite (ctest label `slow`): the 1024x1024 grid-4
// end-to-end run the PR-10 scaling work exists for. One wave structure,
// two fleets over the same faults and the same churn (each event
// submitted and drained before the next wave):
//
//  - a tight per-shard column budget (evictions guaranteed at this
//    scale), vs
//  - an unbounded column cache.
//
// Every wave must serve bit-identically — status, hops, full stitched
// paths — which certifies that eviction is invisible to results at
// scale. (The planner's own oracle, the flat BoundaryWaypointGraph, is
// checked in tests/stitch_planner_test.cpp.) Counters then prove the
// scale machinery actually engaged (evictions, plan-cache hits, border
// reuse), and per-shard footprints stay at or under budget at
// quiescence.
//
// Router choice: `ecube`, the bench's own at-scale default. A column
// compile routes once per healthy source, so its cost is the router's
// per-route cost times 67.6k local nodes — ~0.15 s for ecube and well
// over 10 s for the fault-tolerant rb2 keys, which would put ONE cross
// query (many waypoint columns) into minutes. The rb2 differential
// coverage lives in the fast 64x64 suites; this test is about the
// scale machinery, which is router-independent.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/injectors.h"
#include "fleet_test_util.h"
#include "service/fleet.h"

namespace meshrt {
namespace {

using fleettest::injectInterior;
using fleettest::pooledBatch;
using fleettest::validateAgainstPinnedEpochs;

// Packed column at grid 4 on 1024 (local 260x260 = 67600 nodes) is
// ~34 KB, so the budget holds ~7 columns per shard. Each wave draws a
// fresh destination pool, and cross queries materialize waypoint exit
// columns on every transit shard, so the busy central shards accumulate
// well past the budget across waves: the CLOCK sweep must evict the
// cold previous-wave columns. Ecube recompiles are ~0.15 s, so even a
// budget-induced recompile costs seconds, not minutes.
constexpr std::size_t kShardBudget = 256 * 1024;

TEST(FleetScale, Grid4ChurnAt1024UnderBudget) {
  const Mesh2D mesh = Mesh2D::square(1024);
  const ShardLayout probe(mesh, 4, 2);
  Rng rng(11001);
  const FaultSet faults = injectInterior(probe, 600, /*margin=*/3, rng);

  FleetConfig budgeted = fleettest::fleetConfig("ecube", 4);
  budgeted.service.columnBudgetBytes = kShardBudget;
  ServiceFleet bounded(faults, budgeted);
  ServiceFleet unbounded(faults, fleettest::fleetConfig("ecube", 4));

  std::vector<Point> toggles;
  Rng trng(11002);
  while (toggles.size() < 4) {
    const Point p{static_cast<Coord>(trng.below(1024)),
                  static_cast<Coord>(trng.below(1024))};
    if (faults.isHealthy(p) && fleettest::interiorCell(probe, p, 3)) {
      toggles.push_back(p);
    }
  }
  bool added = false;
  for (std::size_t wave = 0; wave < 4; ++wave) {
    SCOPED_TRACE("wave " + std::to_string(wave));
    // Small destination pool, wide sources: long shard paths for
    // plan-cache traffic. The pool is reseeded per wave, so each wave
    // compiles fresh columns and ages the previous wave's cold.
    const std::vector<Query> batch = pooledBatch(mesh, 32, 6, 11003 + wave);
    const FleetBatchResult br = bounded.serve(batch, /*wantPaths=*/true);
    const FleetBatchResult ur = unbounded.serve(batch, /*wantPaths=*/true);
    ASSERT_EQ(br.size(), ur.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i) + " " + batch[i].s.str() +
                   "->" + batch[i].d.str());
      EXPECT_EQ(br.status[i], ur.status[i]);
      EXPECT_EQ(br.hops[i], ur.hops[i]);
      EXPECT_EQ(br.paths[i], ur.paths[i]);
    }
    validateAgainstPinnedEpochs(bounded.layout(), batch, br);
    const Point p = toggles[wave % toggles.size()];
    for (ServiceFleet* fleet : {&bounded, &unbounded}) {
      ASSERT_EQ(added ? fleet->submitRemoveFault(p) : fleet->submitAddFault(p),
                SubmitResult::Accepted);
      ASSERT_TRUE(fleet->drainWriters());
    }
    added = !added;
  }

  const FleetCounters bc = bounded.counters();
  EXPECT_GT(bc.crossQueries, 0u);
  EXPECT_GT(bc.planCacheHits, 0u);
  EXPECT_GT(bc.borderReuses, 0u);
  std::uint64_t evicted = 0;
  for (std::size_t k = 0; k < 16; ++k) {
    evicted += bounded.shard(k).counters().columnsEvicted;
    EXPECT_LE(bounded.shard(k).columnFootprint().bytes, kShardBudget)
        << "shard " << k;
  }
  EXPECT_GT(evicted, 0u);
}

}  // namespace
}  // namespace meshrt
