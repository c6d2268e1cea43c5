// Tests for the sharded route-service fleet (src/service/fleet.h).
//
// The key contracts:
//  - intra-shard queries match the single full-mesh RouteService
//    bit-for-bit on status/hops whenever the owning shard is
//    border-clear (always, in the interior-fault regime) and the
//    router's labels are local, and always produce globally valid
//    paths;
//  - cross-shard queries deliver stitched paths that are valid in the
//    global fault set, hop-accounted exactly (hops == path length - 1),
//    and segmented so consecutive segments join at a healthy border
//    crossing;
//  - the boundary waypoint graph holds its invariants: every waypoint
//    healthy on both sides, adjacency symmetric, shard paths adjacent
//    and blockable;
//  - admission control degrades (stale flag) or sheds (shed flag)
//    queries touching an overloaded shard while other shards keep
//    serving, and recovers after the writer drains;
//  - fleet serving is bitwise deterministic across thread counts.
//
// The representative-key differentials here stay under the tier-1 time
// budget; the full registry-key matrices and the multi-epoch churn
// stress live in tests/slow/ (ctest label `slow`).
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "fault/injectors.h"
#include "fleet_test_util.h"
#include "route/registry.h"
#include "route/validate.h"
#include "route/waypoint_graph.h"
#include "service/fleet.h"

namespace meshrt {
namespace {

using fleettest::expectFleetMatchesSingle;
using fleettest::expectServePathsAgree;
using fleettest::fleetConfig;
using fleettest::injectInterior;
using fleettest::pooledBatch;
using fleettest::randomBatch;
using fleettest::singleConfig;
using fleettest::toggleFault;

// ------------------------------------------------- differential oracle

TEST(FleetDifferential, InteriorFaultsMatchSingleServiceRepresentativeKeys) {
  const Mesh2D mesh = Mesh2D::square(32);
  const ShardLayout probe(mesh, 2, 2);
  Rng rng(101);
  const FaultSet faults = injectInterior(probe, 40, /*margin=*/3, rng);
  const auto batch = pooledBatch(mesh, 100, 10, 103);
  // One representative per label family: minimal-progress, the paper's
  // rb2, knowledge-driven rb3, oracle, and the non-local safety key
  // (valid-path assertions only). The full registry matrix runs in the
  // slow suite.
  for (const std::string key :
       {"ecube", "rb2", "rb3-full", "optimal", "safety"}) {
    SCOPED_TRACE(key);
    ServiceFleet fleet(faults, fleetConfig(key, 2));
    RouteService single(faults, singleConfig(key));
    expectFleetMatchesSingle(fleet, single, faults, batch,
                             /*allCertified=*/true);
  }
}

TEST(FleetDifferential, UnrestrictedFaultsCertifiedShardsBitForBit) {
  const Mesh2D mesh = Mesh2D::square(32);
  Rng rng(211);
  const FaultSet faults = injectUniform(mesh, 100, rng);  // ~10%
  const auto batch = pooledBatch(mesh, 120, 12, 223);
  ServiceFleet fleet(faults, fleetConfig("rb2", 2));
  RouteService single(faults, singleConfig("rb2"));
  expectFleetMatchesSingle(fleet, single, faults, batch,
                           /*allCertified=*/false);
}

// The fleet's two serve modes (lockstep status/hops and per-query
// paths) agree under churn, and match the epoch-0 TableizedRouter
// reference inside expectServePathsAgree.
TEST(FleetDifferential, ServeModesAgreeThroughTheFleet) {
  const Mesh2D mesh = Mesh2D::square(32);
  // 240 queries over 12 destinations: each shard's sub-batch chases
  // several multi-query destination groups in both serve modes.
  const auto batch = pooledBatch(mesh, 240, 12, 313);
  for (const std::string key : {"rb2", "ecube"}) {
    SCOPED_TRACE(key);
    Rng rng(311);
    FaultSet faults = injectUniform(mesh, 60, rng);
    ServiceFleet fleet(faults, fleetConfig(key, 2));
    Rng churn(317);
    std::size_t diverged = 0;
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE(round);
      diverged += expectServePathsAgree(fleet, faults, batch,
                                        /*reference=*/round == 0);
      for (int e = 0; e < 2; ++e) {
        toggleFault(fleet, faults,
                    {static_cast<Coord>(churn.below(32)),
                     static_cast<Coord>(churn.below(32))});
      }
    }
    // ecube's ring detours livelock on some intra-shard pairs, so the
    // Diverged lanes really were compared.
    if (key == "ecube") {
      EXPECT_GT(diverged, 0u);
    }
  }
}

TEST(FleetDifferential, SingleShardFleetIsBitForBitForAllQueries) {
  const Mesh2D mesh = Mesh2D::square(32);
  Rng rng(401);
  const FaultSet faults = injectUniform(mesh, 80, rng);
  const auto batch = pooledBatch(mesh, 150, 12, 403);
  ServiceFleet fleet(faults, fleetConfig("rb2", 1));
  RouteService single(faults, singleConfig("rb2"));
  const FleetBatchResult fr = fleet.serve(batch, /*wantPaths=*/true);
  const BatchResult sr = single.serve(batch, /*wantPaths=*/true);
  ASSERT_EQ(fr.status, sr.status);
  EXPECT_EQ(fr.hops, sr.hops);
  EXPECT_EQ(fr.paths, sr.paths);
}

TEST(FleetDifferential, DeterministicAcrossThreadCounts) {
  const Mesh2D mesh = Mesh2D::square(32);
  Rng rng(501);
  const FaultSet faults = injectUniform(mesh, 80, rng);
  const auto batch = pooledBatch(mesh, 150, 12, 503);
  std::vector<FleetBatchResult> results;
  for (const std::size_t threads : {1u, 4u}) {
    FleetConfig cfg = fleetConfig("rb2", 2);
    cfg.service.threads = threads;
    ServiceFleet fleet(faults, cfg);
    results.push_back(fleet.serve(batch, /*wantPaths=*/true));
  }
  ASSERT_EQ(results[0].status, results[1].status);
  EXPECT_EQ(results[0].hops, results[1].hops);
  EXPECT_EQ(results[0].paths, results[1].paths);
}

// ------------------------------------------------- waypoint properties

TEST(FleetWaypointProperty, GraphInvariantsHoldUnderRandomFaults) {
  const Mesh2D mesh = Mesh2D::square(48);
  const ShardLayout layout(mesh, 3, 2);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed * 131);
    const FaultSet faults = injectUniform(mesh, 250, rng);
    const BoundaryWaypointGraph graph(
        layout, [&](Point p) { return faults.isHealthy(p); });
    for (std::size_t i = 0; i < graph.size(); ++i) {
      const auto& w = graph.waypoint(i);
      EXPECT_TRUE(faults.isHealthy(w.a));
      EXPECT_TRUE(faults.isHealthy(w.b));
      EXPECT_EQ(manhattan(w.a, w.b), 1);
      EXPECT_EQ(layout.owner(w.a), w.shardA);
      EXPECT_EQ(layout.owner(w.b), w.shardB);
      EXPECT_LT(w.shardA, w.shardB);
    }
    for (std::size_t a = 0; a < layout.shardCount(); ++a) {
      for (std::size_t b = 0; b < layout.shardCount(); ++b) {
        EXPECT_EQ(graph.adjacent(a, b), graph.adjacent(b, a));
        EXPECT_EQ(graph.border(a, b), graph.border(b, a));
        const auto& neigh = layout.neighbors(a);
        const bool gridAdjacent =
            std::find(neigh.begin(), neigh.end(), b) != neigh.end();
        if (!gridAdjacent) {
          EXPECT_TRUE(graph.border(a, b).empty());
        }
      }
    }
    // Shard paths step only across adjacent borders, and honor blocks.
    const std::vector<std::size_t> plan = graph.shardPath(0, 8);
    ASSERT_FALSE(plan.empty());
    EXPECT_EQ(plan.front(), 0u);
    EXPECT_EQ(plan.back(), 8u);
    for (std::size_t i = 0; i + 1 < plan.size(); ++i) {
      EXPECT_TRUE(graph.adjacent(plan[i], plan[i + 1]));
    }
    EXPECT_EQ(graph.shardPath(4, 4), std::vector<std::size_t>{4});
    const std::vector<std::pair<std::size_t, std::size_t>> blocked{
        {0, 1}, {0, 3}};
    EXPECT_TRUE(graph.shardPath(0, 8, &blocked).empty());
  }
}

TEST(FleetWaypointProperty, StitchSegmentsJoinAtHealthyCrossings) {
  const Mesh2D mesh = Mesh2D::square(40);
  Rng rng(601);
  const FaultSet faults = injectUniform(mesh, 120, rng);
  ServiceFleet fleet(faults, fleetConfig("rb2", 2));
  const ShardLayout& layout = fleet.layout();
  const auto batch = pooledBatch(mesh, 160, 12, 607);
  const FleetBatchResult r = fleet.serve(batch, /*wantPaths=*/true);
  std::size_t stitchedSeen = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!r.delivered(i)) continue;
    const auto& segs = r.segments[i];
    const auto& path = r.paths[i];
    ASSERT_FALSE(segs.empty());
    EXPECT_EQ(segs.front().begin, 0u);
    if (segs.size() < 2) continue;
    ++stitchedSeen;
    for (std::size_t j = 1; j < segs.size(); ++j) {
      ASSERT_GT(segs[j].begin, segs[j - 1].begin);
      ASSERT_LT(segs[j].begin, path.size());
      // Junction: the crossing's two cells are 4-adjacent, healthy, and
      // owned by the two shards the segments ran in.
      const Point exit = path[segs[j].begin - 1];
      const Point entry = path[segs[j].begin];
      EXPECT_EQ(manhattan(exit, entry), 1);
      EXPECT_TRUE(faults.isHealthy(exit));
      EXPECT_TRUE(faults.isHealthy(entry));
      EXPECT_EQ(layout.owner(exit), segs[j - 1].shard);
      EXPECT_EQ(layout.owner(entry), segs[j].shard);
    }
    // Every segment stays inside its serving shard's local rectangle.
    for (std::size_t j = 0; j < segs.size(); ++j) {
      const std::size_t end =
          j + 1 < segs.size() ? segs[j + 1].begin : path.size();
      for (std::size_t p = segs[j].begin; p < end; ++p) {
        EXPECT_TRUE(layout.local(segs[j].shard).contains(path[p]));
      }
    }
  }
  EXPECT_GT(stitchedSeen, 0u);
}

// ------------------------------------------------- admission control

/// Mirrors the Gate pattern from thread_pool_test: appliers park on
/// waitUntilOpen until the test opens the gate.
class Gate {
 public:
  void open() {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void waitUntilOpen() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// A fleet whose shard-0 applier is parked on a gate with a backlog
/// deeper than maxWriterQueue, plus per-shard probe queries.
struct BackpressureRig {
  explicit BackpressureRig(OverloadPolicy policy)
      : mesh(Mesh2D::square(32)) {
    FleetConfig cfg = fleetConfig("rb2", 2);
    cfg.halo = 1;
    cfg.maxWriterQueue = 2;
    cfg.overload = policy;
    cfg.applyHook = [this](std::size_t shard) {
      if (shard == 0) gate.waitUntilOpen();
    };
    fleet = std::make_unique<ServiceFleet>(FaultSet(mesh), cfg);
    // Shard 0 owns [0,15]^2; cells near (4,4) are covered by shard 0
    // only, so the storm lands on exactly one writer queue.
    for (Coord x = 2; x < 8; ++x) fleet->submitAddFault({x, 4});
  }
  ~BackpressureRig() {
    gate.open();
    fleet->drainWriters();
  }

  Mesh2D mesh;
  Gate gate;
  std::unique_ptr<ServiceFleet> fleet;
  // Probes: intra shard 0, intra shard 3, cross 0<->3.
  const std::vector<Query> probes{{{2, 2}, {12, 12}},
                                  {{20, 20}, {30, 28}},
                                  {{2, 2}, {30, 28}}};
};

TEST(FleetBackpressure, DegradeServesStaleFlaggedWhileOthersClean) {
  BackpressureRig rig(OverloadPolicy::Degrade);
  ASSERT_TRUE(rig.fleet->overloaded(0));
  ASSERT_FALSE(rig.fleet->overloaded(3));
  const FleetBatchResult r = rig.fleet->serve(rig.probes, true);
  // Shard-0 query: served (stale epoch 0) and flagged.
  EXPECT_EQ(r.status[0], ServeStatus::Delivered);
  EXPECT_EQ(r.flags[0], kFleetFlagStale);
  EXPECT_EQ(r.shardEpochs[0], 0u);
  // Shard-3 query: clean.
  EXPECT_EQ(r.status[1], ServeStatus::Delivered);
  EXPECT_EQ(r.flags[1], 0u);
  // Cross query touching shard 0: served, flagged.
  EXPECT_EQ(r.status[2], ServeStatus::Delivered);
  EXPECT_EQ(r.flags[2], kFleetFlagStale);
  EXPECT_GE(rig.fleet->counters().degradedQueries, 2u);
}

TEST(FleetBackpressure, ShedRefusesQueriesTouchingOverloadedShard) {
  BackpressureRig rig(OverloadPolicy::Shed);
  ASSERT_TRUE(rig.fleet->overloaded(0));
  const FleetBatchResult r = rig.fleet->serve(rig.probes, true);
  EXPECT_EQ(r.status[0], ServeStatus::NoRoute);
  EXPECT_EQ(r.flags[0], kFleetFlagShed);
  EXPECT_EQ(r.status[1], ServeStatus::Delivered);
  EXPECT_EQ(r.flags[1], 0u);
  EXPECT_EQ(r.status[2], ServeStatus::NoRoute);
  EXPECT_EQ(r.flags[2], kFleetFlagShed);
  EXPECT_EQ(rig.fleet->counters().shedQueries, 2u);
}

TEST(FleetBackpressure, RecoversOnceTheWriterDrains) {
  BackpressureRig rig(OverloadPolicy::Shed);
  ASSERT_TRUE(rig.fleet->overloaded(0));
  rig.gate.open();
  rig.fleet->drainWriters();
  EXPECT_FALSE(rig.fleet->overloaded(0));
  EXPECT_EQ(rig.fleet->writerQueueDepth(0), 0u);
  const FleetBatchResult r = rig.fleet->serve(rig.probes, true);
  EXPECT_EQ(r.flags[0], 0u);
  EXPECT_EQ(r.status[0], ServeStatus::Delivered);
  // The storm published one epoch per event on shard 0 only.
  EXPECT_EQ(r.shardEpochs[0], 6u);
  EXPECT_EQ(r.shardEpochs[3], 0u);
  // The served path detours the applied faults.
  EXPECT_TRUE(r.delivered(0));
  for (const Point p : r.paths[0]) {
    EXPECT_FALSE(rig.fleet->shard(0).snapshot()->faults().isFaulty(
        rig.fleet->layout().toLocal(0, p)));
  }
}

TEST(FleetBackpressure, MaxWriterQueueZeroDisablesAdmissionControl) {
  // A deep backlog with maxWriterQueue == 0: never overloaded, never
  // flagged — admission control is opt-in.
  const Mesh2D mesh = Mesh2D::square(32);
  Gate gate;
  FleetConfig cfg = fleetConfig("rb2", 2);
  cfg.halo = 1;
  cfg.maxWriterQueue = 0;
  cfg.applyHook = [&gate](std::size_t shard) {
    if (shard == 0) gate.waitUntilOpen();
  };
  ServiceFleet fleet(FaultSet(mesh), cfg);
  for (Coord x = 2; x < 8; ++x) fleet.submitAddFault({x, 4});
  EXPECT_GE(fleet.writerQueueDepth(0), 5u);
  EXPECT_FALSE(fleet.overloaded(0));
  const FleetBatchResult r = fleet.serve({{{2, 2}, {12, 12}}}, false);
  EXPECT_EQ(r.status[0], ServeStatus::Delivered);
  EXPECT_EQ(r.flags[0], 0u);
  gate.open();
  fleet.drainWriters();
}

TEST(FleetBackpressure, OverloadTripsStrictlyAboveMaxWriterQueue) {
  // The threshold is exclusive: backlog == maxWriterQueue serves clean,
  // backlog == maxWriterQueue + 1 degrades. maxWriterQueue = 1 is the
  // tightest admissible setting.
  const Mesh2D mesh = Mesh2D::square(32);
  Gate gate;
  FleetConfig cfg = fleetConfig("rb2", 2);
  cfg.halo = 1;
  cfg.maxWriterQueue = 1;
  cfg.applyHook = [&gate](std::size_t shard) {
    if (shard == 0) gate.waitUntilOpen();
  };
  ServiceFleet fleet(FaultSet(mesh), cfg);
  const std::vector<Query> probe{{{2, 2}, {12, 12}}};
  // Backlog 1 (the in-flight or queued event): at the threshold, clean.
  fleet.submitAddFault({2, 4});
  EXPECT_EQ(fleet.writerQueueDepth(0), 1u);
  EXPECT_FALSE(fleet.overloaded(0));
  EXPECT_EQ(fleet.serve(probe, false).flags[0], 0u);
  // Backlog 2: strictly above, degraded.
  fleet.submitAddFault({3, 4});
  EXPECT_EQ(fleet.writerQueueDepth(0), 2u);
  EXPECT_TRUE(fleet.overloaded(0));
  EXPECT_EQ(fleet.serve(probe, false).flags[0], kFleetFlagStale);
  gate.open();
  fleet.drainWriters();
  EXPECT_FALSE(fleet.overloaded(0));
}

TEST(FleetBackpressure, OverloadPolicyNamesRoundTrip) {
  for (const OverloadPolicy policy :
       {OverloadPolicy::Degrade, OverloadPolicy::Shed}) {
    OverloadPolicy parsed = OverloadPolicy::Degrade;
    EXPECT_TRUE(
        parseOverloadPolicy(overloadPolicyName(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  OverloadPolicy untouched = OverloadPolicy::Shed;
  EXPECT_FALSE(parseOverloadPolicy("bogus", &untouched));
  EXPECT_FALSE(parseOverloadPolicy("", &untouched));
  EXPECT_EQ(untouched, OverloadPolicy::Shed);
}

// ------------------------------------------------- event routing

TEST(FleetTest, EventsRouteToOwnerAndHaloNeighbors) {
  const Mesh2D mesh = Mesh2D::square(32);
  FleetConfig cfg = fleetConfig("rb2", 2);
  cfg.halo = 2;
  ServiceFleet fleet(FaultSet(mesh), cfg);
  // Interior of shard 0: only shard 0's epoch moves.
  ASSERT_EQ(fleet.submitAddFault({4, 4}), SubmitResult::Accepted);
  // On the border column owned by shard 0 (x=15), far from the y cut:
  // replicates into shard 1's halo only, so covering = {0, 1}.
  ASSERT_EQ(fleet.submitAddFault({15, 4}), SubmitResult::Accepted);
  ASSERT_TRUE(fleet.drainWriters());
  const FleetBatchResult r = fleet.serve({{{2, 2}, {3, 3}}}, false);
  EXPECT_EQ(r.shardEpochs[0], 2u);
  EXPECT_EQ(r.shardEpochs[1], 1u);
  EXPECT_EQ(r.shardEpochs[2], 0u);
  EXPECT_EQ(r.shardEpochs[3], 0u);
  // The replica landed at the right local cell in shard 1.
  EXPECT_TRUE(fleet.shard(1).snapshot()->faults().isFaulty(
      fleet.layout().toLocal(1, {15, 4})));
  // Removal routes to the same covering shards.
  ASSERT_EQ(fleet.submitRemoveFault({15, 4}), SubmitResult::Accepted);
  ASSERT_TRUE(fleet.drainWriters());
  EXPECT_FALSE(fleet.shard(1).snapshot()->faults().isFaulty(
      fleet.layout().toLocal(1, {15, 4})));
  EXPECT_EQ(fleet.shard(0).epoch(), 3u);
}

}  // namespace
}  // namespace meshrt
