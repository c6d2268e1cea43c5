// Slow fleet suites (ctest label `slow`; the Debug CI matrix skips them
// with -LE slow, Release runs everything):
//
//  - FleetSlowDifferential: the full differential matrix the fast suite
//    samples — EVERY registry key fleet-vs-single at 64x64, every key's
//    serve paths (lockstep, path and one-query serves) agreeing under
//    churn and matching the dense TableizedRouter reference at epoch 0,
//    and a 128x128 unrestricted-fault run with per-shard border-clear
//    certification.
//  - FleetChurn: concurrent per-shard writers (submit* queues) against
//    concurrent fleet readers; every served path is re-validated against
//    the pinned epoch of every shard it crosses using the stitch-segment
//    records, and the final drained state is checked against a
//    reconstructed global fault set. This suite is the TSan/ASan target
//    for the fleet.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fault/injectors.h"
#include "fleet_test_util.h"
#include "route/registry.h"
#include "route/validate.h"
#include "service/fleet.h"

namespace meshrt {
namespace {

using fleettest::expectFleetMatchesSingle;
using fleettest::expectServePathsAgree;
using fleettest::fleetConfig;
using fleettest::injectInterior;
using fleettest::pooledBatch;
using fleettest::singleConfig;
using fleettest::toggleFault;

// ------------------------------------------------------- full key matrix

TEST(FleetSlowDifferential, EveryRegistryKeyMatchesSingleService) {
  const Mesh2D mesh = Mesh2D::square(64);
  const ShardLayout probe(mesh, 2, 2);
  Rng rng(101);
  const FaultSet faults = injectInterior(probe, 140, /*margin=*/3, rng);
  const auto batch = pooledBatch(mesh, 120, 12, 103);
  for (const auto& key : RouterRegistry::global().keys()) {
    SCOPED_TRACE(key);
    ServiceFleet fleet(faults, fleetConfig(key, 2));
    RouteService single(faults, singleConfig(key));
    expectFleetMatchesSingle(fleet, single, faults, batch,
                             /*allCertified=*/true);
  }
}

// FleetDifferential.ServeModesAgreeThroughTheFleet, run for every key.
TEST(FleetSlowDifferential, EveryKeyServesBothModesIdentically) {
  const Mesh2D mesh = Mesh2D::square(48);
  // 240 queries over 10 destinations: each shard's sub-batch chases
  // several multi-query destination groups in both serve modes.
  const auto batch = pooledBatch(mesh, 240, 10, 313);
  for (const auto& key : RouterRegistry::global().keys()) {
    SCOPED_TRACE(key);
    Rng rng(311);
    FaultSet faults = injectUniform(mesh, 140, rng);
    ServiceFleet fleet(faults, fleetConfig(key, 2));
    Rng churn(317);
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(round);
      expectServePathsAgree(fleet, faults, batch, /*reference=*/round == 0);
      for (int e = 0; e < 2; ++e) {
        toggleFault(fleet, faults,
                    {static_cast<Coord>(churn.below(48)),
                     static_cast<Coord>(churn.below(48))});
      }
    }
  }
}

TEST(FleetSlowDifferential, LargeMeshUnrestrictedFaults) {
  // ecube at 128x128: rb2's per-destination column compile grows
  // superlinearly with mesh side (~0.6s/column at 64x64, ~21s at
  // 128x128 on one core), so the label-family keys cover 64x64 in
  // EveryRegistryKeyMatchesSingleService and the large-mesh run uses
  // the cheap minimal-progress key.
  const Mesh2D mesh = Mesh2D::square(128);
  Rng rng(211);
  const FaultSet faults = injectUniform(mesh, 1600, rng);  // ~10%
  const auto batch = pooledBatch(mesh, 150, 12, 223);
  ServiceFleet fleet(faults, fleetConfig("ecube", 2));
  RouteService single(faults, singleConfig("ecube"));
  expectFleetMatchesSingle(fleet, single, faults, batch,
                           /*allCertified=*/false);
}

// --------------------------------------------------------- churn stress

using fleettest::validateAgainstPinnedEpochs;

TEST(FleetChurn, ConcurrentWritersAndReadersStayEpochConsistent) {
  const Mesh2D mesh = Mesh2D::square(64);
  Rng rng(701);
  const FaultSet initial = injectUniform(mesh, 150, rng);
  FleetConfig cfg = fleetConfig("rb2", 2);
  ServiceFleet fleet(initial, cfg);
  const ShardLayout& layout = fleet.layout();

  // Per-shard toggle candidates: initially-healthy cells of the shard's
  // OWNED rectangle (owned rects are disjoint, so writers never race on
  // a cell and add/remove sequences are well-formed per cell).
  const std::size_t kToggles = 50;
  std::vector<std::vector<Point>> candidates(layout.shardCount());
  for (std::size_t k = 0; k < layout.shardCount(); ++k) {
    const Rect& o = layout.owned(k);
    Rng crng(900 + k);
    while (candidates[k].size() < kToggles) {
      const Point p{
          static_cast<Coord>(o.x0 + static_cast<Coord>(crng.below(
                                        static_cast<std::uint64_t>(
                                            o.width())))),
          static_cast<Coord>(o.y0 + static_cast<Coord>(crng.below(
                                        static_cast<std::uint64_t>(
                                            o.height()))))};
      if (initial.isFaulty(p)) continue;
      candidates[k].push_back(p);
    }
  }

  std::atomic<std::uint64_t> expectedApplications{0};
  std::vector<std::thread> writers;
  for (std::size_t k = 0; k < layout.shardCount(); ++k) {
    writers.emplace_back([&, k] {
      Rng wrng(1000 + k);
      std::vector<bool> added(candidates[k].size(), false);
      for (std::size_t t = 0; t < kToggles; ++t) {
        const std::size_t c = wrng.below(candidates[k].size());
        const Point p = candidates[k][c];
        if (added[c]) {
          fleet.submitRemoveFault(p);
        } else {
          fleet.submitAddFault(p);
        }
        added[c] = !added[c];
        expectedApplications.fetch_add(layout.covering(p).size(),
                                       std::memory_order_relaxed);
        if (t % 8 == 0) std::this_thread::yield();
      }
    });
  }

  const std::size_t kReaders = 4;
  std::vector<std::thread> readers;
  for (std::size_t rix = 0; rix < kReaders; ++rix) {
    readers.emplace_back([&, rix] {
      for (std::size_t b = 0; b < 6; ++b) {
        const auto batch =
            pooledBatch(mesh, 60, 8, 5000 + rix * 64 + b);
        const FleetBatchResult r = fleet.serve(batch, /*wantPaths=*/true);
        validateAgainstPinnedEpochs(layout, batch, r);
      }
    });
  }

  for (auto& w : writers) w.join();
  for (auto& r : readers) r.join();
  fleet.drainWriters();
  EXPECT_EQ(fleet.counters().eventsApplied,
            expectedApplications.load(std::memory_order_relaxed));
  for (std::size_t k = 0; k < layout.shardCount(); ++k) {
    EXPECT_EQ(fleet.writerQueueDepth(k), 0u);
  }

  // Drained steady state: replay every writer's toggle sequence to
  // reconstruct the true global fault set, then check a fresh serve's
  // paths against IT — the queues converged to the submitted history.
  FaultSet finalFaults = initial;
  for (std::size_t k = 0; k < layout.shardCount(); ++k) {
    Rng wrng(1000 + k);
    std::vector<bool> added(candidates[k].size(), false);
    for (std::size_t t = 0; t < kToggles; ++t) {
      const std::size_t c = wrng.below(candidates[k].size());
      added[c] = !added[c];
    }
    for (std::size_t c = 0; c < candidates[k].size(); ++c) {
      if (added[c]) finalFaults.add(candidates[k][c]);
    }
  }
  const auto batch = pooledBatch(mesh, 100, 10, 9001);
  const FleetBatchResult r = fleet.serve(batch, /*wantPaths=*/true);
  validateAgainstPinnedEpochs(layout, batch, r);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    if (!r.delivered(i)) continue;
    EXPECT_TRUE(
        isValidPath(finalFaults, batch[i].s, batch[i].d, r.paths[i]));
  }
}

TEST(FleetChurn, SubmittedHaloEventsUnderReaderLoadServePinnedEpochs) {
  // One writer submitting uniform cells (some replicate into halos, so
  // one event lands on several shards) racing readers: snapshots are
  // immutable, so concurrently pinned batches stay internally
  // consistent at whatever epoch vector they caught.
  const Mesh2D mesh = Mesh2D::square(48);
  Rng rng(801);
  const FaultSet initial = injectUniform(mesh, 80, rng);
  ServiceFleet fleet(initial, fleetConfig("rb2", 2));
  const ShardLayout& layout = fleet.layout();

  std::vector<Point> cells;
  Rng crng(811);
  while (cells.size() < 60) {
    const Point p{static_cast<Coord>(crng.below(48)),
                  static_cast<Coord>(crng.below(48))};
    if (initial.isFaulty(p)) continue;
    cells.push_back(p);
  }
  std::thread writer([&] {
    for (const Point p : cells) {
      EXPECT_EQ(fleet.submitAddFault(p), SubmitResult::Accepted);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (std::size_t rix = 0; rix < 3; ++rix) {
    readers.emplace_back([&, rix] {
      for (std::size_t b = 0; b < 5; ++b) {
        const auto batch = pooledBatch(mesh, 50, 8, 7000 + rix * 32 + b);
        const FleetBatchResult r = fleet.serve(batch, /*wantPaths=*/true);
        validateAgainstPinnedEpochs(layout, batch, r);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  // Every submitted event applies on each shard that covers its cell.
  ASSERT_TRUE(fleet.drainWriters());
  std::uint64_t replicas = 0;
  for (const Point p : cells) {
    for (const std::size_t k : layout.covering(p)) {
      ++replicas;
      EXPECT_TRUE(fleet.shardAppliedFaults(k).isFaulty(layout.toLocal(k, p)));
    }
  }
  EXPECT_GT(replicas, cells.size());  // some events reached a halo too
  EXPECT_EQ(fleet.counters().eventsApplied, replicas);
}

}  // namespace
}  // namespace meshrt
