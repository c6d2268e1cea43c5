// Randomized chaos harness for the self-healing fleet (ctest label
// `slow`; the TSan/ASan CI jobs run it under `FleetChaos*`).
//
// The central claim of DESIGN.md section 13: a fleet that crashed,
// stalled, quarantined and rebuilt its way through a workload is — at
// quiescence — bit-for-bit the fleet that never failed. The harness
// drives per-shard writer threads through the bounded-queue retry
// channel while appliers crash (fleet.applier.throw) and stall
// (fleet.applier.stall) under the supervisor's watchdog, with reader
// threads validating every served batch against its pinned epochs the
// whole time. Then it disarms, drains, replays the ACCEPTED event
// sequences into a control fleet that never saw chaos, and compares
// authoritative fault state and served results exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "fault/injectors.h"
#include "fleet_test_util.h"
#include "route/validate.h"
#include "service/fleet.h"

namespace meshrt {
namespace {

using fleettest::fleetConfig;
using fleettest::interiorCell;
using fleettest::pooledBatch;
using fleettest::validateAgainstPinnedEpochs;

FleetConfig chaosConfig() {
  FleetConfig cfg = fleetConfig("rb2", 2);
  cfg.supervisorPollMs = 5;
  cfg.stallTimeoutMs = 50;  // abandon injected stalls at 100ms
  cfg.queueCapacity = 4;    // exercise rejection + retry under backlog
  return cfg;
}

TEST(FleetChaos, QuiescentStateMatchesNeverFailedControlBitForBit) {
  FailpointArmScope scope;
  const Mesh2D mesh = Mesh2D::square(48);
  Rng rng(7001);
  const ShardLayout probe(mesh, 2, 2);
  const FaultSet initial = fleettest::injectInterior(probe, 60, 3, rng);

  ServiceFleet fleet(initial, chaosConfig());
  const ShardLayout& layout = fleet.layout();

  // Toggle candidates: initially-healthy interior cells of each shard's
  // owned rect. margin 3 > halo 2, so covering == {owner}: each event
  // lands on exactly one shard and the per-shard accepted sequence is a
  // total order the control replay can reproduce.
  const std::size_t kToggles = 60;
  std::vector<std::vector<Point>> candidates(layout.shardCount());
  for (std::size_t k = 0; k < layout.shardCount(); ++k) {
    const Rect& o = layout.owned(k);
    Rng crng(7100 + k);
    while (candidates[k].size() < kToggles) {
      const Point p{static_cast<Coord>(
                        o.x0 + static_cast<Coord>(crng.below(
                                   static_cast<std::uint64_t>(o.width())))),
                    static_cast<Coord>(
                        o.y0 + static_cast<Coord>(crng.below(
                                   static_cast<std::uint64_t>(o.height()))))};
      if (initial.isFaulty(p) || !interiorCell(layout, p, 3)) continue;
      ASSERT_EQ(layout.covering(p).size(), 1u);
      candidates[k].push_back(p);
    }
  }

  FailpointSpec crash;
  crash.probability = 0.15;
  crash.seed = 7;
  FailpointRegistry::global().point("fleet.applier.throw").arm(crash);
  FailpointSpec stall;
  stall.probability = 0.03;
  stall.seed = 11;
  stall.payload = 150;  // ms; abandoned by the watchdog at ~100ms
  FailpointRegistry::global().point("fleet.applier.stall").arm(stall);

  // Per-shard writers through the bounded retry channel, recording the
  // ACCEPTED history (a rejected submit touches no queue, so it must
  // not flip the writer's bookkeeping either).
  std::vector<std::vector<std::pair<Point, bool>>> accepted(
      layout.shardCount());
  std::vector<std::thread> writers;
  for (std::size_t k = 0; k < layout.shardCount(); ++k) {
    writers.emplace_back([&, k] {
      Rng wrng(7200 + k);
      std::vector<bool> added(candidates[k].size(), false);
      SubmitRetryPolicy policy;
      policy.maxAttempts = 60;
      policy.baseDelayUs = 100;
      policy.maxDelayUs = 5'000;
      policy.seed = 7300 + k;
      for (std::size_t t = 0; t < kToggles; ++t) {
        const std::size_t c = wrng.below(candidates[k].size());
        const Point p = candidates[k][c];
        const bool add = !added[c];
        const SubmitResult verdict =
            add ? fleet.submitAddFaultWithRetry(p, policy)
                : fleet.submitRemoveFaultWithRetry(p, policy);
        if (verdict == SubmitResult::Accepted) {
          accepted[k].push_back({p, add});
          added[c] = !added[c];
        }
        if (t % 8 == 0) std::this_thread::yield();
      }
    });
  }

  // Readers validate pinned-epoch consistency through the chaos.
  std::atomic<bool> writersDone{false};
  std::vector<std::thread> readers;
  for (std::size_t rix = 0; rix < 2; ++rix) {
    readers.emplace_back([&, rix] {
      std::size_t b = 0;
      do {
        const auto batch = pooledBatch(mesh, 50, 8, 7400 + rix * 64 + b);
        const FleetBatchResult r = fleet.serve(batch, /*wantPaths=*/true);
        validateAgainstPinnedEpochs(layout, batch, r);
        ++b;
      } while (!writersDone.load() || b < 4);
    });
  }
  for (auto& w : writers) w.join();
  writersDone.store(true);
  for (auto& r : readers) r.join();

  // Quiesce: disarm everything, then drain — every accepted event must
  // eventually apply through however many quarantine/rebuild cycles.
  FailpointRegistry::global().disarmAll();
  ASSERT_TRUE(fleet.drainWriters(/*timeoutMs=*/120'000));
  const FleetCounters c = fleet.counters();
  EXPECT_GT(c.quarantines, 0u) << "chaos never fired — injection broken?";
  EXPECT_GE(c.restarts, c.quarantines);  // every quarantine was healed
  std::uint64_t acceptedTotal = 0;
  for (const auto& ops : accepted) acceptedTotal += ops.size();
  EXPECT_EQ(c.eventsApplied, acceptedTotal);

  // Control: the same accepted history replayed into a fleet that never
  // failed, one event at a time — submit, then drain — so the control's
  // bounded queues (queueCapacity 4) never reject a replayed event.
  ServiceFleet control(initial, chaosConfig());
  for (std::size_t k = 0; k < layout.shardCount(); ++k) {
    for (const auto& [p, add] : accepted[k]) {
      ASSERT_EQ(add ? control.submitAddFault(p) : control.submitRemoveFault(p),
                SubmitResult::Accepted);
      ASSERT_TRUE(control.drainWriters(/*timeoutMs=*/120'000));
    }
  }

  // Authoritative per-shard fault state: identical.
  for (std::size_t k = 0; k < layout.shardCount(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(fleet.shardAppliedFaults(k).toVector(),
              control.shardAppliedFaults(k).toVector());
    EXPECT_EQ(fleet.shardHealth(k), ShardHealth::Healthy);
  }

  // Served results: identical bit for bit (epoch NUMBERS differ — the
  // chaosed fleet rebuilt — but epoch CONTENT cannot).
  const auto batch = pooledBatch(mesh, 120, 12, 7900);
  const FleetBatchResult chaosServe = fleet.serve(batch, /*wantPaths=*/true);
  const FleetBatchResult controlServe =
      control.serve(batch, /*wantPaths=*/true);
  ASSERT_EQ(chaosServe.status, controlServe.status);
  EXPECT_EQ(chaosServe.hops, controlServe.hops);
  EXPECT_EQ(chaosServe.paths, controlServe.paths);

  // And valid against the reconstructed global truth.
  FaultSet finalFaults = initial;
  for (const auto& ops : accepted) {
    for (const auto& [p, add] : ops) {
      if (add) {
        finalFaults.add(p);
      } else {
        finalFaults.remove(p);
      }
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    if (!chaosServe.delivered(i)) continue;
    EXPECT_TRUE(isValidPath(finalFaults, batch[i].s, batch[i].d,
                            chaosServe.paths[i]));
  }
}

TEST(FleetChaos, MidBatchDeadlineYieldsFlaggedPartialResults) {
  const Mesh2D mesh = Mesh2D::square(48);
  Rng rng(8001);
  const FaultSet initial = injectUniform(mesh, 150, rng);
  ServiceFleet fleet(initial, chaosConfig());
  const ShardLayout& layout = fleet.layout();
  // A tight-but-nonzero budget on a cold fleet (column compiles eat it
  // mid-batch): some queries finish, the rest come back Deadline. Both
  // extremes (all served / all expired) are legal outcomes on a given
  // machine; what must hold is the partition and the validity of
  // whatever was served.
  const auto batch = pooledBatch(mesh, 200, 16, 8003);
  const FleetBatchResult r = fleet.serve(
      batch, /*wantPaths=*/true, telemetryNowNs() + 3'000'000ull);
  ASSERT_EQ(r.size(), batch.size());
  std::size_t expired = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    const bool flagged = (r.flags[i] & kFleetFlagDeadline) != 0;
    EXPECT_EQ(r.status[i] == ServeStatus::Deadline, flagged);
    if (flagged) ++expired;
  }
  EXPECT_EQ(fleet.counters().deadlineQueries, expired);
  validateAgainstPinnedEpochs(layout, batch, r);
  // A repeat serve with no deadline answers everything normally.
  const FleetBatchResult full = fleet.serve(batch, /*wantPaths=*/true);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_NE(full.status[i], ServeStatus::Deadline);
  }
}

}  // namespace
}  // namespace meshrt
