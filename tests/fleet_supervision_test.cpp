// Tests for the self-healing fleet layer (src/service/fleet.h): shard
// health supervision, bounded writer queues with backpressure, and
// fleet-level serve deadlines / error isolation.
//
// The key contracts:
//  - an applier that throws quarantines its shard with the failed event
//    back at the queue FRONT; the supervisor rebuilds the service from
//    the authoritative applied-fault set and replays the queue, so the
//    recovered state equals the never-failed state;
//  - an applier whose heartbeat stalls past the watchdog budget is
//    abandoned (generation fencing: the zombie touches nothing) and the
//    shard recovered the same way;
//  - a quarantined shard keeps serving reads from its last good epoch,
//    flagged kFleetFlagStale, and a bounded drainWriters times out
//    while the shard waits for its rebuild;
//  - bounded submits are all-or-nothing across covering shards, and the
//    retry helper backs off deterministically;
//  - an expired serve deadline returns Deadline-flagged partial results;
//    a throwing shard serve fails only the queries that needed it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "fleet_test_util.h"
#include "route/validate.h"
#include "service/fleet.h"

namespace meshrt {
namespace {

using fleettest::fleetConfig;
using fleettest::pooledBatch;
using fleettest::validateAgainstPinnedEpochs;

/// Polls `pred` until it holds or `timeoutMs` expires.
bool waitFor(const std::function<bool()>& pred, std::int64_t timeoutMs) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeoutMs);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// rb2 fleet on an empty 32x32 mesh, 2x2 grid, fast supervisor cadence.
FleetConfig supervisedConfig() {
  FleetConfig cfg = fleetConfig("rb2", 2);
  cfg.supervisorPollMs = 5;
  return cfg;
}

// Probes: intra shard 0, intra shard 3, cross 0<->3 (32x32, 2x2 grid).
const std::vector<Query> kProbes{{{2, 2}, {12, 12}},
                                 {{20, 20}, {30, 28}},
                                 {{2, 2}, {30, 28}}};

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

// ------------------------------------------------ quarantine + rebuild

TEST(FleetSupervision, ThrowingApplierQuarantinesRebuildsAndReplays) {
  FailpointArmScope scope;
  const Mesh2D mesh = Mesh2D::square(32);
  ServiceFleet fleet(FaultSet(mesh), supervisedConfig());
  FailpointSpec once;
  once.maxFires = 1;
  FailpointRegistry::global().point("fleet.applier.throw").arm(once);

  // Interior of shard 0 (outside every neighbor halo): one covering
  // shard, one applier, one injected crash.
  ASSERT_EQ(fleet.submitAddFault({4, 4}), SubmitResult::Accepted);
  ASSERT_TRUE(fleet.drainWriters(/*timeoutMs=*/20'000));

  EXPECT_EQ(fleet.shardHealth(0), ShardHealth::Healthy);
  const FleetCounters c = fleet.counters();
  EXPECT_EQ(c.quarantines, 1u);
  EXPECT_EQ(c.restarts, 1u);
  EXPECT_NE(fleet.shardError(0).find("failpoint"), std::string::npos);
  // The failed event was replayed, not lost: the fault is applied and
  // the recovered shard serves a valid detour around it.
  const Point local = fleet.layout().toLocal(0, {4, 4});
  EXPECT_TRUE(fleet.shardAppliedFaults(0).isFaulty(local));
  EXPECT_TRUE(fleet.shard(0).snapshot()->faults().isFaulty(local));
  const FleetBatchResult r = fleet.serve(kProbes, /*wantPaths=*/true);
  EXPECT_TRUE(r.delivered(0));
  EXPECT_EQ(r.flags[0], 0u);
  validateAgainstPinnedEpochs(fleet.layout(), kProbes, r);
}

TEST(FleetSupervision, StallWatchdogAbandonsAppliersAndRecovers) {
  FailpointArmScope scope;
  const Mesh2D mesh = Mesh2D::square(32);
  FleetConfig cfg = supervisedConfig();
  cfg.stallTimeoutMs = 40;  // Suspect at 40ms, abandoned at 80ms
  cfg.supervisorPollMs = 10;
  ServiceFleet fleet(FaultSet(mesh), cfg);
  FailpointSpec stall;
  stall.maxFires = 1;
  stall.payload = 10'000;  // 10s: far past the watchdog, cut at teardown
  FailpointRegistry::global().point("fleet.applier.stall").arm(stall);

  ASSERT_EQ(fleet.submitAddFault({4, 4}), SubmitResult::Accepted);
  ASSERT_TRUE(fleet.drainWriters(/*timeoutMs=*/20'000));

  EXPECT_EQ(fleet.shardHealth(0), ShardHealth::Healthy);
  const FleetCounters c = fleet.counters();
  EXPECT_GE(c.quarantines, 1u);
  EXPECT_GE(c.restarts, 1u);
  EXPECT_NE(fleet.shardError(0).find("stalled"), std::string::npos);
  // The in-flight event was restored and replayed by the successor.
  const Point local = fleet.layout().toLocal(0, {4, 4});
  EXPECT_TRUE(fleet.shardAppliedFaults(0).isFaulty(local));
  EXPECT_TRUE(fleet.shard(0).snapshot()->faults().isFaulty(local));
  // The abandoned zombie is still parked in its stall; the fleet
  // destructor must cut it short and join it (no leak, no crash).
}

TEST(FleetSupervision, QuarantinedShardServesStaleAndBoundedDrainTimesOut) {
  FailpointArmScope scope;
  const Mesh2D mesh = Mesh2D::square(32);
  FleetConfig cfg = supervisedConfig();
  // The supervisor's first scan comes a minute after construction, so
  // the quarantine below holds for the rest of the test.
  cfg.supervisorPollMs = 60'000;
  ServiceFleet fleet(FaultSet(mesh), cfg);
  FailpointSpec once;
  once.maxFires = 1;
  FailpointRegistry::global().point("fleet.applier.throw").arm(once);

  ASSERT_EQ(fleet.submitAddFault({4, 4}), SubmitResult::Accepted);
  ASSERT_TRUE(waitFor(
      [&] { return fleet.shardHealth(0) == ShardHealth::Quarantined; },
      10'000));

  // Reads still flow: the quarantined shard answers from its last good
  // epoch (0), flagged stale; the healthy shard is untouched.
  const FleetBatchResult r = fleet.serve(kProbes, /*wantPaths=*/true);
  EXPECT_EQ(r.status[0], ServeStatus::Delivered);
  EXPECT_EQ(r.flags[0], kFleetFlagStale);
  EXPECT_EQ(r.shardEpochs[0], 0u);
  EXPECT_EQ(r.status[1], ServeStatus::Delivered);
  EXPECT_EQ(r.flags[1], 0u);
  EXPECT_EQ(r.status[2], ServeStatus::Delivered);
  EXPECT_EQ(r.flags[2], kFleetFlagStale);
  EXPECT_GE(fleet.counters().degradedQueries, 2u);

  // A drain waits for the rebuild, so a bounded one gives up.
  EXPECT_FALSE(fleet.drainWriters(/*timeoutMs=*/100));
  // The queued event is still there (nothing was lost — just unapplied).
  EXPECT_EQ(fleet.writerQueueDepth(0), 1u);
}

TEST(FleetSupervision, DrainWritersTimesOutOnParkedApplier) {
  const Mesh2D mesh = Mesh2D::square(32);
  Gate gate;
  FleetConfig cfg = supervisedConfig();
  cfg.applyHook = [&gate](std::size_t shard) {
    if (shard == 0) gate.waitUntilOpen();
  };
  ServiceFleet fleet(FaultSet(mesh), cfg);
  ASSERT_EQ(fleet.submitAddFault({4, 4}), SubmitResult::Accepted);
  EXPECT_FALSE(fleet.drainWriters(/*timeoutMs=*/50));
  gate.open();
  EXPECT_TRUE(fleet.drainWriters(/*timeoutMs=*/20'000));
  EXPECT_EQ(fleet.shardHealth(0), ShardHealth::Healthy);
}

// ------------------------------------------------ bounded writer queues

TEST(FleetSupervision, BoundedSubmitIsAllOrNothingAndRetryRecovers) {
  const Mesh2D mesh = Mesh2D::square(32);
  Gate gate;
  std::atomic<int> popped{0};
  FleetConfig cfg = supervisedConfig();
  cfg.halo = 1;
  cfg.queueCapacity = 2;
  cfg.applyHook = [&gate, &popped](std::size_t shard) {
    if (shard == 0) {
      popped.fetch_add(1);
      gate.waitUntilOpen();
    }
  };
  ServiceFleet fleet(FaultSet(mesh), cfg);

  // First event is popped into the parked applier (in-flight events do
  // not count against the bound); the next two fill the queue.
  ASSERT_EQ(fleet.submitAddFault({2, 4}), SubmitResult::Accepted);
  ASSERT_TRUE(waitFor([&] { return popped.load() >= 1; }, 5'000));
  ASSERT_EQ(fleet.submitAddFault({3, 4}), SubmitResult::Accepted);
  ASSERT_EQ(fleet.submitAddFault({4, 4}), SubmitResult::Accepted);
  EXPECT_EQ(fleet.writerQueueDepth(0), 3u);  // 2 queued + 1 in flight

  EXPECT_EQ(fleet.submitAddFault({5, 4}), SubmitResult::Rejected);
  EXPECT_EQ(fleet.counters().submitRejected, 1u);
  EXPECT_EQ(fleet.writerQueueDepth(0), 3u);

  // Border cell covered by shards {0, 1} (halo 1: x=15 is shard 1's
  // first halo column): shard 1 has room but shard 0 is full, so the
  // whole event is refused and shard 1 must NOT have been enqueued.
  EXPECT_EQ(fleet.submitAddFault({15, 4}), SubmitResult::Rejected);
  EXPECT_EQ(fleet.writerQueueDepth(1), 0u);

  // The retry helper: bounded attempts, counted backoff sleeps.
  SubmitRetryPolicy policy;
  policy.maxAttempts = 3;
  policy.baseDelayUs = 100;
  EXPECT_EQ(fleet.submitAddFaultWithRetry({6, 4}, policy),
            SubmitResult::Rejected);
  EXPECT_EQ(fleet.counters().submitRetries, 2u);  // 3 attempts, 2 sleeps
  // An already-expired deadline forbids any backoff sleep.
  policy.deadlineNs = 1;
  EXPECT_EQ(fleet.submitAddFaultWithRetry({6, 4}, policy),
            SubmitResult::Rejected);
  EXPECT_EQ(fleet.counters().submitRetries, 2u);

  gate.open();
  ASSERT_TRUE(fleet.drainWriters(/*timeoutMs=*/20'000));
  policy.deadlineNs = 0;
  EXPECT_EQ(fleet.submitAddFaultWithRetry({6, 4}, policy),
            SubmitResult::Accepted);
  ASSERT_TRUE(fleet.drainWriters(/*timeoutMs=*/20'000));
  // Everything accepted was applied; everything rejected was not.
  const FaultSet applied = fleet.shardAppliedFaults(0);
  const auto local = [&](Point p) { return fleet.layout().toLocal(0, p); };
  EXPECT_TRUE(applied.isFaulty(local({2, 4})));
  EXPECT_TRUE(applied.isFaulty(local({3, 4})));
  EXPECT_TRUE(applied.isFaulty(local({4, 4})));
  EXPECT_TRUE(applied.isFaulty(local({6, 4})));
  EXPECT_FALSE(applied.isFaulty(local({5, 4})));
  EXPECT_FALSE(applied.isFaulty(local({15, 4})));
}

// ------------------------------------------- deadline + error isolation

TEST(FleetSupervision, ExpiredServeDeadlineFlagsEveryQuery) {
  const Mesh2D mesh = Mesh2D::square(32);
  ServiceFleet fleet(FaultSet(mesh), supervisedConfig());
  const auto batch = pooledBatch(mesh, 40, 8, 77);
  const FleetBatchResult r =
      fleet.serve(batch, /*wantPaths=*/false, /*deadlineNs=*/1);
  ASSERT_EQ(r.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(r.status[i], ServeStatus::Deadline);
    EXPECT_EQ(r.flags[i] & kFleetFlagDeadline, kFleetFlagDeadline);
  }
  EXPECT_EQ(fleet.counters().deadlineQueries, batch.size());
}

TEST(FleetSupervision, GenerousDeadlineMatchesNoDeadlineBitForBit) {
  const Mesh2D mesh = Mesh2D::square(32);
  Rng rng(81);
  const FaultSet faults = fleettest::injectInterior(
      ShardLayout(mesh, 2, 2), 30, /*margin=*/3, rng);
  ServiceFleet fleet(faults, supervisedConfig());
  const auto batch = pooledBatch(mesh, 80, 10, 83);
  const FleetBatchResult plain = fleet.serve(batch, /*wantPaths=*/true);
  const FleetBatchResult bounded = fleet.serve(
      batch, /*wantPaths=*/true, telemetryNowNs() + 60'000'000'000ull);
  EXPECT_EQ(bounded.status, plain.status);
  EXPECT_EQ(bounded.hops, plain.hops);
  EXPECT_EQ(bounded.paths, plain.paths);
  EXPECT_EQ(fleet.counters().deadlineQueries, 0u);
}

TEST(FleetSupervision, ThrowingShardServeFailsOnlyItsQueries) {
  FailpointArmScope scope;
  const Mesh2D mesh = Mesh2D::square(32);
  ServiceFleet fleet(FaultSet(mesh), supervisedConfig());
  FailpointSpec once;
  once.maxFires = 1;
  FailpointRegistry::global().point("service.serve.fail").arm(once);
  // Shards serve in index order, so the single injected throw lands on
  // shard 0's sub-batch: its intra query fails flagged, shard 3's intra
  // query is untouched, and the cross query (served after the budget is
  // spent) still stitches.
  const FleetBatchResult r = fleet.serve(kProbes, /*wantPaths=*/true);
  EXPECT_EQ(r.status[0], ServeStatus::NoRoute);
  EXPECT_EQ(r.flags[0], kFleetFlagError);
  EXPECT_EQ(r.status[1], ServeStatus::Delivered);
  EXPECT_EQ(r.flags[1], 0u);
  EXPECT_EQ(r.status[2], ServeStatus::Delivered);
  EXPECT_EQ(fleet.counters().serveErrors, 1u);
}

// ------------------------------------- fleet-level exception scoping

TEST(FleetSupervision, ThrowingAppliersCannotPoisonFleetReaders) {
  // Fleet-level port of ServiceTest.ThrowingWriterCannotPoisonReaders:
  // every shard's applier fails every apply (fleet.applier.throw at
  // p=1) while every compile and patch job fails too
  // (service.compile.fail at p=1), so the fleet cycles through
  // quarantine -> rebuild -> replay -> requarantine the whole window (a
  // rebuilt shard's FIRST compile fails too). The contract under test:
  // no failure ever escapes to a reader as an exception — a failed
  // compile surfaces as a flagged per-query error verdict — and every
  // UNFLAGGED query serves the reference answer bit-for-bit. Disarmed,
  // the supervisor heals every shard and the events land.
  FailpointArmScope scope;
  const Mesh2D mesh = Mesh2D::square(32);
  FleetConfig cfg = supervisedConfig();
  cfg.service.routerKey = "rb2";
  ServiceFleet fleet(FaultSet(mesh), cfg);
  const auto batch = pooledBatch(mesh, 60, 8, 91);
  const FleetBatchResult reference = fleet.serve(batch, /*wantPaths=*/true);

  // Interior cells, one per shard quadrant: covering == {owner}.
  const std::vector<Point> toggles{{4, 4}, {27, 4}, {4, 27}, {27, 27}};
  std::atomic<std::uint64_t> readerErrors{0};
  {
    FailpointRegistry::global().point("service.compile.fail").arm({});
    FailpointRegistry::global().point("fleet.applier.throw").arm({});
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
      readers.emplace_back([&] {
        for (int round = 0; round < 5; ++round) {
          try {
            const FleetBatchResult r = fleet.serve(batch, /*wantPaths=*/true);
            for (std::size_t i = 0; i < batch.size(); ++i) {
              // A rebuilt shard's failed compile fails its queries
              // flagged; anything NOT flagged must be the reference.
              if ((r.flags[i] & kFleetFlagError) != 0) continue;
              if (r.status[i] != reference.status[i] ||
                  r.paths[i] != reference.paths[i]) {
                readerErrors.fetch_add(1);
              }
            }
          } catch (...) {
            readerErrors.fetch_add(1);
          }
        }
      });
    }
    for (const Point p : toggles) {
      ASSERT_EQ(fleet.submitAddFault(p), SubmitResult::Accepted);
    }
    for (std::size_t k = 0; k < fleet.shardCount(); ++k) {
      EXPECT_TRUE(waitFor(
          [&] { return fleet.shardHealth(k) != ShardHealth::Healthy; },
          10'000))
          << "shard " << k << " never quarantined";
    }
    for (auto& r : readers) r.join();
    FailpointRegistry::global().point("fleet.applier.throw").disarm();
    FailpointRegistry::global().point("service.compile.fail").disarm();
  }
  EXPECT_EQ(readerErrors.load(), 0u);
  EXPECT_GE(fleet.counters().quarantines, 4u);

  // Disarmed: the supervisor rebuilds every shard and replays the
  // events; the fleet converges to the submitted state.
  ASSERT_TRUE(fleet.drainWriters(/*timeoutMs=*/30'000));
  FaultSet expected(mesh);
  for (const Point p : toggles) expected.add(p);
  for (std::size_t k = 0; k < fleet.shardCount(); ++k) {
    EXPECT_EQ(fleet.shardHealth(k), ShardHealth::Healthy);
  }
  const FleetBatchResult after = fleet.serve(batch, /*wantPaths=*/true);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!after.delivered(i)) continue;
    EXPECT_TRUE(
        isValidPath(expected, batch[i].s, batch[i].d, after.paths[i]));
  }
}

}  // namespace
}  // namespace meshrt
