// Tests for the deterministic fault-injection registry
// (common/failpoint.h) and its integration points in the service stack.
//
// The key contracts:
//  - a disarmed failpoint never fires and costs one relaxed load;
//  - armed with p=1 it fires every evaluation, bounded by maxFires;
//  - probabilistic firing is a pure function of (seed, eval index), so a
//    run replays bit-for-bit;
//  - armFromSpec parses the MESHRT_FAILPOINTS grammar and rejects
//    malformed specs without arming anything;
//  - a fired labeler/publish failpoint leaves the model/service exactly
//    as it was (clean retry after disarm);
//  - serve deadlines return ServeStatus::Deadline for unserved queries
//    and change nothing when generous.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "fault/analysis.h"
#include "fault/injectors.h"
#include "service/route_service.h"

namespace meshrt {
namespace {

TEST(FailpointTest, DisarmedNeverFires) {
  FailpointArmScope scope;
  Failpoint& fp = FailpointRegistry::global().point("test.disarmed");
  EXPECT_FALSE(fp.armed());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(fp.shouldFire());
  EXPECT_EQ(fp.fireCount(), 0u);
}

TEST(FailpointTest, ArmedAlwaysFiresUntilBudgetExhausted) {
  FailpointArmScope scope;
  Failpoint& fp = FailpointRegistry::global().point("test.budget");
  FailpointSpec spec;
  spec.maxFires = 3;
  fp.arm(spec);
  EXPECT_TRUE(fp.armed());
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (fp.shouldFire()) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(fp.fireCount(), 3u);
  EXPECT_EQ(fp.evalCount(), 10u);
  fp.disarm();
  EXPECT_FALSE(fp.shouldFire());
}

TEST(FailpointTest, ProbabilisticFiringIsDeterministicInSeed) {
  FailpointArmScope scope;
  Failpoint& fp = FailpointRegistry::global().point("test.prob");
  const auto firePattern = [&](std::uint64_t seed) {
    FailpointSpec spec;
    spec.probability = 0.5;
    spec.seed = seed;
    fp.arm(spec);  // re-arm resets eval/fire counts
    std::vector<bool> fires;
    for (int i = 0; i < 400; ++i) fires.push_back(fp.shouldFire());
    return fires;
  };
  const auto a = firePattern(7);
  const auto b = firePattern(7);
  const auto c = firePattern(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // p=0.5 over 400 draws: a 10-sigma band still proves "roughly half".
  const auto fired = static_cast<std::size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 100u);
  EXPECT_LT(fired, 300u);
}

TEST(FailpointTest, ArmFromSpecParsesAndRejects) {
  FailpointArmScope scope;
  FailpointRegistry& reg = FailpointRegistry::global();
  std::string error;
  ASSERT_TRUE(reg.armFromSpec(
      "test.parse.a=p:0.25,n:5,seed:42;test.parse.b;test.parse.c=payload:9",
      &error))
      << error;
  EXPECT_TRUE(reg.point("test.parse.a").armed());
  EXPECT_TRUE(reg.point("test.parse.b").armed());
  EXPECT_TRUE(reg.point("test.parse.c").armed());
  EXPECT_EQ(reg.point("test.parse.c").payload(), 9u);
  const auto names = reg.armedNames();
  EXPECT_EQ(names.size(), 3u);
  reg.disarmAll();
  EXPECT_TRUE(reg.armedNames().empty());
  EXPECT_FALSE(reg.armFromSpec("test.bad=p:notanumber", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(reg.armFromSpec("test.bad=unknownkey:1", &error));
  EXPECT_FALSE(reg.point("test.bad").armed());
}

TEST(FailpointTest, MaybeThrowRaisesFailpointError) {
  FailpointArmScope scope;
  Failpoint& fp = FailpointRegistry::global().point("test.throw");
  failpointMaybeThrow(nullptr);  // null-safe no-op
  failpointMaybeThrow(&fp);      // disarmed no-op
  fp.arm({});
  EXPECT_THROW(failpointMaybeThrow(&fp), FailpointError);
}

TEST(FailpointTest, StallHonorsCancelFlag) {
  FailpointArmScope scope;
  Failpoint& fp = FailpointRegistry::global().point("test.stall");
  FailpointSpec spec;
  spec.payload = 60'000;  // 60s stall: only the cancel flag ends the test
  fp.arm(spec);
  std::atomic<bool> cancel{true};
  const std::uint64_t before = telemetryNowNs();
  failpointMaybeStall(&fp, &cancel);
  const std::uint64_t elapsedMs = (telemetryNowNs() - before) / 1'000'000;
  EXPECT_LT(elapsedMs, 5'000u);
}

TEST(FailpointTest, FiredLabelerEventLeavesModelUntouched) {
  FailpointArmScope scope;
  const Mesh2D mesh = Mesh2D::square(12);
  DynamicFaultModel model{FaultSet(mesh)};
  FailpointRegistry::global().point("labeler.apply.fail").arm({});
  EXPECT_THROW(model.addFaultEvent({3, 3}), FailpointError);
  EXPECT_TRUE(model.faults().isHealthy({3, 3}));
  EXPECT_EQ(model.version(), 0u);
  FailpointRegistry::global().disarmAll();
  const FaultEvent event = model.addFaultEvent({3, 3});
  EXPECT_TRUE(event.applied);
  EXPECT_TRUE(model.faults().isFaulty({3, 3}));
}

TEST(FailpointTest, FiredPublishKeepsServiceRetryable) {
  FailpointArmScope scope;
  const Mesh2D mesh = Mesh2D::square(16);
  Rng rng(31);
  RouteService service(injectUniform(mesh, 10, rng), {});
  FailpointSpec once;
  once.maxFires = 1;
  FailpointRegistry::global().point("service.publish.fail").arm(once);
  Point p{5, 5};
  while (service.snapshot()->faults().isFaulty(p)) p.x += 1;
  EXPECT_THROW(service.applyAddFault(p), FailpointError);
  // The model took the event before the publish aborted: no new epoch,
  // and the published view still serves the pre-event world.
  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_FALSE(service.snapshot()->faults().isFaulty(p));
  // The budget is spent, so the NEXT event publishes — and its migration
  // mask carries the failed event's retained footprint, so the new epoch
  // surfaces BOTH faults.
  Point q{9, 9};
  while (service.snapshot()->faults().isFaulty(q) || q == p) q.x += 1;
  EXPECT_EQ(service.applyAddFault(q), 1u);
  EXPECT_TRUE(service.snapshot()->faults().isFaulty(p));
  EXPECT_TRUE(service.snapshot()->faults().isFaulty(q));
}

TEST(FailpointTest, FiredServeFailsTheBatchNotTheService) {
  FailpointArmScope scope;
  const Mesh2D mesh = Mesh2D::square(16);
  Rng rng(41);
  RouteService service(injectUniform(mesh, 10, rng), {});
  const std::vector<Query> batch{{{1, 1}, {14, 14}}};
  FailpointSpec once;
  once.maxFires = 1;
  FailpointRegistry::global().point("service.serve.fail").arm(once);
  EXPECT_THROW(service.serve(batch), FailpointError);
  const BatchResult after = service.serve(batch);
  EXPECT_EQ(after.status[0], ServeStatus::Delivered);
}

// ------------------------------------------------------ serve deadlines

TEST(FailpointTest, ExpiredDeadlineReturnsDeadlineStatuses) {
  // Fault-free mesh: endpoint classification retires EndpointFaulty
  // verdicts BEFORE the deadline gate by design, so an all-Deadline
  // assertion needs every endpoint healthy.
  const Mesh2D mesh = Mesh2D::square(24);
  RouteService service(FaultSet(mesh), {});
  // Batches that chase on the calling thread and one whose slices fan
  // out over the pool all gate on the same already-expired deadline.
  for (const std::size_t n :
       {std::size_t{3}, std::size_t{64}, 2 * RouteService::kChunk + 17}) {
    SCOPED_TRACE(n);
    std::vector<Query> batch;
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back({{static_cast<Coord>(i % 24), 0},
                       {23, static_cast<Coord>(i % 24)}});
    }
    const BatchResult r = service.serve(batch, false, /*deadlineNs=*/1);
    ASSERT_EQ(r.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(r.status[i], ServeStatus::Deadline);
    }
  }
}

TEST(FailpointTest, GenerousDeadlineMatchesNoDeadlineBitForBit) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(61);
  RouteService service(injectUniform(mesh, 30, rng), {});
  std::vector<Query> batch;
  Rng brng(63);
  for (std::size_t i = 0; i < 100; ++i) {
    batch.push_back({{static_cast<Coord>(brng.below(24)),
                      static_cast<Coord>(brng.below(24))},
                     {static_cast<Coord>(brng.below(24)),
                      static_cast<Coord>(brng.below(24))}});
  }
  const BatchResult plain = service.serve(batch, true);
  const BatchResult bounded =
      service.serve(batch, true, telemetryNowNs() + 60'000'000'000ull);
  EXPECT_EQ(bounded.status, plain.status);
  EXPECT_EQ(bounded.hops, plain.hops);
  EXPECT_EQ(bounded.paths, plain.paths);
}

}  // namespace
}  // namespace meshrt
