// End-to-end routing tests: Theorem 1 (RB2 finds a true shortest path),
// Theorem 2 (RB3 matches RB2 from boundary sources), path validity for
// every router, and baseline behavior.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "fault/analysis.h"
#include "route/bfs.h"
#include "route/ecube.h"
#include "route/optimal.h"
#include "route/planner.h"
#include "route/rb1.h"
#include "route/rb2.h"
#include "route/rb3.h"
#include "route/validate.h"
#include "test_util.h"

namespace meshrt {
namespace {

using testutil::faultsAt;

/// True when both endpoints are safe under the pair's quadrant labeling.
bool pairIsSafe(const FaultAnalysis& fa, Point s, Point d) {
  const auto& qa = fa.forPair(s, d);
  return qa.isSafeWorld(s) && qa.isSafeWorld(d);
}

TEST(RoutingFaultFree, AllRoutersDeliverManhattanPaths) {
  const Mesh2D mesh = Mesh2D::square(12);
  const FaultSet faults(mesh);
  const FaultAnalysis fa(faults);
  Rb1Router rb1(fa);
  Rb2Router rb2(fa);
  Rb3Router rb3(fa);
  EcubeRouter ecube(faults);
  const Point s{1, 2};
  const Point d{9, 7};
  for (Router* r :
       std::initializer_list<Router*>{&rb1, &rb2, &rb3, &ecube}) {
    const auto res = r->route(s, d);
    EXPECT_TRUE(res.delivered) << r->name();
    EXPECT_TRUE(isValidPath(faults, s, d, res.path)) << r->name();
    EXPECT_EQ(res.hops(), manhattan(s, d)) << r->name();
  }
}

TEST(RoutingFaultFree, SourceEqualsDestination) {
  const Mesh2D mesh = Mesh2D::square(6);
  const FaultSet faults(mesh);
  const FaultAnalysis fa(faults);
  Rb2Router rb2(fa);
  const auto res = rb2.route({3, 3}, {3, 3});
  EXPECT_TRUE(res.delivered);
  EXPECT_EQ(res.hops(), 0);
}

TEST(RoutingSingleBlock, Rb2DetoursMinimally) {
  // Wall from (2,4) to (8,4) inside a 12x12 mesh; route (4,1) -> (5,9).
  // The Manhattan distance is 9, the wall forces a detour around x=1 or
  // x=9: BFS distance is the ground truth and RB2 must match it.
  const Mesh2D mesh = Mesh2D::square(12);
  std::vector<Point> wall;
  for (Coord x = 2; x <= 8; ++x) wall.push_back({x, 4});
  const FaultSet faults = faultsAt(mesh, wall);
  const FaultAnalysis fa(faults);
  Rb2Router rb2(fa);
  const Point s{4, 1};
  const Point d{5, 9};
  const auto res = rb2.route(s, d);
  ASSERT_TRUE(res.delivered);
  EXPECT_TRUE(isValidPath(faults, s, d, res.path));
  const auto dist = healthyDistances(faults, s);
  EXPECT_EQ(res.hops(), dist[d]);
  EXPECT_GT(res.hops(), manhattan(s, d));
}

TEST(RoutingSingleBlock, ManhattanPathStillTakenWhenOpen) {
  const Mesh2D mesh = Mesh2D::square(12);
  const FaultSet faults = faultsAt(mesh, {{5, 5}});
  const FaultAnalysis fa(faults);
  Rb2Router rb2(fa);
  const auto res = rb2.route({2, 2}, {8, 8});
  ASSERT_TRUE(res.delivered);
  EXPECT_EQ(res.hops(), manhattan({2, 2}, {8, 8}));
}

TEST(RoutingChain, DetourAroundTypeISequence) {
  // Two MCCs overlapping in columns, rising eastward: the configuration of
  // Figure 4(b). RB2 must still deliver a BFS-shortest path.
  const Mesh2D mesh = Mesh2D::square(16);
  std::vector<Point> cells;
  for (Coord x = 0; x <= 6; ++x) cells.push_back({x, 6});    // F1 touches W border
  for (Coord x = 5; x <= 15; ++x) cells.push_back({x, 9});   // F2 touches E border
  const FaultSet faults = faultsAt(mesh, cells);
  const FaultAnalysis fa(faults);
  Rb2Router rb2(fa);
  const Point s{2, 2};
  const Point d{13, 13};
  const auto res = rb2.route(s, d);
  ASSERT_TRUE(res.delivered);
  EXPECT_TRUE(isValidPath(faults, s, d, res.path));
  EXPECT_EQ(res.hops(), healthyDistances(faults, s)[d]);
}

TEST(PlannerTest, DirectPlanWhenManhattanPathExists) {
  const Mesh2D mesh = Mesh2D::square(10);
  const FaultSet faults = faultsAt(mesh, {{4, 4}});
  const FaultAnalysis fa(faults);
  const auto& qa = fa.quadrant(Quadrant::NE);
  DetourPlanner planner(qa);
  const auto plan = planner.plan({1, 1}, {8, 8}, nullptr);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->direct);
  EXPECT_EQ(plan->dist, manhattan({1, 1}, {8, 8}));
}

TEST(PlannerTest, BlockedPlanTargetsACorner) {
  const Mesh2D mesh = Mesh2D::square(12);
  std::vector<Point> wall;
  for (Coord x = 2; x <= 8; ++x) wall.push_back({x, 4});
  const FaultSet faults = faultsAt(mesh, wall);
  const FaultAnalysis fa(faults);
  const auto& qa = fa.quadrant(Quadrant::NE);
  DetourPlanner planner(qa);
  const auto plan = planner.plan({4, 1}, {5, 9}, nullptr);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->direct);
  // Planned distance equals the safe-BFS optimum.
  const auto safeDist = safeDistances(mesh, qa.labels(), {4, 1});
  EXPECT_EQ(plan->dist, (safeDist[{5, 9}]));
}

TEST(PlannerTest, UnreachableWhenSafeGraphDisconnected) {
  // Full-width wall with no gap: no safe or healthy path at all.
  const Mesh2D mesh = Mesh2D::square(8);
  std::vector<Point> wall;
  for (Coord x = 0; x < 8; ++x) wall.push_back({x, 4});
  const FaultSet faults = faultsAt(mesh, wall);
  const FaultAnalysis fa(faults);
  const auto& qa = fa.quadrant(Quadrant::NE);
  DetourPlanner planner(qa);
  EXPECT_FALSE(planner.plan({4, 1}, {4, 7}, nullptr).has_value());
}

// ---------------------------------------------------------------------------
// Theorem 1 as an executable property: for random fault configurations and
// random safe, healthy-connected pairs, RB2 delivers a path of exactly the
// healthy-BFS length.
// ---------------------------------------------------------------------------
struct TheoremCase {
  int seed;
  // gtest prints a parameter that has no printer as its raw bytes, and
  // ctest lists each case under that print. Left to the compiler, these
  // four bytes are alignment padding whose garbage (stack and heap
  // address bits, so it moved with ASLR) leaked into the case names. As
  // an explicit field they are fixed, pinned to the names these cases
  // were recorded under; the test body never reads them.
  std::int32_t nameBytes;
  std::size_t faults;
};
static_assert(sizeof(TheoremCase) == 16, "no compiler padding left");

class Theorem1 : public ::testing::TestWithParam<TheoremCase> {};

TEST_P(Theorem1, Rb2MatchesBfsOptimum) {
  const int seed = GetParam().seed;
  const std::size_t faultCount = GetParam().faults;
  Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 29);
  const Mesh2D mesh = Mesh2D::square(24);
  const FaultSet faults = injectUniform(mesh, faultCount, rng);
  const FaultAnalysis fa(faults);
  Rb2Router rb2(fa);

  int tested = 0;
  for (int t = 0; t < 200 && tested < 40; ++t) {
    const Point s = randomHealthy(faults, rng);
    const Point d = randomHealthy(faults, rng);
    if (!pairIsSafe(fa, s, d)) continue;
    const auto dist = healthyDistances(faults, s);
    if (dist[d] == kUnreachable) continue;
    // The paper's model optimum is over safe nodes; skip the (rare) pairs
    // only connected through unsafe nodes — RB2 cannot use them by design.
    const auto& qa = fa.forPair(s, d);
    const auto safeDist =
        safeDistances(qa.localMesh(), qa.labels(), qa.frame().toLocal(s));
    if (safeDist[qa.frame().toLocal(d)] == kUnreachable) continue;
    ++tested;

    const auto res = rb2.route(s, d);
    ASSERT_TRUE(res.delivered)
        << "seed=" << seed << " s=" << s.str() << " d=" << d.str();
    ASSERT_TRUE(isValidPath(faults, s, d, res.path));
    EXPECT_EQ(res.hops(), safeDist[qa.frame().toLocal(d)])
        << "seed=" << seed << " s=" << s.str() << " d=" << d.str();
  }
  EXPECT_GT(tested, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem1,
    ::testing::Values(TheoremCase{1, 0, 10}, TheoremCase{2, 0x7FFF, 30},
                      TheoremCase{3, 0x7FFF, 60}, TheoremCase{4, 0x55B5, 90},
                      TheoremCase{5, 0x55B5, 120}, TheoremCase{6, 0, 150},
                      TheoremCase{7, 0x55B5, 40}, TheoremCase{8, 0, 80},
                      TheoremCase{9, 0x7FFF, 110},
                      TheoremCase{10, 0x7FFF, 140},
                      // High densities (up to ~30% faulty): the regime
                      // where Eq. 3's clear-leg premise fails and the
                      // exact-field fallback must engage.
                      TheoremCase{11, 0x7FFF, 170},
                      TheoremCase{12, 0, 180}));

// Safe-BFS and healthy-BFS coincide in almost all configurations; measure
// the gap explicitly so the Theorem 1 test's skip is justified.
TEST(SafeVsHealthy, SafeOptimumRarelyLongerThanHealthy) {
  Rng rng(777);
  const Mesh2D mesh = Mesh2D::square(24);
  int pairs = 0;
  int gaps = 0;
  for (int cfg = 0; cfg < 10; ++cfg) {
    const FaultSet faults = injectUniform(mesh, 80, rng);
    const FaultAnalysis fa(faults);
    for (int t = 0; t < 40; ++t) {
      const Point s = randomHealthy(faults, rng);
      const Point d = randomHealthy(faults, rng);
      if (!pairIsSafe(fa, s, d)) continue;
      const auto healthy = healthyDistances(faults, s);
      if (healthy[d] == kUnreachable) continue;
      const auto& qa = fa.forPair(s, d);
      const auto safe =
          safeDistances(qa.localMesh(), qa.labels(), qa.frame().toLocal(s));
      ++pairs;
      if (safe[qa.frame().toLocal(d)] != healthy[d]) ++gaps;
    }
  }
  ASSERT_GT(pairs, 100);
  // Tolerate a small number of pathological pocket cases.
  EXPECT_LE(gaps * 100, pairs * 2) << gaps << " of " << pairs;
}

// ---------------------------------------------------------------------------
// All routers: delivered paths are valid and never shorter than optimal.
// ---------------------------------------------------------------------------
class AllRouters : public ::testing::TestWithParam<int> {};

TEST_P(AllRouters, PathsAreValidAndAtLeastOptimal) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 911 + 5);
  const Mesh2D mesh = Mesh2D::square(20);
  const FaultSet faults = injectUniform(
      mesh, 30 + 10 * static_cast<std::size_t>(GetParam()), rng);
  const FaultAnalysis fa(faults);
  Rb1Router rb1(fa);
  Rb2Router rb2(fa);
  Rb3Router rb3(fa);
  EcubeRouter ecube(faults);
  OptimalRouter optimal(faults);

  for (int t = 0; t < 30; ++t) {
    const Point s = randomHealthy(faults, rng);
    const Point d = randomHealthy(faults, rng);
    if (!pairIsSafe(fa, s, d)) continue;
    const auto opt = optimal.route(s, d);
    if (!opt.delivered) continue;

    for (Router* r :
         std::initializer_list<Router*>{&rb1, &rb2, &rb3, &ecube}) {
      const auto res = r->route(s, d);
      if (res.delivered) {
        EXPECT_TRUE(isValidPath(faults, s, d, res.path))
            << r->name() << " s=" << s.str() << " d=" << d.str();
        EXPECT_GE(res.hops(), opt.hops()) << r->name();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllRouters, ::testing::Range(0, 12));

// Theorem 2: RB3 started from a boundary node finds RB2's path length. We
// approximate "boundary sources" by checking RB3 never does worse than RB2
// plus a small number of learning detours, and exactly matches in the
// fault-free and single-MCC cases.
TEST(Theorem2, Rb3MatchesRb2OnSingleMcc) {
  const Mesh2D mesh = Mesh2D::square(14);
  std::vector<Point> wall;
  for (Coord x = 3; x <= 9; ++x) wall.push_back({x, 6});
  const FaultSet faults = faultsAt(mesh, wall);
  const FaultAnalysis fa(faults);
  Rb2Router rb2(fa);
  Rb3Router rb3(fa);
  // Source on the -X boundary line of the wall's MCC (directly below c).
  const Point s{2, 3};
  const Point d{8, 11};
  const auto r2 = rb2.route(s, d);
  const auto r3 = rb3.route(s, d);
  ASSERT_TRUE(r2.delivered);
  ASSERT_TRUE(r3.delivered);
  EXPECT_EQ(r3.hops(), r2.hops());
}

TEST(PlannerTest, NoFallbackNeededWhenSparse) {
  Rng rng(404);
  const Mesh2D mesh = Mesh2D::square(24);
  const FaultSet faults = injectUniform(mesh, 30, rng);
  const FaultAnalysis fa(faults);
  const auto& qa = fa.quadrant(Quadrant::NE);
  DetourPlanner planner(qa);
  for (int t = 0; t < 30; ++t) {
    const Point a{static_cast<Coord>(rng.below(24)),
                  static_cast<Coord>(rng.below(24))};
    const Point b{static_cast<Coord>(rng.below(24)),
                  static_cast<Coord>(rng.below(24))};
    if (!qa.labels().isSafe(a) || !qa.labels().isSafe(b)) continue;
    planner.plan(a, b, nullptr);
  }
  // At ~5% fault density Eq. 2-3's clear-leg premise holds everywhere.
  EXPECT_EQ(planner.fallbacksTaken(), 0u);
}

TEST(PlannerTest, LegPathMatchesPlannedDistanceWhenDirect) {
  const Mesh2D mesh = Mesh2D::square(10);
  const FaultSet faults = faultsAt(mesh, {{4, 4}});
  const FaultAnalysis fa(faults);
  DetourPlanner planner(fa.quadrant(Quadrant::NE));
  const auto plan = planner.plan({1, 1}, {8, 8}, nullptr);
  ASSERT_TRUE(plan.has_value());
  ASSERT_FALSE(plan->legPath.empty());
  EXPECT_EQ(plan->legPath.front(), (Point{1, 1}));
  EXPECT_EQ(plan->legPath.back(), (Point{8, 8}));
  EXPECT_EQ(static_cast<Distance>(plan->legPath.size()) - 1, plan->dist);
}

TEST(RoutingChain, MultiPhaseThroughTwoChains) {
  // A Figure 4(c)-flavoured scenario: two stacked barrier chains, each
  // spanning most of the mesh width, forcing two distinct detour phases.
  const Mesh2D mesh = Mesh2D::square(20);
  std::vector<Point> cells;
  for (Coord x = 0; x <= 14; ++x) cells.push_back({x, 6});   // lower barrier
  for (Coord x = 5; x <= 19; ++x) cells.push_back({x, 12});  // upper barrier
  const FaultSet faults = faultsAt(mesh, cells);
  const FaultAnalysis fa(faults);
  Rb2Router rb2(fa);
  const Point s{2, 2};
  const Point d{17, 17};
  const auto res = rb2.route(s, d);
  ASSERT_TRUE(res.delivered);
  EXPECT_TRUE(isValidPath(faults, s, d, res.path));
  EXPECT_EQ(res.hops(), healthyDistances(faults, s)[d]);
  EXPECT_GE(res.phases, 2u);
}

TEST(EcubeTest, RoutesXFirstThenY) {
  const Mesh2D mesh = Mesh2D::square(10);
  const FaultSet faults(mesh);
  EcubeRouter ecube(faults);
  const auto res = ecube.route({1, 1}, {5, 7});
  ASSERT_TRUE(res.delivered);
  // Prefix corrects X: positions 0..4 share y=1.
  for (std::size_t i = 0; i <= 4; ++i) EXPECT_EQ(res.path[i].y, 1);
  EXPECT_EQ(res.hops(), manhattan({1, 1}, {5, 7}));
}

TEST(EcubeTest, DetoursAroundFaultOnRow) {
  const Mesh2D mesh = Mesh2D::square(10);
  const FaultSet faults = faultsAt(mesh, {{3, 1}});
  EcubeRouter ecube(faults);
  const auto res = ecube.route({1, 1}, {6, 1});
  ASSERT_TRUE(res.delivered);
  EXPECT_TRUE(isValidPath(faults, {1, 1}, {6, 1}, res.path));
  EXPECT_EQ(res.hops(), manhattan({1, 1}, {6, 1}) + 2);  // one ring detour
}

}  // namespace
}  // namespace meshrt
