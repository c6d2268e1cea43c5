// End-to-end routing tests: Theorem 1 (RB2 finds a true shortest path),
// Theorem 2 (RB3 matches RB2 from boundary sources), path validity for
// every router, and baseline behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "fault/analysis.h"
#include "route/bfs.h"
#include "route/ecube.h"
#include "route/optimal.h"
#include "route/planner.h"
#include "route/rb1.h"
#include "route/rb2.h"
#include "route/rb3.h"
#include "route/route_table.h"
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
  std::vector<Point> leg;
  const auto plan =
      planner.plan({1, 1}, {8, 8}, nullptr, PathOrder::Balanced, &leg);
  ASSERT_TRUE(plan.has_value());
  ASSERT_FALSE(leg.empty());
  EXPECT_EQ(leg.front(), (Point{1, 1}));
  EXPECT_EQ(leg.back(), (Point{8, 8}));
  EXPECT_EQ(static_cast<Distance>(leg.size()) - 1, plan->dist);
  EXPECT_EQ(plan->firstStep, leg[1]);
  // Without a leg, the plan works out the same first step.
  const auto bare = planner.plan({1, 1}, {8, 8}, nullptr);
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->firstStep, leg[1]);
}

// PlanCache must answer exactly what the uncached planner computes per
// call. The masks are random MCC masks on non-square meshes, in every
// quadrant's frame, over every ordered pair: a == b, blocked endpoints and
// pairs sharing a row or column included.
std::vector<Mesh2D> planCacheMeshes() {
  return {Mesh2D(13, 11), Mesh2D(16, 8), Mesh2D(5, 17)};
}

TEST(PlannerTest, CachedReachMatchesMonotoneField) {
  std::size_t reachable = 0;
  std::size_t cut = 0;  // both endpoints passable, no monotone path
  std::size_t blockedEndpoint = 0;
  std::uint64_t seed = 31;
  // Reach bitsets give each row whole 64-bit words: the wide meshes have
  // rows of two and three words, so sweeps carry across words, and the
  // sparse one has passable runs longer than half a word.
  std::vector<std::pair<Mesh2D, std::size_t>> meshes;  // mesh, fault %
  for (const Mesh2D& mesh : planCacheMeshes()) meshes.push_back({mesh, 15});
  meshes.push_back({Mesh2D(70, 4), 15});
  meshes.push_back({Mesh2D(130, 2), 3});
  for (const auto& [mesh, percent] : meshes) {
    Rng rng(seed++);
    const FaultSet faults = injectUniform(
        mesh, static_cast<std::size_t>(mesh.nodeCount()) * percent / 100,
        rng);
    const FaultAnalysis fa(faults);
    for (Quadrant quad : {Quadrant::NE, Quadrant::NW, Quadrant::SE,
                          Quadrant::SW}) {
      const QuadrantAnalysis& qa = fa.quadrant(quad);
      const Mesh2D& local = qa.localMesh();
      const auto pass = [&](Point p) { return qa.mccIndexAt(p) < 0; };
      PlanCache cache;
      cache.bind(qa);
      // Source-major order: the first row builds every target's reach
      // field and later rows read the kept fields.
      for (NodeId ai = 0; ai < local.nodeCount(); ++ai) {
        const Point a = local.point(ai);
        for (NodeId bi = 0; bi < local.nodeCount(); ++bi) {
          const Point b = local.point(bi);
          const bool r = MonotoneField(local, a, b, pass).targetReachable();
          if (r) {
            ++reachable;
          } else if (pass(a) && pass(b)) {
            ++cut;
          } else {
            ++blockedEndpoint;
          }
          ASSERT_EQ(cache.reaches(a, b), r)
              << "a=" << a.str() << " b=" << b.str();
        }
      }
    }
  }
  EXPECT_GT(reachable, 0u);
  EXPECT_GT(cut, 0u);
  EXPECT_GT(blockedEndpoint, 0u);
}

TEST(PlannerTest, CachedForwardFieldMatchesMonotoneField) {
  // The cache's forward sweep stands in for MonotoneField(a, b) in
  // full-knowledge plans: its reach bits (on the rectangle and the ring
  // around it), its blocking frontier and both extracted path orders must
  // be MonotoneField's, over every ordered pair. So must the first step,
  // which the cache finds without extracting the path, for every pair
  // with a reachable target (same row, same column and adjacent pairs
  // included). The wide meshes have rows of two and three words.
  std::size_t frontierCells = 0;
  std::size_t paths = 0;
  std::size_t forcedSteps = 0;  // only one of a's two steps reaches b
  std::size_t walkedSteps = 0;  // both do: the backward walk decides
  std::vector<Point> cells;
  std::uint64_t seed = 43;
  std::vector<std::pair<Mesh2D, std::size_t>> meshes;  // mesh, fault %
  for (const Mesh2D& mesh : planCacheMeshes()) meshes.push_back({mesh, 15});
  meshes.push_back({Mesh2D(70, 4), 15});
  meshes.push_back({Mesh2D(130, 2), 3});
  for (const auto& [mesh, percent] : meshes) {
    Rng rng(seed++);
    const FaultSet faults = injectUniform(
        mesh, static_cast<std::size_t>(mesh.nodeCount()) * percent / 100,
        rng);
    const FaultAnalysis fa(faults);
    for (Quadrant quad : {Quadrant::NE, Quadrant::NW, Quadrant::SE,
                          Quadrant::SW}) {
      const QuadrantAnalysis& qa = fa.quadrant(quad);
      const Mesh2D& local = qa.localMesh();
      const auto pass = [&](Point p) { return qa.mccIndexAt(p) < 0; };
      PlanCache cache;
      cache.bind(qa);
      for (NodeId ai = 0; ai < local.nodeCount(); ++ai) {
        const Point a = local.point(ai);
        for (NodeId bi = 0; bi < local.nodeCount(); ++bi) {
          const Point b = local.point(bi);
          const MonotoneField field(local, a, b, pass);
          cache.sweepForward(a, b);
          const Rect ring = Rect::between(a, b).inflated(1);
          for (Coord y = ring.y0; y <= ring.y1; ++y) {
            for (Coord x = ring.x0; x <= ring.x1; ++x) {
              const Point p{x, y};
              if (!local.contains(p)) continue;
              ASSERT_EQ(cache.forwardReached(p), field.reachable(p))
                  << "a=" << a.str() << " b=" << b.str() << " p=" << p.str();
            }
          }
          const std::vector<Point> frontier = field.blockingFrontier();
          cache.blockingFrontier(a, b, cells);
          ASSERT_EQ(cells, frontier) << "a=" << a.str() << " b=" << b.str();
          frontierCells += frontier.size();
          for (const PathOrder order :
               {PathOrder::Balanced, PathOrder::XFirst}) {
            const std::vector<Point> path = field.extractPath(order);
            ASSERT_EQ(cache.monotonePath(a, b, order), path)
                << "a=" << a.str() << " b=" << b.str();
            if (path.size() < 2) continue;
            ASSERT_EQ(cache.firstStep(a, b, order), path[1])
                << "a=" << a.str() << " b=" << b.str();
          }
          if (field.targetReachable()) ++paths;
          if (field.targetReachable() && a.x != b.x && a.y != b.y) {
            const Point stepX{a.x + (b.x > a.x ? 1 : -1), a.y};
            const Point stepY{a.x, a.y + (b.y > a.y ? 1 : -1)};
            ++(cache.reaches(stepX, b) && cache.reaches(stepY, b)
                   ? walkedSteps
                   : forcedSteps);
          }
        }
      }
    }
  }
  EXPECT_GT(frontierCells, 0u);
  EXPECT_GT(paths, 0u);
  EXPECT_GT(forcedSteps, 0u);
  EXPECT_GT(walkedSteps, 0u);
}

TEST(PlannerTest, ReachFieldsStayUnderByteCap) {
  // Every cell of a 100x100 mesh as a target: ~4x the fields the cap
  // holds, so the cache drops them all several times and must answer
  // exactly across each drop.
  const Mesh2D mesh = Mesh2D::square(100);
  Rng rng(73);
  const FaultSet faults = injectUniform(mesh, 1000, rng);
  const FaultAnalysis fa(faults);
  const QuadrantAnalysis& qa = fa.quadrant(Quadrant::NE);
  const auto pass = [&](Point p) { return qa.mccIndexAt(p) < 0; };
  PlanCache cache;
  cache.bind(qa);
  std::size_t drops = 0;
  std::size_t before = 0;
  for (NodeId bi = 0; bi < mesh.nodeCount(); ++bi) {
    const Point b = mesh.point(bi);
    for (int k = 0; k < 2; ++k) {
      const Point a = mesh.point(static_cast<NodeId>(
          rng.below(static_cast<std::uint64_t>(mesh.nodeCount()))));
      ASSERT_EQ(cache.reaches(a, b),
                MonotoneField(mesh, a, b, pass).targetReachable())
          << "a=" << a.str() << " b=" << b.str();
    }
    ASSERT_LE(cache.fieldBytes(), PlanCache::kMaxFieldBytes);
    if (cache.fieldBytes() < before) ++drops;
    before = cache.fieldBytes();
  }
  EXPECT_GE(drops, 3u);
}

TEST(PlannerTest, CachedDistanceMatchesBfs) {
  std::size_t finite = 0;
  std::size_t disconnected = 0;  // both endpoints passable, no safe path
  std::uint64_t seed = 57;
  for (const Mesh2D& mesh : planCacheMeshes()) {
    Rng rng(seed++);
    const FaultSet faults = injectUniform(
        mesh, static_cast<std::size_t>(mesh.nodeCount()) * 20 / 100, rng);
    const FaultAnalysis fa(faults);
    for (Quadrant quad : {Quadrant::NE, Quadrant::NW, Quadrant::SE,
                          Quadrant::SW}) {
      const QuadrantAnalysis& qa = fa.quadrant(quad);
      const Mesh2D& local = qa.localMesh();
      const auto pass = [&](Point p) { return qa.mccIndexAt(p) < 0; };
      // The planner's check reads the source-rooted field at d.
      std::vector<NodeMap<Distance>> fromSource;
      for (NodeId ui = 0; ui < local.nodeCount(); ++ui) {
        fromSource.push_back(bfsDistances(local, local.point(ui), pass));
      }
      PlanCache cache;
      cache.bind(qa);
      // Destination-major order reads each kept field C times; the
      // source-major pass switches destination on every call.
      for (const bool destinationMajor : {true, false}) {
        for (NodeId i = 0; i < local.nodeCount(); ++i) {
          for (NodeId j = 0; j < local.nodeCount(); ++j) {
            const NodeId ui = destinationMajor ? j : i;
            const NodeId di = destinationMajor ? i : j;
            const Point u = local.point(ui);
            const Point d = local.point(di);
            const Distance expected =
                pass(u) && pass(d)
                    ? fromSource[static_cast<std::size_t>(ui)][d]
                    : kUnreachable;
            if (destinationMajor && pass(u) && pass(d)) {
              ++(expected == kUnreachable ? disconnected : finite);
            }
            ASSERT_EQ(cache.distance(u, d), expected)
                << "u=" << u.str() << " d=" << d.str();
          }
        }
      }
    }
  }
  EXPECT_GT(finite, 0u);
  EXPECT_GT(disconnected, 0u);
}

TEST(PlannerTest, Rb2CacheRebindsAcrossFaultToggles) {
  // One Rb2Router held across fault toggles, as DynamicSweep and the NoC
  // hold theirs: its per-quadrant caches must follow every patch of the
  // analysis (same object, new labeler version), so after each toggle it
  // routes exactly like a router built fresh over the patched analysis.
  const Coord n = 20;
  const Mesh2D mesh = Mesh2D::square(n);
  Rng rng(2718);
  DynamicFaultModel model(injectUniform(mesh, 50, rng));
  Rb2Router held(model.analysis());
  const QuadrantAnalysis& ne = model.analysis().quadrant(Quadrant::NE);

  // A healthy cell whose 8-neighbourhood touches two MCCs: faulting it
  // merges them, and repairing it again splits them.
  auto bridgeCell = [&]() -> std::optional<Point> {
    for (int attempt = 0; attempt < 400; ++attempt) {
      const Point c = randomHealthy(model.faults(), rng);
      if (!ne.isSafeWorld(c)) continue;
      std::vector<int> ids;
      for (Coord dy = -1; dy <= 1; ++dy) {
        for (Coord dx = -1; dx <= 1; ++dx) {
          const Point q{c.x + dx, c.y + dy};
          if (!mesh.contains(q)) continue;
          const int id = ne.mccIndexAt(ne.frame().toLocal(q));
          if (id >= 0 && std::find(ids.begin(), ids.end(), id) == ids.end()) {
            ids.push_back(id);
          }
        }
      }
      if (ids.size() >= 2) return c;
    }
    return std::nullopt;
  };

  std::size_t merges = 0;
  std::size_t splits = 0;
  std::optional<Point> bridged;
  for (int round = 0; round < 36; ++round) {
    // Route before the toggle too, so every cache is bound to the
    // pre-toggle version when the patch lands. The last plans head for
    // `dest`, whose column is the first thing compiled after the toggle,
    // so the caches' first post-patch question is often about the target
    // they answered last before it.
    for (int k = 0; k < 8; ++k) {
      held.route(randomHealthy(model.faults(), rng),
                 randomHealthy(model.faults(), rng));
    }
    Point dest = randomHealthy(model.faults(), rng);
    compileRouteColumn(held, model.faults(), dest);
    const std::size_t before = ne.mccCount();
    bool added = false;
    if (bridged) {
      model.removeFault(*bridged);
      bridged.reset();
    } else if (round % 3 == 2) {
      const Point p = model.faults().toVector()[rng.below(
          model.faults().count())];
      model.removeFault(p);
    } else if (const auto c = bridgeCell()) {
      model.addFault(*c);
      bridged = c;
      added = true;
    } else {
      model.addFault(randomHealthy(model.faults(), rng));
      added = true;
    }
    const std::size_t after = ne.mccCount();
    if (added && after < before) ++merges;
    if (!added && after > before) ++splits;

    Rb2Router fresh(model.analysis());
    if (!model.faults().isHealthy(dest)) {
      dest = randomHealthy(model.faults(), rng);
    }
    const RouteColumn heldColumn =
        compileRouteColumn(held, model.faults(), dest);
    const RouteColumn freshColumn =
        compileRouteColumn(fresh, model.faults(), dest);
    for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
      ASSERT_EQ(heldColumn.next(id), freshColumn.next(id))
          << "round " << round << " node " << mesh.point(id).str();
    }
    for (int k = 0; k < 30; ++k) {
      const Point s = randomHealthy(model.faults(), rng);
      const Point d = randomHealthy(model.faults(), rng);
      const RouteResult a = held.route(s, d);
      const RouteResult b = fresh.route(s, d);
      ASSERT_EQ(a.delivered, b.delivered) << "round " << round;
      ASSERT_EQ(a.phases, b.phases) << "round " << round;
      ASSERT_EQ(a.path, b.path) << "round " << round;
    }
  }
  EXPECT_GT(merges, 0u);
  EXPECT_GT(splits, 0u);
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
