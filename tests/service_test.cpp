// Tests for the route-query service stack: compiled next-hop tables
// (route/route_table.h), epoch snapshots with refcount reclamation
// (common/epoch.h) and the concurrent RouteService (src/service/).
//
// The key contracts:
//  - table-served results are bit-identical to the hop-router reference
//    (iterated fresh first hops — the spec the table realizes) for EVERY
//    registry key, and bit-identical to the router's own paths for the
//    hop-consistent BFS oracle;
//  - batched serving is bitwise deterministic across thread counts;
//  - under live churn, every served path is valid against the epoch it
//    was served from, and events patch only the chase-affected entries;
//  - retired snapshots survive exactly until their last reader drains.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "fault/injectors.h"
#include "route/planner.h"
#include "route/rb2.h"
#include "route/route_table.h"
#include "route/validate.h"
#include "service/route_service.h"

namespace meshrt {
namespace {

// ---------------------------------------------------------------- helpers

/// The mathematical spec of per-hop table serving: at every node ask the
/// router afresh and take one hop. Table compile + chase must reproduce
/// this exactly (same statuses, hops and paths), bounded the same way.
ServedRoute hopReference(Router& router, const FaultSet& faults, Point s,
                         Point d) {
  ServedRoute out;
  out.path.push_back(s);
  if (faults.isFaulty(s) || faults.isFaulty(d)) {
    out.status = ServeStatus::EndpointFaulty;
    return out;
  }
  if (s == d) {
    out.status = ServeStatus::Delivered;
    return out;
  }
  Point u = s;
  const auto maxSteps = static_cast<std::size_t>(faults.mesh().nodeCount());
  for (std::size_t step = 0; step <= maxSteps; ++step) {
    if (u == d) {
      out.status = ServeStatus::Delivered;
      out.hops = static_cast<Distance>(step);
      return out;
    }
    const RouteResult res = router.route(u, d);
    if (!res.delivered || res.path.size() < 2) {
      out.status = ServeStatus::NoRoute;
      return out;
    }
    u = res.path[1];
    out.path.push_back(u);
  }
  out.status = ServeStatus::Diverged;
  return out;
}

std::vector<Query> randomBatch(const Mesh2D& mesh, std::size_t count,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(
        {{static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.width()))),
          static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.height())))},
         {static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.width()))),
          static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.height())))}});
  }
  return batch;
}

void expectSameRoute(const ServedRoute& a, const ServedRoute& b,
                     bool comparePaths = true) {
  ASSERT_EQ(a.status, b.status);
  if (a.delivered()) {
    EXPECT_EQ(a.hops, b.hops);
  }
  if (comparePaths) {
    EXPECT_EQ(a.path, b.path);
  }
}

/// Entry i of a SoA batch result against a ServedRoute reference.
void expectSameRoute(const BatchResult& r, std::size_t i,
                     const ServedRoute& b, bool comparePaths = true) {
  ASSERT_EQ(r.status[i], b.status);
  if (r.delivered(i)) {
    EXPECT_EQ(r.hops[i], static_cast<std::int32_t>(b.hops));
  }
  if (comparePaths) {
    ASSERT_LT(i, r.paths.size());
    EXPECT_EQ(r.paths[i], b.path);
  }
}

/// The longest terminating chase of `column` over every source, in
/// advances (a no-route chase counts the hops it took before stopping):
/// the brute-force value of hopBound().
std::size_t longestTerminatingChase(const PackedRouteColumn& column,
                                    const Mesh2D& mesh) {
  std::size_t longest = 0;
  for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
    const ServedRoute chase =
        chaseColumn(column, mesh, mesh.point(id),
                    static_cast<std::size_t>(mesh.nodeCount()), true);
    if (chase.status != ServeStatus::Diverged) {
      longest = std::max(longest, chase.path.size() - 1);
    }
  }
  return longest;
}

/// Whole-batch bitwise equality (the determinism contract).
void expectSameBatch(const BatchResult& a, const BatchResult& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.hops, b.hops);
  EXPECT_EQ(a.paths, b.paths);
}

// ------------------------------------------------- epoch reclamation box

TEST(SnapshotBoxTest, RetiredSnapshotSurvivesUntilLastReaderDrains) {
  struct Payload {
    explicit Payload(std::atomic<int>& gauge) : alive(&gauge) {
      alive->fetch_add(1);
    }
    ~Payload() { alive->fetch_sub(1); }
    std::atomic<int>* alive;
  };
  std::atomic<int> alive{0};
  SnapshotBox<Payload> box;
  box.publish(std::make_unique<const Payload>(alive));
  EXPECT_EQ(box.liveCount(), 1u);

  auto pinned = box.acquire();
  box.publish(std::make_unique<const Payload>(alive));
  box.publish(std::make_unique<const Payload>(alive));
  // The pinned first epoch plus the current one are alive; the middle
  // epoch had no readers and died on publish.
  EXPECT_EQ(alive.load(), 2);
  EXPECT_EQ(box.liveCount(), 2u);
  EXPECT_EQ(box.published(), 3u);

  pinned.reset();
  EXPECT_EQ(alive.load(), 1);
  EXPECT_EQ(box.liveCount(), 1u);
}

// ------------------------------------------------------------ route table

TEST(RouteTableTest, TableServedMatchesHopReferenceForEveryRegistryKey) {
  const Mesh2D mesh = Mesh2D::square(12);
  for (std::uint64_t cfgSeed : {1u, 2u}) {
    Rng rng = Rng::forStream(2024, cfgSeed);
    const FaultSet faults = injectUniform(mesh, 18, rng);
    const FaultAnalysis fa(faults);
    const RouterContext ctx{&faults, &fa};
    const auto batch = randomBatch(mesh, 90, 77 + cfgSeed);
    for (const auto& key : RouterRegistry::global().keys()) {
      SCOPED_TRACE(key + " cfg " + std::to_string(cfgSeed));
      const auto direct = RouterRegistry::global().create(key, ctx);
      TableizedRouter tableized(RouterRegistry::global().create(key, ctx),
                                faults);
      for (const Query& q : batch) {
        const ServedRoute ref = hopReference(*direct, faults, q.s, q.d);
        const ServedRoute served = tableized.serve(q.s, q.d);
        expectSameRoute(served, ref);
      }
    }
  }
}

/// Rb2Router::route's phase loop over the uncached planner, the path rb3
/// plans on: the reference the plan cache must reproduce byte for byte.
class UncachedRb2 final : public Router {
 public:
  UncachedRb2(const FaultAnalysis& analysis, bool exactFallback)
      : analysis_(&analysis), exactFallback_(exactFallback) {}

  std::string_view name() const override { return "RB2(uncached)"; }

  RouteResult route(Point s, Point d) override {
    RouteResult result;
    result.path.push_back(s);
    if (s == d) {
      result.delivered = true;
      return result;
    }
    const QuadrantAnalysis& qa = analysis_->forPair(s, d);
    const Frame& frame = qa.frame();
    const Point dL = frame.toLocal(d);
    Point u = frame.toLocal(s);
    if (!qa.labels().isSafe(u) || !qa.labels().isSafe(dL)) return result;
    DetourPlanner planner(qa, exactFallback_, nullptr);
    const std::size_t maxPhases = qa.mccs().size() * 4 + 8;
    std::vector<Point> leg;
    while (u != dL && result.phases < maxPhases) {
      const auto plan = planner.plan(u, dL, /*known=*/nullptr,
                                     PathOrder::Balanced, &leg);
      if (!plan || leg.empty()) break;
      for (std::size_t i = 1; i < leg.size(); ++i) {
        result.path.push_back(frame.toWorld(leg[i]));
      }
      u = plan->target;
      ++result.phases;
    }
    fallbacks_ += planner.fallbacksTaken();
    result.delivered = (u == dL);
    return result;
  }

  std::size_t fallbacksTaken() const { return fallbacks_; }

 private:
  const FaultAnalysis* analysis_;
  bool exactFallback_;
  std::size_t fallbacks_ = 0;
};

TEST(RouteTableTest, Rb2PlanCacheMatchesUncachedPlanner) {
  // rb2 and rb2-literal compile through per-quadrant plan caches; every
  // column byte and every routed path must equal the uncached planner's.
  struct Config {
    Coord size;
    int faultPct;
    bool dense;  // Eq. 3's clear-leg premise fails somewhere here
  };
  for (const Config cfg :
       {Config{12, 30, false}, Config{16, 5, false}, Config{20, 25, false},
        Config{24, 10, false}, Config{28, 30, true}, Config{32, 15, false},
        Config{32, 25, true}, Config{32, 30, true}}) {
    const Mesh2D mesh = Mesh2D::square(cfg.size);
    Rng rng = Rng::forStream(1507, static_cast<std::uint64_t>(cfg.size) * 100 +
                                       static_cast<std::uint64_t>(cfg.faultPct));
    const FaultSet faults = injectUniform(
        mesh,
        static_cast<std::size_t>(mesh.nodeCount() * cfg.faultPct / 100), rng);
    const FaultAnalysis fa(faults);
    for (const bool exactFallback : {true, false}) {
      SCOPED_TRACE(std::to_string(cfg.size) + "x" + std::to_string(cfg.size) +
                   " " + std::to_string(cfg.faultPct) + "% " +
                   (exactFallback ? "rb2" : "rb2-literal"));
      Rb2Router cached(fa, PathOrder::Balanced, exactFallback);
      UncachedRb2 reference(fa, exactFallback);
      for (int k = 0; k < 4; ++k) {
        const Point dest = randomHealthy(faults, rng);
        const RouteColumn got = compileRouteColumn(cached, faults, dest);
        const RouteColumn want = compileRouteColumn(reference, faults, dest);
        for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
          ASSERT_EQ(got.next(id), want.next(id))
              << "dest " << dest.str() << " node " << mesh.point(id).str();
        }
      }
      for (int k = 0; k < 60; ++k) {
        const Point s = randomHealthy(faults, rng);
        const Point d = randomHealthy(faults, rng);
        const RouteResult got = cached.route(s, d);
        const RouteResult want = reference.route(s, d);
        ASSERT_EQ(got.delivered, want.delivered) << s.str() << "->" << d.str();
        ASSERT_EQ(got.phases, want.phases) << s.str() << "->" << d.str();
        ASSERT_EQ(got.path, want.path) << s.str() << "->" << d.str();
      }
      // The exact fallback, and with it the source-rooted BFS its path is
      // read from, runs on the dense fields.
      if (exactFallback && cfg.dense) {
        EXPECT_GT(reference.fallbacksTaken(), 0u);
      }
    }
  }
}

TEST(RouteTableTest, Rb2FirstHopMatchesRouteFirstStep) {
  // Columns compile through firstHop. rb2 answers it with one plan, which
  // is exact because the exact fallback makes every later phase succeed;
  // rb2-literal has no such guarantee and routes in full. The configs are
  // Rb2PlanCacheMatchesUncachedPlanner's. The router also routes between
  // its first hops, to d and to other pairs, so its plans share caches and
  // scratch with route()'s.
  struct Config {
    Coord size;
    int faultPct;
  };
  std::size_t delivered = 0;
  std::size_t noRoute = 0;
  for (const Config cfg :
       {Config{12, 30}, Config{16, 5}, Config{20, 25}, Config{24, 10},
        Config{28, 30}, Config{32, 15}, Config{32, 25}, Config{32, 30}}) {
    const Mesh2D mesh = Mesh2D::square(cfg.size);
    Rng rng = Rng::forStream(1507, static_cast<std::uint64_t>(cfg.size) * 100 +
                                       static_cast<std::uint64_t>(cfg.faultPct));
    const FaultSet faults = injectUniform(
        mesh,
        static_cast<std::size_t>(mesh.nodeCount() * cfg.faultPct / 100), rng);
    const FaultAnalysis fa(faults);
    for (const bool exactFallback : {true, false}) {
      for (const PathOrder order : {PathOrder::Balanced, PathOrder::XFirst}) {
        SCOPED_TRACE(std::to_string(cfg.size) + "x" +
                     std::to_string(cfg.size) + " " +
                     std::to_string(cfg.faultPct) + "% " +
                     (exactFallback ? "rb2" : "rb2-literal") +
                     (order == PathOrder::XFirst ? " x-first" : ""));
        Rb2Router router(fa, order, exactFallback);
        Rb2Router reference(fa, order, exactFallback);
        Rng others = Rng::forStream(1507, 1);
        for (int k = 0; k < 2; ++k) {
          const Point d = randomHealthy(faults, rng);
          for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
            const Point s = mesh.point(id);
            if (s == d || faults.isFaulty(s)) continue;
            const RouteResult res = reference.route(s, d);
            if (id % 4 == 0) {
              ASSERT_EQ(router.route(s, d).path, res.path)
                  << s.str() << "->" << d.str();
              router.route(randomHealthy(faults, others),
                           randomHealthy(faults, others));
            }
            const std::optional<Point> hop = router.firstHop(s, d);
            ASSERT_EQ(hop.has_value(), res.delivered)
                << s.str() << "->" << d.str();
            if (res.delivered) {
              ++delivered;
              ASSERT_EQ(*hop, res.path[1]) << s.str() << "->" << d.str();
            } else {
              ++noRoute;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(noRoute, 0u);
}

TEST(RouteTableTest, BfsOracleTablePreservesExactRouterPaths) {
  // The BFS oracle is hop-consistent (route(u,d)'s tail IS route(next,d)),
  // so its table must reproduce the router's own paths bit for bit, not
  // just the hop-reference's.
  const Mesh2D mesh = Mesh2D::square(12);
  Rng rng(5);
  const FaultSet faults = injectUniform(mesh, 20, rng);
  const FaultAnalysis fa(faults);
  const RouterContext ctx{&faults, &fa};
  const auto direct = RouterRegistry::global().create("optimal", ctx);
  TableizedRouter tableized(RouterRegistry::global().create("optimal", ctx),
                            faults);
  for (const Query& q : randomBatch(mesh, 120, 9)) {
    if (faults.isFaulty(q.s) || faults.isFaulty(q.d)) continue;
    const RouteResult res = direct->route(q.s, q.d);
    const ServedRoute served = tableized.serve(q.s, q.d);
    ASSERT_EQ(served.delivered(), res.delivered);
    if (res.delivered) {
      EXPECT_EQ(served.path, res.path);
    }
  }
}

TEST(RouteTableTest, ChaseUpstreamFindsExactlyTheTrajectoriesThroughMask) {
  const Mesh2D mesh = Mesh2D::square(10);
  Rng rng(3);
  const FaultSet faults = injectUniform(mesh, 12, rng);
  const FaultAnalysis fa(faults);
  const RouterContext ctx{&faults, &fa};
  const auto router = RouterRegistry::global().create("rb2", ctx);
  const Point dest{8, 8};
  ASSERT_TRUE(faults.isHealthy(dest));
  const RouteColumn column = compileRouteColumn(*router, faults, dest);

  const Point target{4, 4};
  const auto upstream =
      chaseUpstream(column, mesh, std::vector<NodeId>{mesh.id(target)});

  // Oracle: chase every source and check whether the trajectory (the
  // chase path, including the start) touches the target.
  for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
    const Point s = mesh.point(id);
    const ServedRoute chase = chaseColumn(
        column, mesh, s, static_cast<std::size_t>(mesh.nodeCount()), true);
    bool touches = false;
    for (Point p : chase.path) touches |= (p == target);
    const bool listed =
        std::find(upstream.begin(), upstream.end(), id) != upstream.end();
    EXPECT_EQ(listed, touches) << "node " << s.str();
  }
}

// ---------------------------------------------------------- route service

TEST(ServiceTest, BatchedServeMatchesTableizedRouterForEveryKey) {
  const Mesh2D mesh = Mesh2D::square(12);
  Rng rng(11);
  const FaultSet faults = injectUniform(mesh, 20, rng);
  const FaultAnalysis fa(faults);
  const RouterContext ctx{&faults, &fa};
  const auto batch = randomBatch(mesh, 80, 13);
  std::vector<Query> queries = batch;
  for (const auto& key : RouterRegistry::global().keys()) {
    SCOPED_TRACE(key);
    ServiceConfig cfg;
    cfg.routerKey = key;
    cfg.threads = 2;
    RouteService service(faults, cfg);
    TableizedRouter tableized(RouterRegistry::global().create(key, ctx),
                              faults);
    const BatchResult result = service.serve(queries, /*wantPaths=*/true);
    EXPECT_EQ(result.epoch, 0u);
    ASSERT_EQ(result.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      expectSameRoute(result, i,
                      tableized.serve(queries[i].s, queries[i].d));
    }
  }
}

TEST(ServiceTest, BatchedServeBitwiseIdenticalAcrossThreadCounts) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(21);
  const FaultSet faults = injectUniform(mesh, 80, rng);
  // 300 queries chase on the calling thread; the larger batch spans
  // several slices, so its chases fan out over the pool.
  for (const std::size_t count : {std::size_t{300},
                                  2 * RouteService::kChunk + 17}) {
    SCOPED_TRACE(count);
    const auto queries = randomBatch(mesh, count, 31);
    std::vector<BatchResult> results;
    for (std::size_t threads : {1u, 4u}) {
      ServiceConfig cfg;
      cfg.threads = threads;
      RouteService service(faults, cfg);
      results.push_back(service.serve(queries, /*wantPaths=*/true));
    }
    expectSameBatch(results[0], results[1]);
  }
}

/// The first `r.size()` entries of `ref`, bit for bit (paths too when
/// `r` carries them).
void expectPrefixOf(const BatchResult& r, const BatchResult& ref) {
  ASSERT_LE(r.size(), ref.size());
  EXPECT_EQ(r.epoch, ref.epoch);
  for (std::size_t i = 0; i < r.size(); ++i) {
    ASSERT_EQ(r.status[i], ref.status[i]) << "query " << i;
    ASSERT_EQ(r.hops[i], ref.hops[i]) << "query " << i;
    if (!r.paths.empty()) {
      ASSERT_EQ(r.paths[i], ref.paths[i]) << "query " << i;
    }
  }
}

/// Serves every query of `queries` as its own one-query batch.
BatchResult serveEachAlone(RouteService& service,
                           const std::vector<Query>& queries,
                           bool wantPaths) {
  BatchResult out;
  for (const Query& q : queries) {
    BatchResult one = service.serve({q}, wantPaths);
    out.epoch = one.epoch;
    out.status.push_back(one.status[0]);
    out.hops.push_back(one.hops[0]);
    if (wantPaths) out.paths.push_back(std::move(one.paths[0]));
  }
  return out;
}

TEST(ServiceTest, OneServePathMatchesSingleQueryServes) {
  // serve() has one pipeline for every batch size: a batch whose
  // chaseable queries fit one RouteService::kChunk slice chases on the
  // calling thread, a larger one fans its slices out over the pool.
  // Batches on both sides of the slice boundaries, in both modes and at
  // 1 and 4 threads, must answer every query exactly as serving it alone
  // does. Faulty endpoints and s == d ride along; more than half of the
  // chaseable queries share one hot destination, so in the largest batch
  // that group spans more than a slice.
  const Mesh2D mesh = Mesh2D::square(32);
  Rng rng(97);
  const FaultSet faults = injectUniform(mesh, 102, rng);
  std::vector<Point> faulty;
  for (Coord y = 0; y < mesh.height(); ++y) {
    for (Coord x = 0; x < mesh.width(); ++x) {
      if (faults.isFaulty({x, y})) faulty.push_back({x, y});
    }
  }
  const auto randomPoint = [&](Rng& r) {
    return Point{static_cast<Coord>(r.below(32)),
                 static_cast<Coord>(r.below(32))};
  };
  std::vector<Point> dests;
  while (dests.size() < 64) {
    const Point p = randomPoint(rng);
    if (faults.isHealthy(p) &&
        std::find(dests.begin(), dests.end(), p) == dests.end()) {
      dests.push_back(p);
    }
  }

  // Batch sizes count chaseable queries (the slice boundary is drawn
  // over those); each batch is the shortest prefix of `queries` holding
  // that many, specials included.
  const std::size_t chunk = RouteService::kChunk;
  const std::vector<std::size_t> sizes = {1,     2,         8,
                                          9,     16,        chunk,
                                          chunk + 1, 2 * chunk + 17};
  std::vector<Query> queries;
  std::vector<bool> chaseable;
  std::vector<std::size_t> prefixEnd;  // prefixEnd[n]: end of n chaseable
  prefixEnd.push_back(0);
  while (prefixEnd.size() <= sizes.back()) {
    const Point s = randomPoint(rng);  // faulty about 10% of the time
    const std::uint64_t pick = rng.below(20);
    Point d = s;
    if (pick == 1) {
      d = faulty[rng.below(faulty.size())];
    } else if (pick >= 2) {
      d = pick < 12 ? dests[0] : dests[rng.below(dests.size())];
    }
    queries.push_back({s, d});
    chaseable.push_back(faults.isHealthy(s) && faults.isHealthy(d) &&
                        s != d);
    if (chaseable.back()) prefixEnd.push_back(queries.size());
  }
  const auto prefix = [&](std::size_t n) {
    return std::vector<Query>(
        queries.begin(),
        queries.begin() + static_cast<std::ptrdiff_t>(prefixEnd[n]));
  };

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    MetricsRegistry registry;
    ServiceConfig cfg;
    cfg.threads = threads;
    cfg.telemetry.registry = &registry;
    RouteService service(faults, cfg);
    const auto poolJobs = [&] {
      return *registry.snapshot().counter("pool.jobs_executed");
    };
    // The references compile every column, so the pool-job counts below
    // measure chases only.
    const BatchResult alone[2] = {
        serveEachAlone(service, prefix(sizes.back()), false),
        serveEachAlone(service, prefix(sizes.back()), true)};
    EXPECT_EQ(alone[0].status, alone[1].status);
    EXPECT_EQ(alone[0].hops, alone[1].hops);

    const auto serveAll = [&] {
      for (const std::size_t n : sizes) {
        for (const bool wantPaths : {false, true}) {
          SCOPED_TRACE("batch " + std::to_string(n) +
                       (wantPaths ? " with paths" : " status only"));
          const std::uint64_t jobsBefore = poolJobs();
          const BatchResult r = service.serve(prefix(n), wantPaths);
          ASSERT_EQ(r.size(), prefixEnd[n]);
          expectPrefixOf(r, alone[wantPaths ? 1 : 0]);
          if (n <= chunk) {
            EXPECT_EQ(poolJobs(), jobsBefore);  // ran on this thread
          } else {
            EXPECT_GT(poolJobs(), jobsBefore);  // slices on the pool
          }
        }
      }
    };
    serveAll();

    // An expired deadline retires every chaseable query as Deadline and
    // keeps the classified verdicts; serves after it on the same thread
    // answer exactly as before.
    for (const std::size_t n : {std::size_t{16}, sizes.back()}) {
      for (const bool wantPaths : {false, true}) {
        const BatchResult r =
            service.serve(prefix(n), wantPaths, /*deadlineNs=*/1);
        const BatchResult& ref = alone[wantPaths ? 1 : 0];
        for (std::size_t i = 0; i < r.size(); ++i) {
          if (chaseable[i]) {
            ASSERT_EQ(r.status[i], ServeStatus::Deadline) << "query " << i;
          } else {
            ASSERT_EQ(r.status[i], ref.status[i]) << "query " << i;
            if (wantPaths) {
              ASSERT_EQ(r.paths[i], ref.paths[i]) << "query " << i;
            }
          }
        }
      }
    }
    serveAll();
  }
}

TEST(ServiceTest, EventsPatchOnlyChaseAffectedEntriesAndStayValid) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(41);
  const FaultSet faults = injectUniform(mesh, 40, rng);
  // Sixteen destinations keep the per-event bound oracle below cheap.
  auto queries = randomBatch(mesh, 200, 43);
  for (std::size_t i = 16; i < queries.size(); ++i) {
    queries[i].d = queries[i % 16].d;
  }
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ServiceConfig cfg;
    cfg.threads = threads;
    RouteService service(faults, cfg);
    service.serve(queries);
    const auto before = service.counters();
    const std::size_t compiledBefore =
        service.snapshot()->residentColumnCount();
    ASSERT_GT(compiledBefore, 0u);

    // One added fault: every column is patched or dropped, and the patch
    // work is entries, not whole columns.
    Point toggle{12, 12};
    while (service.snapshot()->faults().isFaulty(toggle)) toggle.x += 1;
    const std::uint64_t epoch = service.applyAddFault(toggle);
    EXPECT_EQ(epoch, 1u);
    const auto after = service.counters();
    EXPECT_EQ(after.columnsCompiled, before.columnsCompiled);
    EXPECT_EQ(after.columnsPatched + after.columnsDropped -
                  (before.columnsPatched + before.columnsDropped),
              compiledBefore);
    const std::uint64_t patchedEntries =
        after.entriesPatched - before.entriesPatched;
    const std::uint64_t patchedColumns =
        after.columnsPatched - before.columnsPatched;
    EXPECT_GT(patchedColumns, 0u);
    // The whole point: far fewer recomputed entries than a full recompile
    // of the patched columns would cost.
    EXPECT_LT(patchedEntries,
              patchedColumns * static_cast<std::uint64_t>(mesh.nodeCount()));

    // Served paths remain valid against the new epoch without recompiling.
    const BatchResult result = service.serve(queries, /*wantPaths=*/true);
    EXPECT_EQ(result.epoch, 1u);
    const auto snap = service.snapshot();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (!result.delivered(i)) continue;
      EXPECT_TRUE(isValidPath(snap->faults(), queries[i].s, queries[i].d,
                              result.paths[i]));
    }

    // Churn beside existing faults, so adds merge MCCs and repairs split
    // them. After every event each resident column's hop bound is exact:
    // the lockstep-vs-path comparisons elsewhere catch a bound that is too
    // small, but not one that is too large.
    Rng churn(47);
    int merges = 0;
    int splits = 0;
    for (int t = 0; t < 32; ++t) {
      SCOPED_TRACE("toggle " + std::to_string(t));
      const auto current = service.snapshot();
      const std::vector<Point> faulty = current->faults().toVector();
      Point p{-1, -1};
      while (!mesh.contains(p)) {
        const Point f = faulty[churn.below(faulty.size())];
        p = {f.x + static_cast<Coord>(churn.below(3)) - 1,
             f.y + static_cast<Coord>(churn.below(3)) - 1};
      }
      const std::size_t mccsBefore =
          current->analysis().quadrant(Quadrant::NE).mccCount();
      const bool add = current->faults().isHealthy(p);
      if (add) {
        service.applyAddFault(p);
      } else {
        service.applyRemoveFault(p);
      }
      const auto next = service.snapshot();
      const std::size_t mccsAfter =
          next->analysis().quadrant(Quadrant::NE).mccCount();
      merges += add && mccsAfter < mccsBefore;
      splits += !add && mccsAfter > mccsBefore;
      for (const NodeId id : next->presentColumns()) {
        const auto column = next->column(id);
        ASSERT_NE(column, nullptr);
        EXPECT_EQ(column->hopBound(), longestTerminatingChase(*column, mesh))
            << "destination " << mesh.point(id).str();
      }
    }
    EXPECT_GT(merges, 0);
    EXPECT_GT(splits, 0);
  }
}

TEST(ServiceTest, RepairedDestinationGetsAFreshColumn) {
  const Mesh2D mesh = Mesh2D::square(12);
  FaultSet faults(mesh);
  const Point dead{6, 6};
  faults.add(dead);
  ServiceConfig cfg;
  cfg.threads = 1;
  RouteService service(faults, cfg);
  const std::vector<Query> toDead{{{1, 1}, dead}};
  BatchResult r = service.serve(toDead, true);
  EXPECT_EQ(r.status[0], ServeStatus::EndpointFaulty);

  service.applyRemoveFault(dead);
  r = service.serve(toDead, true);
  EXPECT_EQ(r.status[0], ServeStatus::Delivered);
  EXPECT_EQ(r.hops[0], manhattan(Point{1, 1}, dead));
  EXPECT_TRUE(isValidPath(service.snapshot()->faults(), {1, 1}, dead,
                          r.paths[0]));
}

TEST(ServiceTest, SnapshotConsistencyUnderConcurrentChurn) {
  // Reader threads serve batches while a writer applies add/remove
  // events. Every delivered path must be valid against the fault set of
  // the exact epoch it was served from — published epochs are recorded by
  // the writer and checked after the threads join.
  const Mesh2D mesh = Mesh2D::square(16);
  Rng rng(71);
  const FaultSet initial = injectUniform(mesh, 30, rng);
  ServiceConfig cfg;
  cfg.threads = 2;
  RouteService service(initial, cfg);

  std::map<std::uint64_t, FaultSet> published;
  published.emplace(0, service.snapshot()->faults());

  struct Observation {
    Query query;
    std::uint64_t epoch;
    ServeStatus status;
    std::vector<Point> path;
  };
  std::vector<std::vector<Observation>> observed(3);
  std::atomic<bool> readersDone{false};

  // The writer churns for as long as the readers serve, so batches land
  // on many different epochs. Epoch fault sets are recorded writer-side;
  // observations are validated after the join, when the record is
  // complete.
  std::thread writer([&] {
    Rng churnRng(73);
    while (!readersDone.load()) {
      const Point p{static_cast<Coord>(churnRng.below(16)),
                    static_cast<Coord>(churnRng.below(16))};
      const std::uint64_t epoch = churnRng.chance(0.4)
                                      ? service.applyRemoveFault(p)
                                      : service.applyAddFault(p);
      if (!published.contains(epoch)) {
        published.emplace(epoch, service.snapshot()->faults());
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < observed.size(); ++t) {
    readers.emplace_back([&, t] {
      const auto queries = randomBatch(mesh, 60, 100 + t);
      for (int round = 0; round < 10; ++round) {
        const BatchResult result =
            service.serve(queries, /*wantPaths=*/true);
        for (std::size_t i = 0; i < queries.size(); ++i) {
          observed[t].push_back({queries[i], result.epoch,
                                 result.status[i], result.paths[i]});
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  readersDone.store(true);
  writer.join();

  std::size_t validated = 0;
  for (const auto& perThread : observed) {
    for (const Observation& ob : perThread) {
      const auto it = published.find(ob.epoch);
      ASSERT_NE(it, published.end()) << "unpublished epoch " << ob.epoch;
      if (ob.status == ServeStatus::Delivered) {
        EXPECT_TRUE(
            isValidPath(it->second, ob.query.s, ob.query.d, ob.path))
            << "epoch " << ob.epoch;
        ++validated;
      }
    }
  }
  EXPECT_GT(validated, 0u);
  // Single-digit live snapshots at rest: readers drained, retired epochs
  // reclaimed.
  EXPECT_EQ(service.liveSnapshots(), 1u);
}

// ------------------------------------------- per-group exception scoping

TEST(ServiceTest, ThrowingWriterCannotPoisonReaders) {
  // Regression for the per-group exception contract: the writer's patch
  // jobs throw ("service.compile.fail" fires in every job while armed),
  // which must surface ONLY on the writer's applyAddFault — concurrently
  // serving readers share the same pool and must neither throw nor
  // stall. Under the pre-TaskGroup global-barrier pool, the writer's
  // exception could be rethrown from a reader's wait() instead.
  const Mesh2D mesh = Mesh2D::square(16);
  Rng rng(91);
  const FaultSet initial = injectUniform(mesh, 24, rng);
  ServiceConfig cfg;
  cfg.routerKey = "rb2";
  cfg.threads = 2;
  RouteService service(initial, cfg);

  // Compile the batch's columns while disarmed; armed readers then serve
  // pure table chases (no compile job on their path).
  const auto queries = randomBatch(mesh, 120, 93);
  const BatchResult reference = service.serve(queries, /*wantPaths=*/true);

  constexpr std::uint64_t kBatches = 10;  // 2 readers x 5 serves
  std::atomic<std::uint64_t> readerErrors{0};
  std::atomic<std::uint64_t> batchesServed{0};
  std::uint64_t writerFailures = 0;
  std::uint64_t writerAttempts = 0;
  std::vector<Point> toggled;
  {
    FailpointArmScope armed;
    FailpointRegistry::global().point("service.compile.fail").arm({});
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
      readers.emplace_back([&] {
        for (int round = 0; round < 5; ++round) {
          try {
            const BatchResult result =
                service.serve(queries, /*wantPaths=*/true);
            // The failed events never publish, so every batch must be
            // served from epoch 0 with the reference results.
            if (result.epoch != 0 || result.size() != reference.size()) {
              readerErrors.fetch_add(1);
            }
            batchesServed.fetch_add(1);
          } catch (...) {
            readerErrors.fetch_add(1);
          }
        }
      });
    }
    // The writer throws for as long as the readers serve (capped by the
    // supply of fresh points): the failing waits overlap the reader
    // waits on the shared pool. The writer-side model runs ahead of the
    // never-published epoch 0 after each failed event, so avoid
    // re-toggling an already-added point — that would be a no-op instead
    // of a throwing patch attempt.
    Rng toggleRng(97);
    do {
      Point p = randomHealthy(service.snapshot()->faults(), toggleRng);
      while (std::find(toggled.begin(), toggled.end(), p) != toggled.end()) {
        p = randomHealthy(service.snapshot()->faults(), toggleRng);
      }
      toggled.push_back(p);
      ++writerAttempts;
      try {
        service.applyAddFault(p);
      } catch (const FailpointError&) {
        ++writerFailures;
      }
      std::this_thread::yield();
    } while (batchesServed.load() < kBatches && writerAttempts < 150);
    for (auto& r : readers) r.join();
  }

  // Every armed event runs migration jobs over the live epoch-0 columns,
  // so every attempt must have failed …
  EXPECT_GE(writerAttempts, 1u);
  EXPECT_EQ(writerFailures, writerAttempts);
  EXPECT_EQ(service.epoch(), 0u);
  // … while the readers kept serving, error-free.
  EXPECT_EQ(readerErrors.load(), 0u);
  EXPECT_EQ(batchesServed.load(), kBatches);

  // Disarmed, the writer works again and serving reflects the new epoch
  // (built against the union of every failed event's footprint).
  Rng toggleRng(99);
  Point p = randomHealthy(service.snapshot()->faults(), toggleRng);
  while (std::find(toggled.begin(), toggled.end(), p) != toggled.end()) {
    p = randomHealthy(service.snapshot()->faults(), toggleRng);
  }
  EXPECT_EQ(service.applyAddFault(p), 1u);
  const BatchResult after = service.serve(queries, /*wantPaths=*/true);
  EXPECT_EQ(after.epoch, 1u);
  const auto snap = service.snapshot();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!after.delivered(i)) continue;
    EXPECT_TRUE(isValidPath(snap->faults(), queries[i].s, queries[i].d,
                            after.paths[i]));
  }
}

TEST(ServiceTest, ServeCompileFailureStaysWithItsCaller) {
  // A compile job that throws inside a serve fails that serve alone: a
  // concurrent reader of resident columns keeps its answers, every
  // column the serve's other jobs installed is whole, and the next serve
  // answers as if nothing had failed.
  FailpointArmScope scope;
  const Mesh2D mesh = Mesh2D::square(32);
  Rng rng(131);
  const FaultSet faults = injectUniform(mesh, 102, rng);
  ServiceConfig cfg;
  cfg.routerKey = "rb2";
  cfg.threads = 2;
  RouteService service(faults, cfg);

  // 16 destinations with 24 queries each; the first half compile up
  // front, so the full batch must compile the other half.
  Rng destRng(137);
  std::vector<Point> dests;
  while (dests.size() < 16) {
    const Point d = randomHealthy(faults, destRng);
    if (std::find(dests.begin(), dests.end(), d) == dests.end()) {
      dests.push_back(d);
    }
  }
  Rng srcRng(139);
  std::vector<Query> batch;
  std::vector<Query> resident;
  for (std::size_t k = 0; k < dests.size(); ++k) {
    for (int i = 0; i < 24; ++i) {
      const Query q{randomHealthy(faults, srcRng), dests[k]};
      batch.push_back(q);
      if (k < dests.size() / 2) resident.push_back(q);
    }
  }
  RouteService unarmed(faults, cfg);
  const BatchResult reference = unarmed.serve(batch, /*wantPaths=*/true);
  const BatchResult residentReference =
      unarmed.serve(resident, /*wantPaths=*/true);
  service.serve(resident);
  ASSERT_EQ(service.snapshot()->residentColumnCount(), dests.size() / 2);

  Failpoint& fp = FailpointRegistry::global().point("service.compile.fail");
  const std::uint64_t firedBefore = fp.fireCount();
  FailpointSpec once;
  once.maxFires = 1;
  fp.arm(once);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> readerBatches{0};
  std::atomic<std::uint64_t> readerErrors{0};
  std::thread reader([&] {
    do {
      try {
        const BatchResult r = service.serve(resident, /*wantPaths=*/true);
        if (r.epoch != 0 || r.status != residentReference.status ||
            r.hops != residentReference.hops ||
            r.paths != residentReference.paths) {
          readerErrors.fetch_add(1);
        }
      } catch (...) {
        readerErrors.fetch_add(1);
      }
      readerBatches.fetch_add(1);
    } while (!done.load());
  });
  while (readerBatches.load() == 0) std::this_thread::yield();
  EXPECT_THROW(service.serve(batch, /*wantPaths=*/true), FailpointError);
  done.store(true);
  reader.join();
  EXPECT_EQ(fp.fireCount() - firedBefore, 1u);
  EXPECT_EQ(readerErrors.load(), 0u);

  // The failed job compiled nothing; every column the other jobs
  // installed equals a fresh compile.
  {
    const auto snap = service.snapshot();
    const std::vector<NodeId> present = snap->presentColumns();
    EXPECT_GE(present.size(), dests.size() / 2);
    EXPECT_LT(present.size(), dests.size());
    const auto router =
        RouterRegistry::global().create("rb2", snap->context());
    for (const NodeId id : present) {
      SCOPED_TRACE("destination " + mesh.point(id).str());
      const auto column = snap->column(id);
      ASSERT_NE(column, nullptr);
      const PackedRouteColumn fresh =
          compilePackedRouteColumn(*router, snap->faults(), mesh.point(id));
      EXPECT_EQ(column->hopBound(), fresh.hopBound());
      for (NodeId u = 0; u < mesh.nodeCount(); ++u) {
        ASSERT_EQ(column->nibble(u), fresh.nibble(u)) << "node " << u;
      }
    }
  }

  // The failpoint is spent: the next serve compiles the rest and answers
  // exactly as the unarmed service did.
  expectSameBatch(service.serve(batch, /*wantPaths=*/true), reference);
  EXPECT_EQ(service.snapshot()->residentColumnCount(), dests.size());
}

TEST(ServiceTest, ConcurrentIdenticalBatchesMatchSerialReference) {
  // Four reader threads serve the same batch concurrently on a shared
  // pool (racing the lazy column compiles, first install wins); each
  // result must equal the single-threaded reference bit for bit. This is
  // the overlapping-batches stress for the TaskGroup serve path (runs
  // under TSan in CI).
  // The 150-query batch chases on each reader's own thread; the larger
  // one spans several slices, so the readers' chases overlap on the pool.
  const Mesh2D mesh = Mesh2D::square(20);
  Rng rng(81);
  const FaultSet faults = injectUniform(mesh, 48, rng);
  for (const std::size_t count : {std::size_t{150},
                                  2 * RouteService::kChunk + 17}) {
    SCOPED_TRACE(count);
    const auto queries = randomBatch(mesh, count, 83);

    BatchResult reference;
    {
      ServiceConfig cfg;
      cfg.threads = 1;
      RouteService serial(faults, cfg);
      reference = serial.serve(queries, /*wantPaths=*/true);
    }

    ServiceConfig cfg;
    cfg.threads = 2;
    RouteService service(faults, cfg);
    std::vector<BatchResult> results(4);
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < results.size(); ++t) {
      readers.emplace_back([&, t] {
        for (int round = 0; round < 3; ++round) {
          results[t] = service.serve(queries, /*wantPaths=*/true);
        }
      });
    }
    for (auto& r : readers) r.join();
    for (const BatchResult& result : results) {
      expectSameBatch(result, reference);
    }
  }
}

TEST(ServiceTest, RejectsTableKeysAndUnknownKeys) {
  const Mesh2D mesh = Mesh2D::square(6);
  const FaultSet faults(mesh);
  ServiceConfig unknown;
  unknown.routerKey = "nope";
  EXPECT_THROW(RouteService(faults, unknown), std::invalid_argument);
  ServiceConfig nested;
  nested.routerKey = "table:rb2";
  EXPECT_THROW(RouteService(faults, nested), std::invalid_argument);
}

}  // namespace
}  // namespace meshrt
