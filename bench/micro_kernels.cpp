// Google-benchmark microbenchmarks for the library's hot kernels: labeling,
// MCC extraction, knowledge construction, planning and BFS.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <unordered_map>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "fault/analysis.h"
#include "fault/incremental.h"
#include "fault/injectors.h"
#include "info/knowledge.h"
#include "route/batch_chase.h"
#include "route/bfs.h"
#include "route/packed_column.h"
#include "route/planner.h"
#include "route/rb2.h"
#include "route/route_table.h"
#include "service/route_service.h"

namespace {

using namespace meshrt;

FaultSet makeFaults(Coord size, std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  return injectUniform(Mesh2D::square(size), count, rng);
}

void BM_Labeling(benchmark::State& state) {
  const auto size = static_cast<Coord>(state.range(0));
  const auto faults = makeFaults(
      size, static_cast<std::size_t>(size) * static_cast<std::size_t>(size) /
                10,
      42);
  const Mesh2D mesh = Mesh2D::square(size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(computeLabels(mesh, faults));
  }
  state.SetItemsProcessed(state.iterations() * mesh.nodeCount());
}
BENCHMARK(BM_Labeling)->Arg(50)->Arg(100)->Arg(200);

void BM_MccExtraction(benchmark::State& state) {
  const auto size = static_cast<Coord>(state.range(0));
  const auto faults = makeFaults(
      size, static_cast<std::size_t>(size) * static_cast<std::size_t>(size) /
                10,
      42);
  const Mesh2D mesh = Mesh2D::square(size);
  const auto labels = computeLabels(mesh, faults);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractMccs(mesh, labels));
  }
}
BENCHMARK(BM_MccExtraction)->Arg(50)->Arg(100)->Arg(200);

void BM_QuadrantAnalysis(benchmark::State& state) {
  const auto faults = makeFaults(100, 1000, 42);
  for (auto _ : state) {
    const QuadrantAnalysis qa(faults, Quadrant::NE);
    benchmark::DoNotOptimize(qa.mccs().size());
  }
}
BENCHMARK(BM_QuadrantAnalysis);

void BM_KnowledgeBuild(benchmark::State& state) {
  const auto faults = makeFaults(100, 1000, 42);
  const QuadrantAnalysis qa(faults, Quadrant::NE);
  const auto model = static_cast<InfoModel>(state.range(0));
  for (auto _ : state) {
    const QuadrantInfo info(qa, model);
    benchmark::DoNotOptimize(info.involvedCount());
  }
  state.SetLabel(std::string(infoModelName(model)));
}
BENCHMARK(BM_KnowledgeBuild)->Arg(0)->Arg(1)->Arg(2);

void BM_PlannerBlocked(benchmark::State& state) {
  // A wall forces the planner through the full chain/Eq.2 machinery.
  const Mesh2D mesh = Mesh2D::square(100);
  FaultSet faults(mesh);
  for (Coord x = 10; x <= 90; ++x) faults.add({x, 50});
  const QuadrantAnalysis qa(faults, Quadrant::NE);
  DetourPlanner planner(qa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan({50, 20}, {50, 80}, nullptr));
  }
}
BENCHMARK(BM_PlannerBlocked);

void BM_Rb2Route(benchmark::State& state) {
  const auto faults = makeFaults(100, static_cast<std::size_t>(
                                          state.range(0)),
                                 42);
  const FaultAnalysis fa(faults);
  Rb2Router rb2(fa);
  Rng rng(7);
  for (auto _ : state) {
    const Point s{static_cast<Coord>(rng.below(100)),
                  static_cast<Coord>(rng.below(100))};
    const Point d{static_cast<Coord>(rng.below(100)),
                  static_cast<Coord>(rng.below(100))};
    if (faults.isFaulty(s) || faults.isFaulty(d)) continue;
    benchmark::DoNotOptimize(rb2.route(s, d));
  }
}
BENCHMARK(BM_Rb2Route)->Arg(500)->Arg(1500)->Arg(2500);

// One rb2 column compile (one firstHop plan per entry) on openbench
// read_static's layout: a 32x32 mesh with 102 uniform faults and its 64
// pooled destinations, compiled in turn by one router, as a service
// worker holds one. Time is per column.
void BM_CompileRb2Column(benchmark::State& state) {
  const Mesh2D mesh = Mesh2D::square(32);
  Rng faultRng = Rng::forStream(2007, 1);
  const FaultSet faults = injectUniform(mesh, 102, faultRng);
  Rng destRng = Rng::forStream(2007, 2);
  std::vector<Point> dests;
  while (dests.size() < 64) {
    const Point d = randomHealthy(faults, destRng);
    if (std::find(dests.begin(), dests.end(), d) == dests.end()) {
      dests.push_back(d);
    }
  }
  const FaultAnalysis fa(faults);
  Rb2Router rb2(fa);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compilePackedRouteColumn(rb2, faults, dests[k++ % dests.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompileRb2Column);

// --- incremental vs full relabeling under a single-fault delta ----------
//
// The dynamic-fault scenarios toggle one fault at a time; the incremental
// path must beat rebuilding labels + MCCs from scratch by a wide margin
// (the wavefront is local, the rebuild is O(mesh)). Same toggle in both
// benchmarks so the numbers compare directly.

void BM_IncrementalFaultDelta(benchmark::State& state) {
  const auto size = static_cast<Coord>(state.range(0));
  const auto faults = makeFaults(
      size,
      static_cast<std::size_t>(size) * static_cast<std::size_t>(size) / 10,
      42);
  const Mesh2D mesh = Mesh2D::square(size);
  IncrementalLabeler labeler(mesh, faults);
  Point toggle{size / 2, size / 2};
  while (faults.isFaulty(toggle)) toggle.x += 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(labeler.addFault(toggle));
    benchmark::DoNotOptimize(labeler.removeFault(toggle));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_IncrementalFaultDelta)->Arg(64)->Arg(100)->Arg(200);

void BM_FullRelabelFaultDelta(benchmark::State& state) {
  const auto size = static_cast<Coord>(state.range(0));
  FaultSet faults = makeFaults(
      size,
      static_cast<std::size_t>(size) * static_cast<std::size_t>(size) / 10,
      42);
  const Mesh2D mesh = Mesh2D::square(size);
  Point toggle{size / 2, size / 2};
  while (faults.isFaulty(toggle)) toggle.x += 1;
  for (auto _ : state) {
    faults.add(toggle);
    const auto labels = computeLabels(mesh, faults);
    benchmark::DoNotOptimize(extractMccs(mesh, labels));
    faults.remove(toggle);
    const auto labels2 = computeLabels(mesh, faults);
    benchmark::DoNotOptimize(extractMccs(mesh, labels2));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_FullRelabelFaultDelta)->Arg(64)->Arg(100)->Arg(200);

void BM_KnowledgeRefreshDelta(benchmark::State& state) {
  // One fault toggle through the versioned knowledge path (B3): sync cost
  // of the delta-driven refresh, to compare with BM_KnowledgeBuild.
  const Mesh2D mesh = Mesh2D::square(64);
  DynamicFaultModel model(mesh);
  {
    Rng rng(42);
    const FaultSet seed = injectUniform(mesh, 64 * 64 / 10, rng);
    for (Point p : seed.toVector()) model.addFault(p);
  }
  const QuadrantAnalysis& qa = model.analysis().quadrant(Quadrant::NE);
  QuadrantInfo info(qa, InfoModel::B3);
  Point toggle{32, 32};
  while (model.faults().isFaulty(toggle)) toggle.x += 1;
  for (auto _ : state) {
    model.addFault(toggle);
    info.sync();
    model.removeFault(toggle);
    info.sync();
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_KnowledgeRefreshDelta);

// --- service table maintenance: delta patch vs full recompile -----------
//
// One fault toggle against a route service holding compiled next-hop
// columns. The delta path (what applyAdd/RemoveFault does) patches only
// the chase-affected entries of each column; the full path recompiles
// every column from scratch. Same toggle and column set in both so the
// numbers compare directly — this is the micro-proof that churn touches
// only invalidated table state (DESIGN.md section 7.2).

namespace {
constexpr Coord kServiceMesh = 32;
constexpr std::size_t kServiceColumns = 16;

std::vector<Point> serviceDests(const FaultSet& faults) {
  std::vector<Point> dests;
  Rng rng(17);
  while (dests.size() < kServiceColumns) {
    const Point p{static_cast<Coord>(rng.below(
                      static_cast<std::uint64_t>(kServiceMesh))),
                  static_cast<Coord>(rng.below(
                      static_cast<std::uint64_t>(kServiceMesh)))};
    if (faults.isHealthy(p)) dests.push_back(p);
  }
  return dests;
}
}  // namespace

void BM_ServiceDeltaPatchEvent(benchmark::State& state) {
  const Mesh2D mesh = Mesh2D::square(kServiceMesh);
  const auto faults = makeFaults(
      kServiceMesh,
      static_cast<std::size_t>(mesh.nodeCount()) / 10, 42);
  ServiceConfig cfg;
  cfg.threads = 1;
  RouteService service(faults, cfg);
  std::vector<Query> batch;
  for (Point d : serviceDests(faults)) batch.push_back({{0, 0}, d});
  service.serve(batch);  // compile the columns once
  Point toggle{kServiceMesh / 2, kServiceMesh / 2};
  while (faults.isFaulty(toggle)) toggle.x += 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.applyAddFault(toggle));
    benchmark::DoNotOptimize(service.applyRemoveFault(toggle));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ServiceDeltaPatchEvent);

void BM_ServiceFullRecompileEvent(benchmark::State& state) {
  const Mesh2D mesh = Mesh2D::square(kServiceMesh);
  const auto initial = makeFaults(
      kServiceMesh,
      static_cast<std::size_t>(mesh.nodeCount()) / 10, 42);
  DynamicFaultModel model(initial);
  model.analysis().materializeAll();
  const RouterContext ctx{&model.faults(), &model.analysis()};
  const auto router = RouterRegistry::global().create("rb2", ctx);
  const auto dests = serviceDests(initial);
  Point toggle{kServiceMesh / 2, kServiceMesh / 2};
  while (initial.isFaulty(toggle)) toggle.x += 1;
  for (auto _ : state) {
    model.addFault(toggle);
    for (Point d : dests) {
      benchmark::DoNotOptimize(compileRouteColumn(*router, model.faults(), d));
    }
    model.removeFault(toggle);
    for (Point d : dests) {
      benchmark::DoNotOptimize(compileRouteColumn(*router, model.faults(), d));
    }
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ServiceFullRecompileEvent);

void BM_HealthyBfs(benchmark::State& state) {
  const auto faults = makeFaults(100, 1000, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(healthyDistances(faults, {1, 1}));
  }
}
BENCHMARK(BM_HealthyBfs);

// --- serve hot path: dense slot array vs hashed next-hop storage --------
//
// chaseColumn runs on a dense byte vector: one indexed load plus one id
// add per step. BM_ChaseColumnHashed is the counterfactual the table
// layer moved away from — the same chase against next hops stored in an
// unordered_map, paying a hash probe per step. The pair quantifies the
// columns_ flattening on the serving hot path.

namespace {
constexpr Coord kChaseMesh = 64;

struct ChaseFixture {
  FaultSet faults;
  RouteColumn column;
  std::vector<Point> sources;

  ChaseFixture()
      : faults(makeFaults(kChaseMesh,
                          static_cast<std::size_t>(kChaseMesh) *
                              static_cast<std::size_t>(kChaseMesh) / 10,
                          42)),
        column(faults.mesh(), Point{0, 0}) {
    Point dest{kChaseMesh / 2, kChaseMesh / 2};
    while (faults.isFaulty(dest)) dest.x += 1;
    const FaultAnalysis fa(faults);
    const RouterContext ctx{&faults, &fa};
    const auto router = RouterRegistry::global().create("rb2", ctx);
    column = compileRouteColumn(*router, faults, dest);
    Rng rng(7);
    while (sources.size() < 256) {
      const Point s = randomHealthy(faults, rng);
      if (s != dest) sources.push_back(s);
    }
  }
};
}  // namespace

void BM_ChaseColumnDense(benchmark::State& state) {
  static const ChaseFixture fx;
  const Mesh2D& mesh = fx.faults.mesh();
  const auto maxSteps = static_cast<std::size_t>(mesh.nodeCount());
  std::size_t i = 0;
  std::uint64_t hops = 0;
  for (auto _ : state) {
    const ServedRoute res = chaseColumn(
        fx.column, mesh, fx.sources[i++ & 255], maxSteps, false);
    hops += static_cast<std::uint64_t>(res.hops);
    benchmark::DoNotOptimize(res.status);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hops));  // per-hop rate
}
BENCHMARK(BM_ChaseColumnDense);

void BM_ChaseColumnHashed(benchmark::State& state) {
  static const ChaseFixture fx;
  const Mesh2D& mesh = fx.faults.mesh();
  std::unordered_map<NodeId, std::uint8_t> nextByNode;
  for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
    nextByNode.emplace(id, fx.column.next(id));
  }
  const NodeId width = mesh.width();
  const NodeId idStep[4] = {1, -1, width, -width};
  const NodeId dest = mesh.id(fx.column.dest());
  const auto maxSteps = static_cast<std::size_t>(mesh.nodeCount());
  std::size_t i = 0;
  std::uint64_t hops = 0;
  for (auto _ : state) {
    NodeId u = mesh.id(fx.sources[i++ & 255]);
    ServeStatus status = ServeStatus::Diverged;
    for (std::size_t step = 0; step <= maxSteps; ++step) {
      if (u == dest) {
        status = ServeStatus::Delivered;
        hops += step;
        break;
      }
      const std::uint8_t hop = nextByNode.find(u)->second;
      if (hop == RouteColumn::kNoRoute) {
        status = ServeStatus::NoRoute;
        break;
      }
      u += idStep[hop];
    }
    benchmark::DoNotOptimize(status);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hops));
}
BENCHMARK(BM_ChaseColumnHashed);

// --- lockstep batch chase: packed 3-bit column, scalar vs AVX2 ----------
//
// BM_ChaseColumnPacked is the single-query chase over the half-footprint
// packed encoding (same serial chain as Dense, nibble extraction per
// step). The Lockstep/Simd pair chases the fixture's 256 sources as one
// batch per iteration — the serving shape RouteService's fast path
// feeds chaseBatch — and reports per-hop throughput like the scalar
// rows, so the table reads as a ladder: hash probe -> dense byte ->
// packed nibble -> 8-lane lockstep -> AVX2 gather lanes.

namespace {
struct PackedChaseFixture {
  const ChaseFixture& base;
  PackedRouteColumn packed;
  std::vector<NodeId> sourceIds;
  std::uint64_t totalHops = 0;

  PackedChaseFixture()
      : base(denseFixture()), packed(base.column, base.faults.mesh()) {
    const Mesh2D& mesh = base.faults.mesh();
    for (const Point s : base.sources) sourceIds.push_back(mesh.id(s));
    for (const Point s : base.sources) {
      const ServedRoute res =
          chaseColumn(base.column, mesh, s,
                      static_cast<std::size_t>(mesh.nodeCount()), false);
      totalHops += static_cast<std::uint64_t>(res.hops);
    }
  }

  static const ChaseFixture& denseFixture() {
    static const ChaseFixture fx;
    return fx;
  }
};
}  // namespace

void BM_ChaseColumnPacked(benchmark::State& state) {
  static const PackedChaseFixture fx;
  const Mesh2D& mesh = fx.base.faults.mesh();
  const auto maxSteps = static_cast<std::size_t>(mesh.nodeCount());
  std::size_t i = 0;
  std::uint64_t hops = 0;
  for (auto _ : state) {
    const ServedRoute res = chaseColumn(
        fx.packed, mesh, fx.base.sources[i++ & 255], maxSteps, false);
    hops += static_cast<std::uint64_t>(res.hops);
    benchmark::DoNotOptimize(res.status);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hops));  // per-hop rate
}
BENCHMARK(BM_ChaseColumnPacked);

void BM_ChaseColumnLockstep(benchmark::State& state) {
  static const PackedChaseFixture fx;
  std::vector<ServeStatus> status(fx.sourceIds.size());
  std::vector<std::int32_t> hops(fx.sourceIds.size(), 0);
  std::uint64_t total = 0;
  for (auto _ : state) {
    chaseBatchScalar(fx.packed, fx.sourceIds.data(), fx.sourceIds.size(),
                     fx.packed.hopBound(), status.data(), hops.data());
    benchmark::DoNotOptimize(status.data());
    total += fx.totalHops;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_ChaseColumnLockstep);

void BM_ChaseColumnSimd(benchmark::State& state) {
  if (!chaseBatchSimdAvailable()) {
    state.SkipWithError("AVX2 engine not available on this host");
    return;
  }
  static const PackedChaseFixture fx;
  std::vector<ServeStatus> status(fx.sourceIds.size());
  std::vector<std::int32_t> hops(fx.sourceIds.size(), 0);
  std::uint64_t total = 0;
  for (auto _ : state) {
    chaseBatchAvx2(fx.packed, fx.sourceIds.data(), fx.sourceIds.size(),
                   fx.packed.hopBound(), status.data(), hops.data());
    benchmark::DoNotOptimize(status.data());
    total += fx.totalHops;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_ChaseColumnSimd);

// --- hop-bound attribution: bounded vs unbounded on a diverging column --
//
// A column where almost every chase livelocks (+X everywhere, the east
// edge bounces -X; only the destination's own row terminates). The
// bounded row runs the lockstep loop for hopBound() steps — the longest
// TERMINATING chase, width-1 — while the unbounded row uses the
// nodeCount fallback a boundless encoding would need. The gap is what
// the compile-maintained bound buys on livelock-heavy columns.

namespace {
class CycleRouter final : public Router {
 public:
  explicit CycleRouter(const Mesh2D& mesh) : mesh_(mesh) {}
  std::string_view name() const override { return "bench-cycle"; }
  RouteResult route(Point s, Point d) override {
    (void)d;
    RouteResult out;
    out.delivered = true;
    const Point next = s.x + 1 < mesh_.width() ? Point{s.x + 1, s.y}
                                               : Point{s.x - 1, s.y};
    out.path = {s, next};
    return out;
  }

 private:
  const Mesh2D& mesh_;
};

struct DivergingFixture {
  FaultSet faults;
  PackedRouteColumn packed;
  std::vector<NodeId> sourceIds;

  DivergingFixture()
      : faults(Mesh2D::square(kChaseMesh)),
        packed(makeColumn(faults), faults.mesh()) {
    for (NodeId id = 0; id < faults.mesh().nodeCount(); ++id) {
      sourceIds.push_back(id);
    }
  }

  static RouteColumn makeColumn(const FaultSet& faults) {
    CycleRouter router(faults.mesh());
    return compileRouteColumn(router, faults,
                              Point{kChaseMesh - 1, 0});
  }
};

void chaseDivergingBatch(benchmark::State& state, std::size_t maxSteps) {
  static const DivergingFixture fx;
  std::vector<ServeStatus> status(fx.sourceIds.size());
  std::vector<std::int32_t> hops(fx.sourceIds.size(), 0);
  std::uint64_t total = 0;
  for (auto _ : state) {
    chaseBatchScalar(fx.packed, fx.sourceIds.data(), fx.sourceIds.size(),
                     maxSteps, status.data(), hops.data());
    benchmark::DoNotOptimize(status.data());
    total += fx.sourceIds.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total));  // per-query
}
}  // namespace

void BM_ChaseDivergingBounded(benchmark::State& state) {
  static const DivergingFixture fx;
  chaseDivergingBatch(state, fx.packed.hopBound());
}
BENCHMARK(BM_ChaseDivergingBounded);

void BM_ChaseDivergingUnbounded(benchmark::State& state) {
  static const DivergingFixture fx;
  chaseDivergingBatch(
      state, static_cast<std::size_t>(fx.faults.mesh().nodeCount()));
}
BENCHMARK(BM_ChaseDivergingUnbounded);

// --- one serve call on openbench read_static's geometry ------------------
//
// RouteService::serve end to end (classify, group, pin, chase, scatter)
// on a 32x32 mesh with 102 uniform faults, 64 warm rb2 destinations and
// one pool thread. /1 is the fleet's one-query segment serve, /16 a
// typical request, /1024 a bulk one; all three fit one chase slice, so
// they run on the calling thread. Items are queries.

void BM_ServeBatch(benchmark::State& state) {
  constexpr Coord kSide = 32;
  const FaultSet faults = makeFaults(kSide, 102, 42);
  ServiceConfig cfg;
  cfg.threads = 1;
  RouteService service(faults, cfg);
  Rng rng(2007);
  const auto healthy = [&] {
    for (;;) {
      const Point p{static_cast<Coord>(rng.below(kSide)),
                    static_cast<Coord>(rng.below(kSide))};
      if (faults.isHealthy(p)) return p;
    }
  };
  std::vector<Point> dests;
  while (dests.size() < 64) {
    const Point d = healthy();
    if (std::find(dests.begin(), dests.end(), d) == dests.end()) {
      dests.push_back(d);
    }
  }
  std::vector<Query> warm;
  for (const Point d : dests) warm.push_back({healthy(), d});
  service.serve(warm);  // compile the 64 columns once
  // A ring of prebuilt batches, so consecutive calls chase new queries.
  const auto size = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<Query>> batches(16);
  for (auto& batch : batches) {
    for (std::size_t i = 0; i < size; ++i) {
      batch.push_back({healthy(), dests[rng.below(dests.size())]});
    }
  }
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.serve(batches[k++ % batches.size()]));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_ServeBatch)->Arg(1)->Arg(16)->Arg(1024);

// --- task-group executor overhead ---------------------------------------
//
// The cost of the per-batch wait discipline itself: submit N no-op jobs
// on a FRESH TaskGroup per batch and wait. Arg(0) measures a bare
// create+wait on an empty group.

void BM_TaskGroupOverhead(benchmark::State& state) {
  ThreadPool pool(2);
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    TaskGroup group(pool);
    for (std::size_t j = 0; j < jobs; ++j) {
      group.submit([] {});
    }
    group.wait();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs ? jobs : 1));
}
BENCHMARK(BM_TaskGroupOverhead)->Arg(0)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
