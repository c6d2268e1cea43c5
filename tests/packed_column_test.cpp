// Differential tests for the 3-bit packed column encoding and the
// lockstep batch-chase engines (route/packed_column.h,
// route/batch_chase.h).
//
// The contracts under test:
//  - PackedRouteColumn compiles to and patches to exactly the dense
//    RouteColumn's entries, for every registry router and under
//    randomized fault churn + patch sequences (bit-identity by
//    construction through the shared firstHopByte helper);
//  - the per-column hop bound equals a from-scratch re-derivation and
//    the longest terminating chase after every patch — the invariant
//    that lets lockstep loops run `hopBound()` steps and call every
//    still-active lane Diverged;
//  - the scalar-lockstep and AVX2 batch engines both reproduce the
//    scalar chaseColumn byte for byte, including NoRoute and Diverged
//    lanes and sources equal to the destination;
//  - RouteService's two serve modes over its packed columns — the
//    lockstep batch engine (wantPaths=false) and the per-query path chase
//    (wantPaths=true), for whole batches and for one-query serves —
//    agree on every answer across live churn, deliver only valid paths,
//    and match the dense-column TableizedRouter reference at epoch 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/injectors.h"
#include "route/batch_chase.h"
#include "route/packed_column.h"
#include "route/route_table.h"
#include "route/validate.h"
#include "service/route_service.h"

namespace meshrt {
namespace {

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

void expectColumnsBitIdentical(const RouteColumn& dense,
                               const PackedRouteColumn& packed,
                               const Mesh2D& mesh) {
  ASSERT_EQ(packed.dest(), dense.dest());
  for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
    ASSERT_EQ(packed.next(id), dense.next(id)) << "node " << id;
  }
}

/// Runs every source through the batch engine and through the scalar
/// chaseColumn serve contract (dense column, nodeCount bound), and
/// asserts byte-for-byte agreement. `simd` picks the engine.
void expectBatchMatchesScalarChase(const RouteColumn& dense,
                                   const PackedRouteColumn& packed,
                                   const Mesh2D& mesh, bool simd) {
  const auto n = static_cast<std::size_t>(mesh.nodeCount());
  std::vector<NodeId> sources(n);
  for (std::size_t i = 0; i < n; ++i) {
    sources[i] = static_cast<NodeId>(i);
  }
  std::vector<ServeStatus> status(n, ServeStatus::Delivered);
  std::vector<std::int32_t> hops(n, 0);
  if (simd) {
    chaseBatchAvx2(packed, sources.data(), n, packed.hopBound(),
                   status.data(), hops.data());
  } else {
    chaseBatchScalar(packed, sources.data(), n, packed.hopBound(),
                     status.data(), hops.data());
  }
  for (std::size_t i = 0; i < n; ++i) {
    const ServedRoute ref = chaseColumn(dense, mesh, mesh.point(sources[i]),
                                        n, /*wantPath=*/false);
    ASSERT_EQ(status[i], ref.status) << "source " << sources[i];
    if (ref.delivered()) {
      ASSERT_EQ(hops[i], static_cast<std::int32_t>(ref.hops))
          << "source " << sources[i];
    }
  }
}

// ----------------------------------------------------- compile identity

TEST(PackedColumnTest, CompileMatchesDenseForEveryRegistryKey) {
  const Mesh2D mesh = Mesh2D::square(12);
  for (std::uint64_t cfgSeed : {1u, 2u}) {
    Rng rng = Rng::forStream(3001, cfgSeed);
    const FaultSet faults = injectUniform(mesh, 18, rng);
    const FaultAnalysis fa(faults);
    const RouterContext ctx{&faults, &fa};
    Rng destRng(7 + cfgSeed);
    for (const auto& key : RouterRegistry::global().keys()) {
      SCOPED_TRACE(key + " cfg " + std::to_string(cfgSeed));
      const auto denseRouter = RouterRegistry::global().create(key, ctx);
      const auto packedRouter = RouterRegistry::global().create(key, ctx);
      for (int t = 0; t < 3; ++t) {
        const Point dest = randomHealthy(faults, destRng);
        const RouteColumn dense =
            compileRouteColumn(*denseRouter, faults, dest);
        const PackedRouteColumn packed =
            compilePackedRouteColumn(*packedRouter, faults, dest);
        expectColumnsBitIdentical(dense, packed, mesh);
        // The generic chase template reads both encodings identically.
        const auto maxSteps = static_cast<std::size_t>(mesh.nodeCount());
        for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
          const ServedRoute a =
              chaseColumn(dense, mesh, mesh.point(id), maxSteps, true);
          const ServedRoute b =
              chaseColumn(packed, mesh, mesh.point(id), maxSteps, true);
          ASSERT_EQ(a.status, b.status) << "node " << id;
          ASSERT_EQ(a.hops, b.hops) << "node " << id;
          ASSERT_EQ(a.path, b.path) << "node " << id;
        }
      }
    }
  }
}

// ------------------------------------- patch identity + hop-bound oracle

TEST(PackedColumnTest, RandomizedPatchSequencesStayBitIdentical) {
  // Both encodings patch through firstHopByte; ANY common cell list must
  // keep them bit-identical. After every patch the carried hop bound must
  // equal a from-scratch re-derivation (packing the patched dense column
  // derives it fresh from the same entries) and the longest terminating
  // chase over all sources — whether the patch grew the bound, shrank
  // it, changed no entry, or changed the witness's own chase (the full
  // re-walk). Even rounds patch exactly what the service passes: the
  // chaseUpstream set of the toggle's label-change footprint. Odd rounds
  // patch the toggled cell plus arbitrary cells, so entries upstream of
  // a changed one change length without being patched themselves.
  // ecube's ring detours livelock, so its patches create and break
  // cycles.
  struct Case {
    std::string key;
    Coord side;
    std::size_t faultCount;
    int rounds;
    std::uint64_t seed;
  };
  const Case cases[] = {{"rb2", 16, 24, 16, 3301},
                        {"rb2", 24, 86, 40, 3311},
                        {"ecube", 24, 86, 40, 3321}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.key + " " + std::to_string(c.side));
    const Mesh2D mesh = Mesh2D::square(c.side);
    Rng rng(c.seed);
    FaultSet faults = injectUniform(mesh, c.faultCount, rng);
    const Point dest = randomHealthy(faults, rng);
    // Follows every toggle the way the service's labeler does; its delta
    // is the footprint the service masks.
    FaultAnalysis analysis(faults);
    analysis.materializeAll();
    const RouterContext ctx{&faults, &analysis};

    RouteColumn dense = [&] {
      const auto router = RouterRegistry::global().create(c.key, ctx);
      return compileRouteColumn(*router, faults, dest);
    }();
    PackedRouteColumn packed(dense, mesh);
    expectColumnsBitIdentical(dense, packed, mesh);

    Rng churn(c.seed + 1);
    int grew = 0;
    int shrank = 0;
    int cycleChanges = 0;
    std::size_t lastDiverged = 0;
    std::vector<Point> longestPath{dest};
    for (int round = 0; round < c.rounds; ++round) {
      SCOPED_TRACE(round);
      // Toggle one node (never the destination). Every third toggle lands
      // on the longest chase, whose length the bound is.
      Point p = dest;
      if (round % 3 == 2) {
        p = longestPath[churn.below(longestPath.size())];
      }
      while (p == dest) {
        p = {static_cast<Coord>(
                 churn.below(static_cast<std::uint64_t>(c.side))),
             static_cast<Coord>(
                 churn.below(static_cast<std::uint64_t>(c.side)))};
      }
      std::vector<Point> footprint;
      if (faults.isFaulty(p)) {
        faults.remove(p);
        footprint = analysis.applyRemoveFault(p);
      } else {
        faults.add(p);
        footprint = analysis.applyAddFault(p);
      }
      footprint.push_back(p);

      std::vector<NodeId> cells;
      if (round % 2 == 0) {
        std::vector<NodeId> masked;
        for (Point q : footprint) masked.push_back(mesh.id(q));
        cells = chaseUpstream(packed, mesh, masked);
      } else {
        cells.push_back(mesh.id(p));
        for (int k = 0; k < 40; ++k) {
          cells.push_back(static_cast<NodeId>(
              churn.below(static_cast<std::uint64_t>(mesh.nodeCount()))));
        }
        std::sort(cells.begin(), cells.end());
        cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
      }

      const auto denseRouter = RouterRegistry::global().create(c.key, ctx);
      const auto packedRouter = RouterRegistry::global().create(c.key, ctx);
      const std::uint32_t before = packed.hopBound();
      dense = dense.patched(*denseRouter, faults, cells);
      packed = packed.patched(*packedRouter, faults, cells);
      expectColumnsBitIdentical(dense, packed, mesh);

      // Hop-bound oracles: a fresh derivation, and brute force (delivered
      // chases take `hops` advances, no-route chases path.size()-1).
      EXPECT_EQ(packed.hopBound(), PackedRouteColumn(dense, mesh).hopBound());
      const auto maxSteps = static_cast<std::size_t>(mesh.nodeCount());
      std::size_t longest = 0;
      std::size_t diverged = 0;
      for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
        const ServedRoute chase =
            chaseColumn(packed, mesh, mesh.point(id), maxSteps, true);
        if (chase.status == ServeStatus::Diverged) {
          ++diverged;
        } else if (chase.path.size() - 1 >= longest) {
          longest = chase.path.size() - 1;
          longestPath = chase.path;
        }
      }
      EXPECT_EQ(packed.hopBound(), longest);
      grew += packed.hopBound() > before;
      shrank += packed.hopBound() < before;
      cycleChanges += round > 0 && diverged != lastDiverged;
      lastDiverged = diverged;
    }
    // The sequences really move the bound both ways, and ecube's really
    // move its cycles.
    EXPECT_GT(grew, 0);
    EXPECT_GT(shrank, 0);
    if (c.key == "ecube") {
      EXPECT_GT(cycleChanges, 0);
    }
  }
}

// -------------------------------------------------- batch-chase engines

TEST(BatchChaseTest, LockstepMatchesScalarChaseForEveryRegistryKey) {
  const Mesh2D mesh = Mesh2D::square(20);
  Rng rng(3401);
  const FaultSet faults = injectUniform(mesh, 48, rng);
  const FaultAnalysis fa(faults);
  const RouterContext ctx{&faults, &fa};
  Rng destRng(3402);
  for (const auto& key : RouterRegistry::global().keys()) {
    SCOPED_TRACE(key);
    const auto router = RouterRegistry::global().create(key, ctx);
    for (int t = 0; t < 2; ++t) {
      const Point dest = randomHealthy(faults, destRng);
      const RouteColumn dense = compileRouteColumn(*router, faults, dest);
      const PackedRouteColumn packed(dense, mesh);
      expectBatchMatchesScalarChase(dense, packed, mesh, /*simd=*/false);
    }
  }
}

TEST(BatchChaseTest, SimdEngineMatchesScalarEngine) {
  if (!chaseBatchSimdAvailable()) {
    GTEST_SKIP() << "AVX2 engine not available on this host";
  }
  const Mesh2D mesh = Mesh2D::square(20);
  Rng rng(3501);
  const FaultSet faults = injectUniform(mesh, 48, rng);
  const FaultAnalysis fa(faults);
  const RouterContext ctx{&faults, &fa};
  const auto router = RouterRegistry::global().create("rb2", ctx);
  Rng destRng(3502);
  for (int t = 0; t < 4; ++t) {
    const Point dest = randomHealthy(faults, destRng);
    const RouteColumn dense = compileRouteColumn(*router, faults, dest);
    const PackedRouteColumn packed(dense, mesh);
    expectBatchMatchesScalarChase(dense, packed, mesh, /*simd=*/true);
  }
}

/// Router that pushes +X everywhere except the east edge, which pushes
/// back -X: every chase that does not start on the destination's row
/// (east-edge destination) livelocks between the last two columns —
/// dense Diverged coverage for the hop-bound and lockstep contracts.
class CycleRouter final : public Router {
 public:
  explicit CycleRouter(const Mesh2D& mesh) : mesh_(mesh) {}
  std::string_view name() const override { return "test-cycle"; }
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

TEST(BatchChaseTest, DivergingColumnRetiresByHopBound) {
  const Mesh2D mesh = Mesh2D::square(16);
  const FaultSet faults(mesh);
  CycleRouter router(mesh);
  const Point dest{15, 0};  // east edge: its row delivers, the rest cycle
  const RouteColumn dense = compileRouteColumn(router, faults, dest);
  const PackedRouteColumn packed(dense, mesh);
  // Longest terminating chase: (0, 0) takes width-1 hops east. Every
  // other row livelocks and must NOT stretch the bound — that is the
  // hoisted-livelock-guard claim.
  EXPECT_EQ(packed.hopBound(), 15u);
  expectBatchMatchesScalarChase(dense, packed, mesh, /*simd=*/false);
  if (chaseBatchSimdAvailable()) {
    expectBatchMatchesScalarChase(dense, packed, mesh, /*simd=*/true);
  }
}

// ------------------------------------------- service serve-path identity

// The name predates the single-encoding service: the dense-vs-packed
// comparison is now the epoch-0 TableizedRouter reference, and the rest
// pins the lockstep engine (AVX2 or scalar, by CPU dispatch) to the
// scalar chases under churn.
TEST(ServiceEncodingTest, EncodingsServeBitIdenticallyUnderChurn) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(3601);
  const FaultSet faults = injectUniform(mesh, 50, rng);
  // Unfiltered batch: includes faulty endpoints (EndpointFaulty lanes)
  // and, occasionally, s == d — the inline specials of the lockstep
  // path.
  const auto batch = randomBatch(mesh, 200, 3602);

  for (const std::string key : {"rb2", "ecube"}) {
    SCOPED_TRACE(key);
    ServiceConfig cfg;
    cfg.routerKey = key;
    cfg.threads = 2;
    RouteService service(faults, cfg);
    Rng churn(3603);
    std::size_t diverged = 0;
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE(round);
      const auto snap = service.snapshot();
      const BatchResult lockstep = service.serveOn(snap, batch, false);
      const BatchResult paths = service.serveOn(snap, batch, true);
      ASSERT_EQ(lockstep.epoch, paths.epoch);
      ASSERT_EQ(lockstep.status, paths.status);
      ASSERT_EQ(lockstep.hops, paths.hops);
      // Epoch 0 is the frozen fault set TableizedRouter needs.
      std::unique_ptr<TableizedRouter> reference;
      if (round == 0) {
        reference = std::make_unique<TableizedRouter>(
            RouterRegistry::global().create(key, snap->context()),
            snap->faults());
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        const Query& q = batch[i];
        // One-query serves chase on the calling thread; alternate the
        // two modes (hop-bounded status/hops vs nodeCount-bounded paths).
        const bool wantPath = i % 2 == 1;
        const BatchResult one = service.serveOn(snap, {q}, wantPath);
        ASSERT_EQ(one.status[0], paths.status[i]);
        ASSERT_EQ(one.hops[0], paths.hops[i]);
        if (wantPath) {
          ASSERT_EQ(one.paths[0], paths.paths[i]);
        }
        if (paths.delivered(i)) {
          EXPECT_TRUE(isValidPath(snap->faults(), q.s, q.d, paths.paths[i]));
        }
        diverged += paths.status[i] == ServeStatus::Diverged;
        if (reference) {
          const ServedRoute ref = reference->serve(q.s, q.d);
          ASSERT_EQ(paths.status[i], ref.status);
          ASSERT_EQ(paths.paths[i], ref.path);
          if (ref.delivered()) {
            ASSERT_EQ(paths.hops[i], static_cast<std::int32_t>(ref.hops));
          }
        }
      }
      const Point p{static_cast<Coord>(churn.below(24)),
                    static_cast<Coord>(churn.below(24))};
      if (snap->faults().isFaulty(p)) {
        service.applyRemoveFault(p);
      } else {
        service.applyAddFault(p);
      }
    }
    // ecube's ring detours livelock on some of these pairs: the Diverged
    // lanes (hop-bound retirement vs nodeCount walk) really were compared.
    if (key == "ecube") {
      EXPECT_GT(diverged, 0u);
    }
  }
}

}  // namespace
}  // namespace meshrt
