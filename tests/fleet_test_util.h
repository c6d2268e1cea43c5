// Shared helpers for the fleet differential suites (tests/fleet_test.cpp
// and the slow full-matrix suite in tests/slow/): batch generators, the
// interior-fault injector whose configurations certify every shard
// border-clear, per-key service configs, the fleet-vs-single
// differential assertion and the fleet serve-path differential.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "route/route_table.h"
#include "route/validate.h"
#include "service/fleet.h"

namespace meshrt {
namespace fleettest {

inline std::vector<Query> randomBatch(const Mesh2D& mesh, std::size_t count,
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

/// Random sources against a small destination pool: differential
/// coverage without compiling a column per query (column compiles are
/// the cost that dwarfs everything else at 64x64).
inline std::vector<Query> pooledBatch(const Mesh2D& mesh, std::size_t count,
                                      std::size_t poolSize,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pool;
  for (std::size_t i = 0; i < poolSize; ++i) {
    pool.push_back({static_cast<Coord>(
                        rng.below(static_cast<std::uint64_t>(mesh.width()))),
                    static_cast<Coord>(rng.below(
                        static_cast<std::uint64_t>(mesh.height())))});
  }
  std::vector<Query> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(
        {{static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.width()))),
          static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.height())))},
         pool[rng.below(pool.size())]});
  }
  return batch;
}

/// True when a fault at p keeps EVERY covering shard border-clear with
/// the given margin (p is at least `margin` cells from every artificial
/// wall of every local rectangle containing it).
inline bool interiorCell(const ShardLayout& layout, Point p, Coord margin) {
  for (const std::size_t k : layout.covering(p)) {
    const Rect& l = layout.local(k);
    const Point q = layout.toLocal(k, p);
    if (layout.artificialWall(k, 0) && q.x < margin) return false;
    if (layout.artificialWall(k, 1) && q.x > l.width() - 1 - margin) {
      return false;
    }
    if (layout.artificialWall(k, 2) && q.y < margin) return false;
    if (layout.artificialWall(k, 3) && q.y > l.height() - 1 - margin) {
      return false;
    }
  }
  return true;
}

/// `count` uniform faults restricted to interior cells: every shard of
/// `layout` is border-clear by construction.
inline FaultSet injectInterior(const ShardLayout& layout, std::size_t count,
                               Coord margin, Rng& rng) {
  const Mesh2D& mesh = layout.mesh();
  FaultSet faults(mesh);
  std::size_t placed = 0;
  while (placed < count) {
    const Point p{static_cast<Coord>(
                      rng.below(static_cast<std::uint64_t>(mesh.width()))),
                  static_cast<Coord>(
                      rng.below(static_cast<std::uint64_t>(mesh.height())))};
    if (faults.isFaulty(p) || !interiorCell(layout, p, margin)) continue;
    faults.add(p);
    ++placed;
  }
  return faults;
}

/// Keys whose labels are NOT functions of the local fault window: the
/// safety-level relaxation propagates across the whole mesh, so a
/// shard's labels legitimately differ from the full-mesh labels near
/// artificial walls (the fleet can even deliver in fewer hops, and
/// deliver where the full-mesh heuristic diverges). For these the
/// differential asserts path validity, never bit-equality.
inline bool nonLocalKey(const std::string& key) { return key == "safety"; }

inline FleetConfig fleetConfig(const std::string& key, std::size_t grid) {
  FleetConfig cfg;
  cfg.service.routerKey = key;
  cfg.service.threads = 2;
  cfg.grid = grid;
  return cfg;
}

inline ServiceConfig singleConfig(const std::string& key) {
  ServiceConfig cfg;
  cfg.routerKey = key;
  cfg.threads = 2;
  return cfg;
}

/// Differential check of one served fleet batch against the single
/// full-mesh service: intra-shard queries bit-for-bit when the key is
/// local AND the owning shard is certified border-clear (`allCertified`
/// short-circuits the certificate in the interior-fault regime); every
/// delivered path globally valid and exactly hop-accounted.
inline void expectFleetMatchesSingle(ServiceFleet& fleet,
                                     RouteService& single,
                                     const FaultSet& faults,
                                     const std::vector<Query>& batch,
                                     bool allCertified) {
  const FleetBatchResult fr = fleet.serve(batch, /*wantPaths=*/true);
  const BatchResult sr = single.serve(batch, /*wantPaths=*/true);
  const ShardLayout& layout = fleet.layout();
  const bool localKey = !nonLocalKey(fleet.config().service.routerKey);
  ASSERT_EQ(fr.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i) + " " + batch[i].s.str() +
                 "->" + batch[i].d.str());
    const std::size_t ks = layout.owner(batch[i].s);
    const std::size_t kd = layout.owner(batch[i].d);
    if (fr.delivered(i)) {
      ASSERT_FALSE(fr.paths[i].empty());
      EXPECT_TRUE(isValidPath(faults, batch[i].s, batch[i].d, fr.paths[i]));
      EXPECT_EQ(fr.hops[i],
                static_cast<std::int32_t>(fr.paths[i].size()) - 1);
    }
    if (ks == kd) {
      const bool certified =
          localKey &&
          (allCertified ||
           shardBorderClear(layout, ks, fr.pinned[ks]->faults()));
      if (certified) {
        EXPECT_EQ(fr.status[i], sr.status[i]);
        if (fr.delivered(i)) {
          EXPECT_EQ(fr.hops[i], sr.hops[i]);
        }
      }
    } else {
      // Endpoint faultiness is owner-epoch state == global state here.
      EXPECT_EQ(fr.status[i] == ServeStatus::EndpointFaulty,
                sr.status[i] == ServeStatus::EndpointFaulty);
    }
  }
}

/// Validates one served fleet batch purely against its own pinned
/// epochs: structural path invariants, plus — via the stitch-segment
/// records — every path cell healthy in the pinned snapshot of the
/// shard that chased it, and every crossing healthy on both sides.
/// Shared by the churn and chaos suites: it needs no ground truth, so it
/// holds even while writers (or the supervisor) are mutating the fleet.
inline void validateAgainstPinnedEpochs(const ShardLayout& layout,
                                        const std::vector<Query>& batch,
                                        const FleetBatchResult& r) {
  ASSERT_EQ(r.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i) + " " + batch[i].s.str() +
                 "->" + batch[i].d.str());
    if (!r.delivered(i)) continue;
    const auto& path = r.paths[i];
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), batch[i].s);
    EXPECT_EQ(path.back(), batch[i].d);
    EXPECT_EQ(r.hops[i], static_cast<std::int32_t>(path.size()) - 1);
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      EXPECT_EQ(manhattan(path[j], path[j + 1]), 1);
    }
    const auto& segs = r.segments[i];
    ASSERT_FALSE(segs.empty());
    ASSERT_EQ(segs.front().begin, 0u);
    for (std::size_t j = 0; j < segs.size(); ++j) {
      const std::size_t k = segs[j].shard;
      const std::size_t begin = segs[j].begin;
      const std::size_t end =
          j + 1 < segs.size() ? segs[j + 1].begin : path.size();
      ASSERT_LT(begin, end);
      const FaultSet& pinnedFaults = r.pinned[k]->faults();
      for (std::size_t c = begin; c < end; ++c) {
        ASSERT_TRUE(layout.local(k).contains(path[c]));
        EXPECT_TRUE(pinnedFaults.isHealthy(layout.toLocal(k, path[c])))
            << "cell " << path[c].str() << " faulty in shard " << k
            << " pinned epoch " << r.shardEpochs[k];
      }
      // The crossing into this segment is healthy on BOTH sides it
      // joins (the previous shard sees the entry cell in its halo).
      if (j > 0) {
        const std::size_t prev = segs[j - 1].shard;
        EXPECT_TRUE(layout.local(prev).contains(path[begin]));
        EXPECT_TRUE(r.pinned[prev]->faults().isHealthy(
            layout.toLocal(prev, path[begin])));
        EXPECT_TRUE(pinnedFaults.isHealthy(
            layout.toLocal(k, path[begin - 1])));
      }
    }
  }
}

/// Serve-path differential for one fleet at its current epochs (no
/// writer may run concurrently). The batch served without paths
/// (intra-shard sub-batches on the lockstep engine, hop-bounded segment
/// chases), with paths (nodeCount-bounded scalar chases) and one query
/// at a time (one-query shard serves) must agree on status and hops,
/// and the path-carrying serves on paths.
/// Delivered paths must be valid in `faults` (the test-owned global
/// state) and under the pinned epochs. With `reference` set (epoch 0),
/// every intra-shard answer and every stitched segment must equal the
/// dense-column TableizedRouter chase over its shard's pinned epoch.
/// Returns how many path-serve answers were Diverged.
inline std::size_t expectServePathsAgree(ServiceFleet& fleet,
                                         const FaultSet& faults,
                                         const std::vector<Query>& batch,
                                         bool reference) {
  const ShardLayout& layout = fleet.layout();
  const FleetBatchResult lockstep = fleet.serve(batch, /*wantPaths=*/false);
  const FleetBatchResult paths = fleet.serve(batch, /*wantPaths=*/true);
  EXPECT_EQ(lockstep.shardEpochs, paths.shardEpochs);
  EXPECT_EQ(lockstep.status, paths.status);
  EXPECT_EQ(lockstep.hops, paths.hops);
  validateAgainstPinnedEpochs(layout, batch, paths);

  std::vector<std::unique_ptr<TableizedRouter>> tables;
  if (reference) {
    for (std::size_t k = 0; k < fleet.shardCount(); ++k) {
      const auto& snap = paths.pinned[k];
      tables.push_back(std::make_unique<TableizedRouter>(
          RouterRegistry::global().create(fleet.config().service.routerKey,
                                          snap->context()),
          snap->faults()));
    }
  }
  // Reference chase from u to v (global cells) inside shard k.
  const auto referenceChase = [&](std::size_t k, Point u, Point v) {
    ServedRoute r =
        tables[k]->serve(layout.toLocal(k, u), layout.toLocal(k, v));
    for (Point& p : r.path) p = layout.toGlobal(k, p);
    return r;
  };

  std::size_t diverged = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Query& q = batch[i];
    SCOPED_TRACE("query " + std::to_string(i) + " " + q.s.str() + "->" +
                 q.d.str());
    const bool wantPath = i % 2 == 1;
    const FleetBatchResult one = fleet.serve({q}, wantPath);
    EXPECT_EQ(one.shardEpochs, paths.shardEpochs);
    EXPECT_EQ(one.status[0], paths.status[i]);
    EXPECT_EQ(one.hops[0], paths.hops[i]);
    if (wantPath) {
      EXPECT_EQ(one.paths[0], paths.paths[i]);
    }
    diverged += paths.status[i] == ServeStatus::Diverged;
    if (paths.delivered(i)) {
      EXPECT_TRUE(isValidPath(faults, q.s, q.d, paths.paths[i]));
    }
    if (!reference) continue;
    const std::size_t ks = layout.owner(q.s);
    if (ks == layout.owner(q.d)) {
      const ServedRoute ref = referenceChase(ks, q.s, q.d);
      EXPECT_EQ(paths.status[i], ref.status);
      EXPECT_EQ(paths.paths[i], ref.path);
      if (ref.delivered()) {
        EXPECT_EQ(paths.hops[i], static_cast<std::int32_t>(ref.hops));
      }
    } else if (paths.delivered(i)) {
      // Each segment is one shard-local chase from its first cell to
      // its last (the exit cell, or the destination).
      const std::vector<Point>& path = paths.paths[i];
      const std::vector<FleetSegment>& segs = paths.segments[i];
      for (std::size_t j = 0; j < segs.size(); ++j) {
        const std::size_t end =
            j + 1 < segs.size() ? segs[j + 1].begin : path.size();
        const std::vector<Point> cells(path.begin() + segs[j].begin,
                                       path.begin() + end);
        const ServedRoute ref =
            referenceChase(segs[j].shard, cells.front(), cells.back());
        EXPECT_TRUE(ref.delivered());
        EXPECT_EQ(ref.path, cells);
      }
    }
  }
  return diverged;
}

/// Flips p on the fleet (submitted, then drained, so every covering
/// shard has applied it on return) and on the test-owned global fault
/// set that mirrors it.
inline void toggleFault(ServiceFleet& fleet, FaultSet& faults, Point p) {
  const bool add = faults.isHealthy(p);
  if (add) {
    faults.add(p);
  } else {
    faults.remove(p);
  }
  ASSERT_EQ(add ? fleet.submitAddFault(p) : fleet.submitRemoveFault(p),
            SubmitResult::Accepted);
  ASSERT_TRUE(fleet.drainWriters());
}

}  // namespace fleettest
}  // namespace meshrt
