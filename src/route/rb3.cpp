#include "route/rb3.h"

#include <algorithm>

#include "info/reachability.h"
#include "route/wall_follow.h"

namespace meshrt {

const QuadrantInfo& Rb3Router::info(Quadrant q) {
  if (shared_ != nullptr) {
    // Pre-synced snapshot knowledge: read-only by contract, so no sync()
    // (the shared bundle may be read by other threads concurrently).
    if (const QuadrantInfo* qi = shared_->find(q, InfoModel::B3)) return *qi;
  }
  auto& slot = info_[static_cast<std::size_t>(q)];
  if (!slot) {
    slot = std::make_unique<QuadrantInfo>(analysis_->quadrant(q),
                                          InfoModel::B3);
  } else {
    // Catch up with online fault events (see QuadrantInfo::sync).
    slot->sync();
  }
  return *slot;
}

RouteResult Rb3Router::route(Point s, Point d) {
  RouteResult result;
  result.path.push_back(s);
  if (s == d) {
    result.delivered = true;
    return result;
  }

  const Quadrant quad = quadrantOf(s, d);
  const QuadrantAnalysis& qa = analysis_->quadrant(quad);
  const QuadrantInfo& qi = info(quad);
  const Frame& frame = qa.frame();
  const Mesh2D& mesh = qa.localMesh();
  const LabelGrid& labels = qa.labels();
  const Point dL = frame.toLocal(d);
  Point u = frame.toLocal(s);
  if (!labels.isSafe(u) || !labels.isSafe(dL)) return result;

  DetourPlanner planner(qa, /*exactFallback=*/true, /*cache=*/nullptr,
                        &scratch_);

  // Triples the message has seen: the node-local stores it visited plus
  // MCCs sensed on contact. Kept sorted for the planner's binary search.
  std::vector<int> known;
  bool learned = false;
  auto learn = [&](int id) {
    if (id < 0) return;
    auto it = std::lower_bound(known.begin(), known.end(), id);
    if (it == known.end() || *it != id) {
      known.insert(it, id);
      learned = true;
    }
  };
  const bool useStores = knowledge_ != Rb3Knowledge::ContactOnly;
  auto mergeAt = [&](Point p) {
    if (useStores) {
      for (int id : qi.typeIKnown(p)) learn(id);
      for (int id : qi.typeIIKnown(p)) learn(id);
    }
    // Neighbor exchange: the paper's nodes continuously exchange status and
    // stored information with neighbors, so the current node also serves
    // its neighbors' triple stores, and adjacent MCC membership is sensed.
    for (Dir dir : kAllDirs) {
      if (auto q = mesh.neighbor(p, dir)) {
        learn(qa.mccIndexAt(*q));
        if (useStores) {
          for (int id : qi.typeIKnown(*q)) learn(id);
          for (int id : qi.typeIIKnown(*q)) learn(id);
        }
        // The labeling protocol already made q know the status of q's own
        // neighbors, so the exchange reveals radius-2 MCC membership.
        for (Dir dir2 : kAllDirs) {
          if (auto r = mesh.neighbor(*q, dir2)) learn(qa.mccIndexAt(*r));
        }
      }
    }
  };
  auto freeSafe = [&](Point p) {
    return mesh.contains(p) && labels.isSafe(p);
  };

  if (knowledge_ == Rb3Knowledge::Full) {
    for (const Mcc& mcc : qa.liveMccs()) learn(mcc.id);
  }
  mergeAt(u);
  const std::size_t maxPhases = qa.mccs().size() * 8 + 32;
  const std::size_t escapeBudget =
      static_cast<std::size_t>(mesh.nodeCount()) * 4;
  std::vector<Point> hops;  // the leg of the latest plan

  while (u != dL && result.phases < maxPhases) {
    ++result.phases;
    auto plan = planner.plan(u, dL, &known, order_, &hops);
    if (!plan) {
      // Every known detour is ruled out: creep around the obstacle
      // clockwise (the Algorithm 3 detour), learning triples as boundary
      // lines and rings are crossed, until a plan exists.
      Dir heading = Dir::MinusX;
      std::size_t steps = 0;
      while (!plan && steps++ < escapeBudget) {
        const auto move = wallFollowStep(u, heading, WalkHand::Right,
                                         freeSafe);
        if (!move) return result;  // walled in
        heading = *move;
        u = u + offset(heading);
        result.path.push_back(frame.toWorld(u));
        mergeAt(u);
        plan = planner.plan(u, dL, &known, order_, &hops);
      }
      if (!plan) return result;
    }

    // Manhattan leg toward the intermediate destination under the current
    // knowledge. The paper's routing takes localized decisions: whenever
    // the message crosses a node holding new triples (a boundary line or a
    // ring), the decision changes there — so we re-plan on every knowledge
    // gain, and on contact with an MCC the plan missed.
    if (hops.empty()) return result;
    learned = false;
    for (std::size_t i = 1; i < hops.size(); ++i) {
      const Point p = hops[i];
      if (!labels.isSafe(p)) {
        learn(qa.mccIndexAt(p));  // contact: the ring node holds the triple
        break;
      }
      result.path.push_back(frame.toWorld(p));
      u = p;
      mergeAt(p);
      if (learned) break;  // new triples at this node: replan here
    }
  }
  result.delivered = (u == dL);
  return result;
}

}  // namespace meshrt
