// RB2 (Algorithm 5): multi-phase shortest-path routing under the full
// information model B2. At each phase the current node detects the closest
// blocking sequence, prices the detour options with the recursive distance
// function (Eq. 2), Manhattan-routes to the chosen intermediate destination,
// and repeats. Theorem 1: the delivered path is a shortest path.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "info/reachability.h"
#include "fault/analysis.h"
#include "route/planner.h"
#include "route/router.h"

namespace meshrt {

class Rb2Router : public Router {
 public:
  /// `order` shapes the Manhattan legs: Balanced for the paper's fully
  /// adaptive selection; XFirst for dimension-ordered legs (same length)
  /// when feeding the wormhole network layer.
  /// `exactFallback=false` runs the paper-literal Eq. 2-3 recursion only
  /// (the ablation bench measures where that falls short).
  explicit Rb2Router(const FaultAnalysis& analysis,
                     PathOrder order = PathOrder::Balanced,
                     bool exactFallback = true)
      : analysis_(&analysis), order_(order), exactFallback_(exactFallback) {}

  std::string_view name() const override { return "RB2"; }

  RouteResult route(Point s, Point d) override;

  /// With the exact fallback, one plan: every plan then ends on a shortest
  /// path, so the exact distance left falls each phase, no MCC corner is
  /// targeted twice, and route() delivers exactly when its first plan
  /// exists. The plan works out only its leg's first step, not the leg.
  /// Nothing bounds rb2-literal's later phases, so it routes in full.
  std::optional<Point> firstHop(Point s, Point d) override;

 private:
  /// A pair's quadrant analysis with both endpoints in its frame.
  struct LocalPair {
    const QuadrantAnalysis* qa;
    Point u;
    Point dL;
  };
  /// The setup route() and firstHop() share: nullopt when either endpoint
  /// is unsafe in the pair's frame.
  std::optional<LocalPair> localPair(Point s, Point d) const;

  /// One phase from u toward dL (both local to qa's frame): the plan
  /// whose leg route() walks, written to `leg` when given, or nullopt when
  /// no safe detour exists.
  std::optional<DetourPlanner::Plan> phase(const QuadrantAnalysis& qa,
                                           Point u, Point dL,
                                           std::vector<Point>* leg);

  const FaultAnalysis* analysis_;
  PathOrder order_;
  bool exactFallback_;
  /// One per quadrant, shared by every route through it; the planner
  /// rebinds a cache whenever its analysis was patched since. route() and
  /// firstHop() fill them and reuse one scratch, so a router serves one
  /// thread at a time, as every Router does.
  std::array<PlanCache, 4> caches_;
  PlanScratch scratch_;
};

}  // namespace meshrt
