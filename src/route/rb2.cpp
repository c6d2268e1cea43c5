#include "route/rb2.h"

#include "info/reachability.h"

namespace meshrt {

RouteResult Rb2Router::route(Point s, Point d) {
  RouteResult result;
  result.path.push_back(s);
  if (s == d) {
    result.delivered = true;
    return result;
  }

  const QuadrantAnalysis& qa = analysis_->forPair(s, d);
  const Frame& frame = qa.frame();
  const LabelGrid& labels = qa.labels();
  const Point dL = frame.toLocal(d);
  Point u = frame.toLocal(s);
  if (!labels.isSafe(u) || !labels.isSafe(dL)) return result;

  DetourPlanner planner(qa, exactFallback_,
                        &caches_[static_cast<std::size_t>(qa.quadrant())]);
  const std::size_t maxPhases = qa.mccs().size() * 4 + 8;

  while (u != dL && result.phases < maxPhases) {
    const auto plan = planner.plan(u, dL, /*known=*/nullptr, order_);
    if (!plan || plan->legPath.empty()) return result;  // no safe detour
    for (std::size_t i = 1; i < plan->legPath.size(); ++i) {
      result.path.push_back(frame.toWorld(plan->legPath[i]));
    }
    u = plan->target;
    ++result.phases;
  }
  result.delivered = (u == dL);
  return result;
}

}  // namespace meshrt
