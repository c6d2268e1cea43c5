#include "route/rb2.h"

#include "info/reachability.h"

namespace meshrt {

std::optional<DetourPlanner::Plan> Rb2Router::phase(
    const QuadrantAnalysis& qa, Point u, Point dL, std::vector<Point>* leg) {
  DetourPlanner planner(qa, exactFallback_,
                        &caches_[static_cast<std::size_t>(qa.quadrant())],
                        &scratch_);
  return planner.plan(u, dL, /*known=*/nullptr, order_, leg);
}

std::optional<Rb2Router::LocalPair> Rb2Router::localPair(Point s,
                                                        Point d) const {
  const QuadrantAnalysis& qa = analysis_->forPair(s, d);
  const LocalPair pair{&qa, qa.frame().toLocal(s), qa.frame().toLocal(d)};
  if (!qa.labels().isSafe(pair.u) || !qa.labels().isSafe(pair.dL)) {
    return std::nullopt;
  }
  return pair;
}

RouteResult Rb2Router::route(Point s, Point d) {
  RouteResult result;
  result.path.push_back(s);
  if (s == d) {
    result.delivered = true;
    return result;
  }

  const auto pair = localPair(s, d);
  if (!pair) return result;
  const QuadrantAnalysis& qa = *pair->qa;
  const Frame& frame = qa.frame();
  const Point dL = pair->dL;
  Point u = pair->u;

  const std::size_t maxPhases = qa.mccs().size() * 4 + 8;
  std::vector<Point> leg;
  while (u != dL && result.phases < maxPhases) {
    const auto plan = phase(qa, u, dL, &leg);
    if (!plan) return result;  // no safe detour
    for (std::size_t i = 1; i < leg.size(); ++i) {
      result.path.push_back(frame.toWorld(leg[i]));
    }
    u = plan->target;
    ++result.phases;
  }
  result.delivered = (u == dL);
  return result;
}

std::optional<Point> Rb2Router::firstHop(Point s, Point d) {
  if (!exactFallback_) return Router::firstHop(s, d);
  if (s == d) return std::nullopt;
  const auto pair = localPair(s, d);
  if (!pair) return std::nullopt;
  const auto plan = phase(*pair->qa, pair->u, pair->dL, /*leg=*/nullptr);
  if (!plan) return std::nullopt;
  return pair->qa->frame().toWorld(plan->firstStep);
}

}  // namespace meshrt
