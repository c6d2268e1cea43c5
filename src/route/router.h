// Router interface and route results. All routers operate in world
// coordinates; information-based routers internally normalize through the
// quadrant frame of each source/destination pair, exactly as the paper
// normalizes s to the origin with d in the first quadrant.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "mesh/point.h"

namespace meshrt {

struct RouteResult {
  bool delivered = false;
  /// Visited nodes s..d inclusive (when delivered); the attempted prefix
  /// otherwise.
  std::vector<Point> path;
  /// Number of multi-phase planning decisions (RB2/RB3) or detour events
  /// (RB1/E-cube).
  std::size_t phases = 0;

  Distance hops() const {
    return path.empty() ? 0
                        : static_cast<Distance>(path.size()) - 1;
  }
};

class Router {
 public:
  virtual ~Router() = default;
  virtual std::string_view name() const = 0;
  virtual RouteResult route(Point s, Point d) = 0;

  /// The node after s on route(s, d), or nullopt when that route does not
  /// deliver. Compiled columns store only this hop, so a router that can
  /// find it without routing the whole way overrides it.
  virtual std::optional<Point> firstHop(Point s, Point d) {
    const RouteResult res = route(s, d);
    if (!res.delivered || res.path.size() < 2) return std::nullopt;
    return res.path[1];
  }
};

}  // namespace meshrt
