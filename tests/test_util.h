// Shared helpers for the meshrt test suites: fault sets from cell lists
// and a brute-force monotone-reachability oracle.
#pragma once

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "fault/fault_set.h"
#include "fault/injectors.h"
#include "mesh/mesh.h"

namespace meshrt::testutil {

/// Fault set from an explicit cell list.
inline FaultSet faultsAt(const Mesh2D& mesh,
                         const std::vector<Point>& cells) {
  FaultSet f(mesh);
  for (Point p : cells) f.add(p);
  return f;
}

/// Brute-force monotone reachability: BFS from a toward b restricted to
/// sign(b-a) moves over `passable`. Ground truth for MonotoneField.
template <typename Passable>
bool bruteMonotoneReachable(const Mesh2D& mesh, Point a, Point b,
                            Passable&& passable) {
  if (!passable(a)) return false;
  const Coord sx = b.x > a.x ? 1 : (b.x < a.x ? -1 : 0);
  const Coord sy = b.y > a.y ? 1 : (b.y < a.y ? -1 : 0);
  NodeMap<bool> seen(mesh, false);
  std::vector<Point> stack{a};
  seen[a] = true;
  while (!stack.empty()) {
    const Point p = stack.back();
    stack.pop_back();
    if (p == b) return true;
    for (Point step : {Point{sx, 0}, Point{0, sy}}) {
      if (step == Point{0, 0}) continue;
      const Point q = p + step;
      const bool inside = q.x >= std::min(a.x, b.x) &&
                          q.x <= std::max(a.x, b.x) &&
                          q.y >= std::min(a.y, b.y) &&
                          q.y <= std::max(a.y, b.y);
      if (inside && mesh.contains(q) && !seen[q] && passable(q)) {
        seen[q] = true;
        stack.push_back(q);
      }
    }
  }
  return false;
}

}  // namespace meshrt::testutil
