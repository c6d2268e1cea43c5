// Exact monotone ("Manhattan distance path") reachability between two mesh
// points over a passability predicate. A path of length M(a, b) exists iff b
// is reachable moving only in sign(b-a) steps; the DP also exposes the
// blocking frontier, from which the detour planner extracts the paper's
// blocking sequences (Eq. 1) without any geometric approximation.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "mesh/mesh.h"
#include "mesh/rect.h"

namespace meshrt {

/// Shape of the extracted monotone path. Balanced keeps both dimensions
/// open (the "fully adaptive" selection); XFirst emits a dimension-ordered
/// staircase with a single turn per leg — same length, but XY-compatible
/// turn structure for the wormhole network layer.
enum class PathOrder : std::uint8_t { Balanced, XFirst };

/// One step of MonotoneField::extractPath's walk from b back to a: the
/// `reached` predecessor of p (p != a), one move toward b undone. Balanced
/// undoes the dimension with the larger remaining delta, the "fully
/// adaptive" selection of Algorithm 2, which keeps both dimensions open and
/// paths central. XFirst undoes Y while it can, so the forward path runs
/// X-then-Y (dimension-ordered legs). nullopt when neither predecessor is
/// reached, which a monotone reach set from a never allows.
template <typename Reached>
std::optional<Point> monotonePredecessor(Point a, Point b, Point p,
                                         PathOrder order, Reached&& reached) {
  const Coord stepX = b.x > a.x ? 1 : (b.x < a.x ? -1 : 0);
  const Coord stepY = b.y > a.y ? 1 : (b.y < a.y ? -1 : 0);
  const Point px{p.x - stepX, p.y};
  const Point py{p.x, p.y - stepY};
  const bool canX = stepX != 0 && p.x != a.x && reached(px);
  const bool canY = stepY != 0 && p.y != a.y && reached(py);
  bool pickX;
  if (order == PathOrder::XFirst) {
    pickX = canX && !canY;
  } else {
    const auto dx = static_cast<Distance>(p.x > a.x ? p.x - a.x : a.x - p.x);
    const auto dy = static_cast<Distance>(p.y > a.y ? p.y - a.y : a.y - p.y);
    pickX = canX && (!canY || dx >= dy);
  }
  if (pickX) return px;
  if (canY) return py;
  if (canX) return px;
  return std::nullopt;
}

/// MonotoneField::extractPath's walk over any reach set: from b back to a,
/// each step a monotonePredecessor. Empty unless reached(b). `reached` must
/// describe a monotone reach set from a.
template <typename Reached>
std::vector<Point> extractMonotonePath(Point a, Point b, PathOrder order,
                                       Reached&& reached) {
  std::vector<Point> path;
  if (!reached(b)) return path;
  for (Point p = b;;) {
    path.push_back(p);
    if (p == a) break;
    const std::optional<Point> prev =
        monotonePredecessor(a, b, p, order, reached);
    if (!prev) {
      assert(false && "extractMonotonePath: no reached predecessor");
      return {};
    }
    p = *prev;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

class MonotoneField {
 public:
  /// Computes reachability from a toward b, restricted to Rect::between(a,b).
  /// `passable(Point) -> bool` is consulted for every cell in that
  /// rectangle.
  template <typename Passable>
  MonotoneField(const Mesh2D& mesh, Point a, Point b, Passable&& passable)
      : MonotoneField(mesh, a, b) {
    for (Coord y = rect_.y0; y <= rect_.y1; ++y) {
      for (Coord x = rect_.x0; x <= rect_.x1; ++x) {
        passable_[index({x, y})] = passable(Point{x, y}) ? 1 : 0;
      }
    }
    sweep();
  }

  Point source() const { return a_; }
  Point target() const { return b_; }

  bool reachable(Point p) const {
    return rect_.contains(p) && reach_[index(p)];
  }
  bool targetReachable() const { return reachable(b_); }

  /// A monotone path a..b (inclusive); empty unless targetReachable().
  std::vector<Point> extractPath(PathOrder order = PathOrder::Balanced) const;

  /// Impassable cells on the frontier of the reachable set (the composite
  /// barrier that cuts a from b). Empty when the target is reachable.
  std::vector<Point> blockingFrontier() const;

 private:
  /// Sizes the rectangle; the public constructor fills passable_, then
  /// sweep() fills reach_.
  MonotoneField(const Mesh2D& mesh, Point a, Point b);
  void sweep();

  std::size_t index(Point p) const {
    return static_cast<std::size_t>(p.y - rect_.y0) *
               static_cast<std::size_t>(rect_.width()) +
           static_cast<std::size_t>(p.x - rect_.x0);
  }

  Point a_;
  Point b_;
  Rect rect_;
  Coord stepX_;  // sign(b.x - a.x); 0 when the leg is vertical
  Coord stepY_;
  std::vector<std::uint8_t> reach_;
  std::vector<std::uint8_t> passable_;
};

}  // namespace meshrt
