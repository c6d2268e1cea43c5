#include "info/reachability.h"

#include <algorithm>
#include <cassert>

namespace meshrt {

namespace {
constexpr Coord sign(Coord v) { return v > 0 ? 1 : (v < 0 ? -1 : 0); }
}  // namespace

MonotoneField::MonotoneField(const Mesh2D& mesh, Point a, Point b)
    : a_(a),
      b_(b),
      rect_(Rect::between(a, b)),
      stepX_(sign(b.x - a.x)),
      stepY_(sign(b.y - a.y)) {
  assert(mesh.contains(a) && mesh.contains(b));
  (void)mesh;
  const auto cells = static_cast<std::size_t>(rect_.area());
  reach_.assign(cells, 0);
  passable_.assign(cells, 0);
}

void MonotoneField::sweep() {
  // Sweep in dependency order: predecessors of p are p - stepX and
  // p - stepY. Iterating rows from a's side outward visits both first.
  const Coord xBegin = stepX_ >= 0 ? rect_.x0 : rect_.x1;
  const Coord xEnd = stepX_ >= 0 ? rect_.x1 + 1 : rect_.x0 - 1;
  const Coord yBegin = stepY_ >= 0 ? rect_.y0 : rect_.y1;
  const Coord yEnd = stepY_ >= 0 ? rect_.y1 + 1 : rect_.y0 - 1;
  const Coord xInc = stepX_ >= 0 ? 1 : -1;
  const Coord yInc = stepY_ >= 0 ? 1 : -1;

  for (Coord y = yBegin; y != yEnd; y += yInc) {
    for (Coord x = xBegin; x != xEnd; x += xInc) {
      const Point p{x, y};
      const std::size_t i = index(p);
      if (!passable_[i]) continue;
      if (p == a_) {
        reach_[i] = 1;
        continue;
      }
      bool r = false;
      if (stepX_ != 0 && p.x != a_.x) {
        r = reach_[index({p.x - stepX_, p.y})] != 0;
      }
      if (!r && stepY_ != 0 && p.y != a_.y) {
        r = reach_[index({p.x, p.y - stepY_})] != 0;
      }
      reach_[i] = r ? 1 : 0;
    }
  }
}

std::vector<Point> MonotoneField::extractPath(PathOrder order) const {
  std::vector<Point> path;
  if (!targetReachable()) return path;
  Point p = b_;
  path.push_back(p);
  while (p != a_) {
    // Walk backward from b choosing a reachable predecessor. Balanced:
    // undo the dimension with the larger remaining delta — the "fully
    // adaptive" selection of Algorithm 2, which keeps both dimensions open
    // and paths central. XFirst: undo Y first (so the forward path runs
    // X-then-Y), yielding dimension-ordered legs.
    const Point px{p.x - stepX_, p.y};
    const Point py{p.x, p.y - stepY_};
    const bool canX = stepX_ != 0 && p.x != a_.x && reachable(px);
    const bool canY = stepY_ != 0 && p.y != a_.y && reachable(py);
    bool pickX;
    if (order == PathOrder::XFirst) {
      pickX = canX && !canY;
      if (canX && canY) pickX = false;  // undo Y while possible
    } else {
      const auto dx = static_cast<Distance>(p.x > a_.x ? p.x - a_.x
                                                       : a_.x - p.x);
      const auto dy = static_cast<Distance>(p.y > a_.y ? p.y - a_.y
                                                       : a_.y - p.y);
      pickX = canX && (!canY || dx >= dy);
    }
    if (pickX) {
      p = px;
    } else if (canY) {
      p = py;
    } else if (canX) {
      p = px;
    } else {
      assert(false && "extractPath: no reachable predecessor");
      return {};
    }
    path.push_back(p);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<Point> MonotoneField::blockingFrontier() const {
  std::vector<Point> frontier;
  if (targetReachable()) return frontier;
  for (Coord y = rect_.y0; y <= rect_.y1; ++y) {
    for (Coord x = rect_.x0; x <= rect_.x1; ++x) {
      const Point p{x, y};
      if (passable_[index(p)]) continue;
      bool adjacentToReach = false;
      const Point fromX{p.x - stepX_, p.y};
      const Point fromY{p.x, p.y - stepY_};
      if (stepX_ != 0 && rect_.contains(fromX) && reach_[index(fromX)]) {
        adjacentToReach = true;
      }
      if (stepY_ != 0 && rect_.contains(fromY) && reach_[index(fromY)]) {
        adjacentToReach = true;
      }
      if (adjacentToReach) frontier.push_back(p);
    }
  }
  return frontier;
}

}  // namespace meshrt
