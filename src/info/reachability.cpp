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
  return extractMonotonePath(a_, b_, order,
                             [this](Point p) { return reachable(p); });
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
