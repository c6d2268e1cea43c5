#include "route/planner.h"

#include <algorithm>
#include <bit>

#include "route/bfs.h"

namespace meshrt {

namespace {

/// Recursion budget per plan() call; generous (typical routes evaluate a
/// handful of corners) but bounds adversarial fault layouts.
constexpr std::size_t kEvalBudget = 4096;

// One half-row pass of a word-parallel monotone sweep. The reached cells
// in row[lo..hi] spread through runs of passable cells (m) away from
// their seeds, 64 cells per word operation: eastward by the carry of an
// addition, westward by doubling shifts. Returns the OR of the result.
std::uint64_t spreadEast(const std::uint64_t* m, std::uint64_t* row,
                         std::size_t lo, std::size_t hi) {
  std::uint64_t any = 0;
  std::uint64_t carry = 0;
  for (std::size_t w = lo; w <= hi; ++w) {
    const std::uint64_t s = (row[w] | carry) & m[w];
    const std::uint64_t f = (((m[w] + s) ^ m[w]) & m[w]) | s;
    carry = f >> 63;
    row[w] = f;
    any |= f;
  }
  return any;
}

std::uint64_t spreadWest(const std::uint64_t* m, std::uint64_t* row,
                         std::size_t lo, std::size_t hi) {
  std::uint64_t any = 0;
  std::uint64_t carry = 0;
  for (std::size_t w = hi + 1; w-- > lo;) {
    std::uint64_t g = (row[w] | carry) & m[w];
    std::uint64_t p = m[w];
    for (unsigned shift = 1; shift < 64; shift *= 2) {
      g |= p & (g >> shift);
      p &= p >> shift;
    }
    carry = g << 63;
    row[w] = g;
    any |= g;
  }
  return any;
}

}  // namespace

void PlanCache::bind(const QuadrantAnalysis& qa) {
  if (qa_ == &qa && version_ == qa.version()) return;
  qa_ = &qa;
  version_ = qa.version();
  const Mesh2D& mesh = qa.localMesh();
  height_ = mesh.height();
  rowWords_ = (static_cast<std::size_t>(mesh.width()) + 63) / 64;
  mask_.assign(rowWords_ * static_cast<std::size_t>(height_), 0);
  for (Coord y = 0; y < height_; ++y) {
    for (Coord x = 0; x < mesh.width(); ++x) {
      if (qa.mccIndexAt({x, y}) < 0) mask_[word({x, y})] |= bit(x);
    }
  }
  fields_.clear();
  fwd_.assign(mask_.size(), 0);
  fwdRect_ = Rect{};
  dist_.reset();
}

void PlanCache::sweepReach(Point b, std::uint64_t* bits) const {
  if (!passable(b)) return;
  // a reaches b iff a is passable and one of its two steps toward b
  // reaches b. Rows are settled outward from b's row: a cell is seeded
  // when the cell one row nearer b reaches b, and seeds spread away from
  // b's column through runs of passable cells (the step along the row).
  // Cells in b's row or column lie in two halves and get the same answer
  // in each.
  const std::size_t wb = static_cast<std::size_t>(b.x) / 64;
  std::vector<std::uint64_t> east(rowWords_);
  std::vector<std::uint64_t> west(rowWords_);
  for (const Coord sy : {Coord{1}, Coord{-1}}) {
    std::fill(east.begin(), east.end(), std::uint64_t{0});
    std::fill(west.begin(), west.end(), std::uint64_t{0});
    east[wb] = west[wb] = bit(b.x);
    for (Coord y = b.y; y >= 0 && y < height_; y += sy) {
      const std::uint64_t* m = mask_.data() + word({0, y});
      std::uint64_t* out = bits + word({0, y});
      const std::uint64_t any = spreadEast(m, east.data(), wb, rowWords_ - 1) |
                                spreadWest(m, west.data(), 0, wb);
      for (std::size_t w = wb; w < rowWords_; ++w) out[w] |= east[w];
      for (std::size_t w = 0; w <= wb; ++w) out[w] |= west[w];
      if (any == 0) break;  // no seeds left for the rows beyond
    }
  }
}

bool PlanCache::reaches(Point a, Point b) {
  auto it = fields_.find(b);
  if (it == fields_.end()) {
    const std::size_t words = rowWords_ * static_cast<std::size_t>(height_);
    if ((fields_.size() + 1) * words * sizeof(std::uint64_t) >
        kMaxFieldBytes) {
      fields_.clear();
    }
    it = fields_.emplace(b, std::vector<std::uint64_t>(words)).first;
    sweepReach(b, it->second.data());
  }
  return (it->second[word(a)] & bit(a.x)) != 0;
}

Distance PlanCache::distance(Point u, Point d) {
  if (!passable(d)) return kUnreachable;
  if (!dist_ || distRoot_ != d) {
    distRoot_ = d;
    dist_ = bfsDistances(qa_->localMesh(), d,
                         [&](Point p) { return passable(p); });
  }
  return (*dist_)[u];
}

std::uint64_t PlanCache::fwdColumns(std::size_t w) const {
  std::uint64_t cols = ~std::uint64_t{0};
  if (w == static_cast<std::size_t>(fwdRect_.x0) / 64) {
    cols &= ~(bit(fwdRect_.x0) - 1);
  }
  if (w == static_cast<std::size_t>(fwdRect_.x1) / 64) {
    cols &= (bit(fwdRect_.x1) << 1) - 1;
  }
  return cols;
}

void PlanCache::sweepForward(Point a, Point b) {
  fwdRect_ = Rect::between(a, b);
  // Rows run from a's toward b's, each seeded from the row before (a
  // alone in a's row) and spread toward b's column. A spread runs on past
  // the rectangle to the end of its word; cells out there only ever seed
  // cells further out, and every reader masks them off.
  const std::size_t lo = static_cast<std::size_t>(fwdRect_.x0) / 64;
  const std::size_t hi = static_cast<std::size_t>(fwdRect_.x1) / 64;
  const bool east = b.x >= a.x;
  const Coord sy = b.y >= a.y ? 1 : -1;
  const std::uint64_t* prev = nullptr;
  for (Coord y = a.y;; y += sy) {
    const std::uint64_t* m = mask_.data() + word({0, y});
    std::uint64_t* row = fwd_.data() + word({0, y});
    if (prev == nullptr) {
      std::fill(row + lo, row + hi + 1, std::uint64_t{0});
      row[static_cast<std::size_t>(a.x) / 64] = bit(a.x);
    } else {
      std::copy(prev + lo, prev + hi + 1, row + lo);
    }
    if (east) {
      spreadEast(m, row, lo, hi);
    } else {
      spreadWest(m, row, lo, hi);
    }
    if (y == b.y) break;
    prev = row;
  }
}

std::vector<Point> PlanCache::blockingFrontier(Point a, Point b) {
  sweepForward(a, b);
  std::vector<Point> frontier;
  if (forwardReached(b)) return frontier;
  // Blocked cells of the rectangle one step toward b from a reached cell:
  // from the reached cells of the same row shifted one column toward b,
  // or of the row one step nearer a.
  const std::size_t lo = static_cast<std::size_t>(fwdRect_.x0) / 64;
  const std::size_t hi = static_cast<std::size_t>(fwdRect_.x1) / 64;
  for (Coord y = fwdRect_.y0; y <= fwdRect_.y1; ++y) {
    const std::uint64_t* m = mask_.data() + word({0, y});
    const std::uint64_t* row = fwd_.data() + word({0, y});
    const std::uint64_t* nearer =
        y == a.y ? nullptr
                 : fwd_.data() + word({0, b.y > a.y ? y - 1 : y + 1});
    for (std::size_t w = lo; w <= hi; ++w) {
      std::uint64_t from = nearer != nullptr ? nearer[w] : 0;
      if (b.x > a.x) {
        from |= (row[w] << 1) | (w > lo ? row[w - 1] >> 63 : 0);
      } else if (b.x < a.x) {
        from |= (row[w] >> 1) | (w < hi ? row[w + 1] << 63 : 0);
      }
      for (std::uint64_t f = from & ~m[w] & fwdColumns(w); f != 0;
           f &= f - 1) {
        const auto x = static_cast<Coord>(w * 64) + std::countr_zero(f);
        frontier.push_back({x, y});
      }
    }
  }
  return frontier;
}

std::vector<Point> PlanCache::monotonePath(Point a, Point b,
                                           PathOrder order) {
  sweepForward(a, b);
  return extractMonotonePath(a, b, order,
                             [this](Point p) { return forwardReached(p); });
}

DetourPlanner::DetourPlanner(const QuadrantAnalysis& qa, bool exactFallback,
                             PlanCache* cache)
    : qa_(&qa), exactFallback_(exactFallback), cache_(cache) {
  if (cache_ != nullptr) cache_->bind(qa);
}

std::optional<DetourPlanner::Plan> DetourPlanner::plan(
    Point u, Point d, const std::vector<int>* known, PathOrder order) {
  PlanCache* cache = known == nullptr ? cache_ : nullptr;
  Ctx ctx{d, known, cache, {}, {}, kEvalBudget};
  evaluations_ = 0;
  Point target = d;
  const Distance dist = eval(ctx, u, &target);

  // A direct plan meets the Manhattan lower bound: provably optimal, no
  // verification needed (the common case — keeps planning cheap).
  if (dist == manhattan(u, d)) {
    Plan plan;
    plan.dist = dist;
    plan.target = d;
    plan.direct = true;
    plan.legPath = legPath(u, d, known, order);
    return plan;
  }

  if (exactFallback_) {
    // Theorem 1 rests on Eq. 3's premise that the Manhattan legs to the
    // blocking sequence's corners are clear; dense fields can violate it.
    // The information model provides everything needed to evaluate the
    // exact distance field, so verify — and fall back when the recursion
    // came up short (or found nothing). The fallback path is always read
    // off the source-rooted field; the cache only answers the distance.
    const auto pass = [&](Point p) { return passable(p, known); };
    std::optional<NodeMap<Distance>> field;
    const auto sourceField = [&]() -> const NodeMap<Distance>& {
      if (!field) field = bfsDistances(qa_->localMesh(), u, pass);
      return *field;
    };
    const Distance exact =
        cache != nullptr ? cache->distance(u, d) : sourceField()[d];
    if (exact == kUnreachable) return std::nullopt;
    if (dist == kUnreachable || dist > exact) {
      ++fallbacksTaken_;
      Plan fallback;
      fallback.dist = exact;
      fallback.target = d;
      fallback.direct = false;
      fallback.viaExactFallback = true;
      fallback.legPath =
          extractBfsPath(qa_->localMesh(), sourceField(), u, d);
      return fallback;
    }
  }
  if (dist == kUnreachable) return std::nullopt;

  Plan plan;
  plan.dist = dist;
  plan.target = target;
  plan.direct = (target == d);
  plan.legPath = legPath(u, target, known, order);
  return plan;
}

std::vector<Point> DetourPlanner::legPath(Point u, Point target,
                                          const std::vector<int>* known,
                                          PathOrder order) {
  if (known == nullptr && cache_ != nullptr) {
    return cache_->monotonePath(u, target, order);
  }
  return MonotoneField(qa_->localMesh(), u, target,
                       [&](Point p) { return passable(p, known); })
      .extractPath(order);
}

Distance DetourPlanner::distance(Point u, Point d,
                                 const std::vector<int>* known) {
  const auto plan = this->plan(u, d, known);
  return plan ? plan->dist : kUnreachable;
}

Distance DetourPlanner::eval(Ctx& ctx, Point a, Point* chosenTarget) {
  ++evaluations_;
  const Mesh2D& mesh = qa_->localMesh();
  const auto pass = [&](Point p) { return passable(p, ctx.known); };

  // Base case of Eq. 2: a Manhattan distance path exists. Without a
  // cache, one forward field answers it and the frontier below.
  std::optional<MonotoneField> field;
  if (ctx.cache == nullptr) field.emplace(mesh, a, ctx.d, pass);
  if (field ? field->targetReachable() : ctx.cache->reaches(a, ctx.d)) {
    if (chosenTarget) *chosenTarget = ctx.d;
    return manhattan(a, ctx.d);
  }
  if (ctx.budget == 0) return kUnreachable;
  --ctx.budget;

  // The closest blocking sequence: MCCs owning the frontier cells that cut
  // a from d, ordered along the cut (Eq. 1's F_1 .. F_n).
  std::vector<int> chainIds;
  for (Point cell : field ? field->blockingFrontier()
                          : ctx.cache->blockingFrontier(a, ctx.d)) {
    const int id = qa_->mccIndexAt(cell);
    if (id >= 0) chainIds.push_back(id);
  }
  std::sort(chainIds.begin(), chainIds.end());
  chainIds.erase(std::unique(chainIds.begin(), chainIds.end()),
                 chainIds.end());
  if (chainIds.empty()) return kUnreachable;

  // Detour candidates (Eq. 3 generalized): the rounding extremes of every
  // chain member. The paper's P_0/P_n use c_1 and c'_n; the two-corner hops
  // P_i (c'_i then c_{i+1}) emerge from the recursion: pricing c'_i
  // recurses, finds the residual chain, and hops to c_{i+1} itself. The
  // NW/SE extremes cover legs whose movement signature the paper's in-band
  // chains never produce but multi-phase corner-to-corner legs do (e.g.
  // approaching d from the east after rounding the chain's east end).
  std::vector<Point> candidates;
  auto addCandidate = [&](const std::optional<Point>& corner) {
    if (!corner || *corner == a) return;
    if (std::find(candidates.begin(), candidates.end(), *corner) !=
        candidates.end()) {
      return;
    }
    candidates.push_back(*corner);
  };

  // A corner slot is empty either at the mesh border (no way around on that
  // side) or because the corner cell belongs to a *diagonally adjacent*
  // MCC. Diagonal MCCs block as one composite unit (they satisfy the
  // consecutive-MCC conditions of Eq. 1), so the usable rounding extreme is
  // the neighbor's corresponding corner — resolve through the chain.
  const auto& mccs = qa_->mccs();
  enum class CornerKind { C, CPrime, NW, SE };
  auto cornerOf = [](const Mcc& m, CornerKind k) {
    switch (k) {
      case CornerKind::C:
        return m.cornerC;
      case CornerKind::CPrime:
        return m.cornerCPrime;
      case CornerKind::NW:
        return m.cornerNW;
      case CornerKind::SE:
        return m.cornerSE;
    }
    return m.cornerC;
  };
  auto cornerPos = [](const Mcc& m, CornerKind k) {
    const Staircase& s = m.shape;
    switch (k) {
      case CornerKind::C:
        return s.initializationCorner();
      case CornerKind::CPrime:
        return s.oppositeCorner();
      case CornerKind::NW:
        return Point{s.xmin() - 1, s.span(s.xmin()).hi + 1};
      case CornerKind::SE:
        return Point{s.xmax() + 1, s.span(s.xmax()).lo - 1};
    }
    return s.initializationCorner();
  };
  auto resolveCorner = [&](int id, CornerKind kind) -> std::optional<Point> {
    std::vector<int> visited;
    for (;;) {
      const Mcc& m = mccs[static_cast<std::size_t>(id)];
      if (auto corner = cornerOf(m, kind)) return corner;
      const Point pos = cornerPos(m, kind);
      if (!qa_->localMesh().contains(pos)) return std::nullopt;
      const int next = qa_->mccIndexAt(pos);
      if (next < 0) return std::nullopt;
      if (std::find(visited.begin(), visited.end(), next) != visited.end()) {
        return std::nullopt;
      }
      visited.push_back(id);
      id = next;
    }
  };

  for (int id : chainIds) {
    addCandidate(resolveCorner(id, CornerKind::C));
    addCandidate(resolveCorner(id, CornerKind::CPrime));
    addCandidate(resolveCorner(id, CornerKind::NW));
    addCandidate(resolveCorner(id, CornerKind::SE));
  }

  Distance best = kUnreachable;
  for (Point q : candidates) {
    // The Manhattan leg a -> q must itself be clear (the paper's chains
    // guarantee this for their candidates; we verify instead of assume).
    const bool legClear =
        ctx.cache != nullptr
            ? ctx.cache->reaches(a, q)
            : MonotoneField(mesh, a, q, pass).targetReachable();
    if (!legClear) continue;

    Distance rest;
    if (auto it = ctx.memo.find(q); it != ctx.memo.end()) {
      rest = it->second;
    } else if (ctx.inProgress[q]) {
      continue;  // cycle in the corner recursion
    } else {
      ctx.inProgress[q] = true;
      rest = eval(ctx, q, nullptr);
      ctx.inProgress[q] = false;
      ctx.memo.emplace(q, rest);
    }
    if (rest == kUnreachable) continue;

    const Distance total = manhattan(a, q) + rest;
    if (best == kUnreachable || total < best) {
      best = total;
      if (chosenTarget) *chosenTarget = q;
    }
  }
  return best;
}

}  // namespace meshrt
