#include "route/planner.h"

#include <algorithm>
#include <bit>
#include <cassert>

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

// A corner slot is empty either at the mesh border (no way around on that
// side) or because the corner cell belongs to a *diagonally adjacent* MCC.
// Diagonal MCCs block as one composite unit (they satisfy the
// consecutive-MCC conditions of Eq. 1), so the usable rounding extreme is
// the neighbor's corresponding corner — resolve through the chain. `id`
// must be a live MCC.
std::optional<Point> resolveCorner(const QuadrantAnalysis& qa, int id,
                                   CornerKind kind) {
  std::vector<int> visited;
  for (;;) {
    const Mcc& m = qa.mccs()[static_cast<std::size_t>(id)];
    const Staircase& s = m.shape;
    std::optional<Point> corner;
    Point pos;
    switch (kind) {
      case CornerKind::C:
        corner = m.cornerC;
        pos = s.initializationCorner();
        break;
      case CornerKind::CPrime:
        corner = m.cornerCPrime;
        pos = s.oppositeCorner();
        break;
      case CornerKind::NW:
        corner = m.cornerNW;
        pos = {s.xmin() - 1, s.span(s.xmin()).hi + 1};
        break;
      case CornerKind::SE:
        corner = m.cornerSE;
        pos = {s.xmax() + 1, s.span(s.xmax()).lo - 1};
        break;
    }
    if (corner) return corner;
    if (!qa.localMesh().contains(pos)) return std::nullopt;
    const int next = qa.mccIndexAt(pos);
    if (next < 0) return std::nullopt;
    if (std::find(visited.begin(), visited.end(), next) != visited.end()) {
      return std::nullopt;
    }
    visited.push_back(id);
    id = next;
  }
}

}  // namespace

void PlanScratch::beginPlan() {
  if (++plan == 0) {  // the stamps wrapped: clear them once
    for (Memo& m : memo) m.plan = 0;
    plan = 1;
  }
}

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
  corners_.assign(qa.mccs().size() * 4, kUnresolved);
  fields_.clear();
  lastField_ = nullptr;
  fwd_.assign(mask_.size(), 0);
  fwdRect_ = Rect{};
  dist_.clear();
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

void PlanCache::resolveCorners(int id) {
  // Resolved on demand: a patch's few plans meet few of the MCCs, and a
  // retired slot, whose staircase is empty, is never asked about.
  for (const CornerKind kind : kCornerKinds) {
    corners_[static_cast<std::size_t>(id) * 4 +
             static_cast<std::size_t>(kind)] =
        resolveCorner(*qa_, id, kind).value_or(kNoCorner);
  }
}

bool PlanCache::reaches(Point a, Point b) {
  // Most calls in a column compile ask about its own destination.
  if (lastField_ == nullptr || b != lastTarget_) {
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
    lastTarget_ = b;
    lastField_ = it->second.data();
  }
  return (lastField_[word(a)] & bit(a.x)) != 0;
}

Distance PlanCache::distance(Point u, Point d) {
  if (!passable(d)) return kUnreachable;
  const Mesh2D& mesh = qa_->localMesh();
  if (dist_.empty() || distRoot_ != d) {
    // Breadth-first from d over the mask; the queue is a flat array.
    distRoot_ = d;
    dist_.assign(static_cast<std::size_t>(mesh.nodeCount()), kUnreachable);
    queue_.resize(dist_.size());
    std::size_t head = 0;
    std::size_t tail = 0;
    dist_[static_cast<std::size_t>(mesh.id(d))] = 0;
    queue_[tail++] = d;
    while (head < tail) {
      const Point p = queue_[head++];
      const Distance next = dist_[static_cast<std::size_t>(mesh.id(p))] + 1;
      mesh.forEachNeighbor(p, [&](Point q) {
        Distance& dq = dist_[static_cast<std::size_t>(mesh.id(q))];
        if (dq == kUnreachable && passable(q)) {
          dq = next;
          queue_[tail++] = q;
        }
      });
    }
  }
  return dist_[static_cast<std::size_t>(mesh.id(u))];
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

void PlanCache::blockingFrontier(Point a, Point b, std::vector<Point>& out) {
  sweepForward(a, b);
  out.clear();
  if (forwardReached(b)) return;
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
        out.push_back({x, y});
      }
    }
  }
}

std::vector<Point> PlanCache::monotonePath(Point a, Point b,
                                           PathOrder order) {
  sweepForward(a, b);
  return extractMonotonePath(a, b, order,
                             [this](Point p) { return forwardReached(p); });
}

Point PlanCache::firstStep(Point a, Point b, PathOrder order) {
  const Point stepX{a.x + (b.x > a.x ? 1 : -1), a.y};
  const Point stepY{a.x, a.y + (b.y > a.y ? 1 : -1)};
  const bool viaX = b.x != a.x && reaches(stepX, b);
  const bool viaY = b.y != a.y && reaches(stepY, b);
  if (viaX != viaY) return viaX ? stepX : stepY;
  sweepForward(a, b);
  const auto reached = [this](Point p) { return forwardReached(p); };
  for (Point p = b;;) {
    const std::optional<Point> prev =
        monotonePredecessor(a, b, p, order, reached);
    assert(prev && "PlanCache::firstStep: b is not reached from a");
    if (!prev || *prev == a) return p;
    p = *prev;
  }
}

DetourPlanner::DetourPlanner(const QuadrantAnalysis& qa, bool exactFallback,
                             PlanCache* cache, PlanScratch* scratch)
    : qa_(&qa),
      exactFallback_(exactFallback),
      cache_(cache),
      lentScratch_(scratch) {
  if (cache_ != nullptr) cache_->bind(qa);
}

std::optional<DetourPlanner::Plan> DetourPlanner::plan(
    Point u, Point d, const std::vector<int>* known, PathOrder order,
    std::vector<Point>* leg) {
  PlanCache* cache = known == nullptr ? cache_ : nullptr;
  PlanScratch& scratch =
      lentScratch_ != nullptr ? *lentScratch_ : ownScratch_;
  scratch.beginPlan();
  Ctx ctx{d, known, cache, &scratch, kEvalBudget};
  Point target = d;
  const Distance dist = eval(ctx, u, &target);

  Plan plan;
  plan.dist = dist;
  plan.target = target;
  // A direct plan meets the Manhattan lower bound: provably optimal, no
  // verification needed (the common case — keeps planning cheap).
  if (dist != manhattan(u, d) && exactFallback_) {
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
      std::vector<Point> path =
          extractBfsPath(qa_->localMesh(), sourceField(), u, d);
      plan.dist = exact;
      plan.target = d;
      plan.viaExactFallback = true;
      plan.firstStep = path[1];  // u != d: u..u is a direct plan
      if (leg != nullptr) *leg = std::move(path);
      return plan;
    }
  }
  if (dist == kUnreachable) return std::nullopt;

  plan.direct = (target == d);
  if (leg != nullptr) {
    *leg = legPath(u, target, known, order);
    plan.firstStep = leg->size() > 1 ? (*leg)[1] : u;
  } else if (u == target) {
    plan.firstStep = u;
  } else if (cache != nullptr) {
    plan.firstStep = cache->firstStep(u, target, order);
  } else {
    plan.firstStep = legPath(u, target, known, order)[1];
  }
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
  const Mesh2D& mesh = qa_->localMesh();
  const auto pass = [&](Point p) { return passable(p, ctx.known); };
  PlanScratch& scratch = *ctx.scratch;

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
  if (field) {
    scratch.frontier = field->blockingFrontier();
  } else {
    ctx.cache->blockingFrontier(a, ctx.d, scratch.frontier);
  }
  std::vector<int>& chain = scratch.chain;
  chain.clear();
  for (const Point cell : scratch.frontier) {
    const int id = qa_->mccIndexAt(cell);
    if (id >= 0) chain.push_back(id);
  }
  std::sort(chain.begin(), chain.end());
  chain.erase(std::unique(chain.begin(), chain.end()), chain.end());
  if (chain.empty()) return kUnreachable;

  // Detour candidates (Eq. 3 generalized): the rounding extremes of every
  // chain member. The paper's P_0/P_n use c_1 and c'_n; the two-corner hops
  // P_i (c'_i then c_{i+1}) emerge from the recursion: pricing c'_i
  // recurses, finds the residual chain, and hops to c_{i+1} itself. The
  // NW/SE extremes cover legs whose movement signature the paper's in-band
  // chains never produce but multi-phase corner-to-corner legs do (e.g.
  // approaching d from the east after rounding the chain's east end).
  // This evaluation's candidates go on top of the stack, above its
  // callers'; the recursion below pushes and pops its own above them and
  // may reallocate the stack, so they are read by index, never through a
  // reference into it.
  std::vector<Point>& candidates = scratch.candidates;
  const std::size_t first = candidates.size();
  for (const int id : chain) {
    for (const CornerKind kind : kCornerKinds) {
      const std::optional<Point> corner =
          cache_ != nullptr ? cache_->corner(id, kind)
                            : resolveCorner(*qa_, id, kind);
      if (!corner || *corner == a ||
          std::find(candidates.begin() + static_cast<std::ptrdiff_t>(first),
                    candidates.end(), *corner) != candidates.end()) {
        continue;
      }
      candidates.push_back(*corner);
    }
  }
  const std::size_t last = candidates.size();
  const auto nodes = static_cast<std::size_t>(mesh.nodeCount());
  if (scratch.memo.size() < nodes) scratch.memo.resize(nodes);

  Distance best = kUnreachable;
  for (std::size_t i = first; i < last; ++i) {
    const Point q = candidates[i];
    // The Manhattan leg a -> q must itself be clear (the paper's chains
    // guarantee this for their candidates; we verify instead of assume).
    const bool legClear =
        ctx.cache != nullptr
            ? ctx.cache->reaches(a, q)
            : MonotoneField(mesh, a, q, pass).targetReachable();
    if (!legClear) continue;

    const auto slot = static_cast<std::size_t>(mesh.id(q));
    Distance rest;
    if (scratch.memo[slot].plan == scratch.plan) {
      rest = scratch.memo[slot].dist;
      if (rest == PlanScratch::kInProgress) continue;  // corner cycle
    } else {
      scratch.memo[slot] = {scratch.plan, PlanScratch::kInProgress};
      rest = eval(ctx, q, nullptr);
      scratch.memo[slot].dist = rest;
    }
    if (rest == kUnreachable) continue;

    const Distance total = manhattan(a, q) + rest;
    if (best == kUnreachable || total < best) {
      best = total;
      if (chosenTarget) *chosenTarget = q;
    }
  }
  scratch.candidates.resize(first);
  return best;
}

}  // namespace meshrt
