// The multi-phase detour planner: Equations 1-3 of the paper, generalized.
//
// Blocking sequences are not detected by pattern-matching the geometric
// conditions of Eq. 1 directly; instead the planner computes the exact
// monotone-reachability field toward the target and, when blocked, reads the
// blocking sequence off the frontier of the reachable set (the MCCs owning
// the cells that cut u from d — the same chain Eq. 1 describes, but exact in
// every border/nesting corner case). Detour candidates are the corners of
// the chain members (Eq. 3's P_0, P_i, P_n), priced recursively by Eq. 2
// with memoization.
//
// Knowledge-parameterized: RB2 plans against every MCC (full information,
// model B2); RB3 plans against the subset its current node has triples for
// (model B3) and replans when the message bumps into an unknown MCC.
//
// Full-knowledge plans can share a PlanCache: every monotone-reachability
// and exact-distance answer they ask for, and every resolved MCC corner,
// depends only on the quadrant's analysis and the target cell, so one
// router's plans (a whole compiled column, say) compute each answer once
// instead of once per plan. A plan that only needs its first step (a
// column entry) builds no leg, and a plan allocates nothing once the
// storage it reuses has grown.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fault/analysis.h"
#include "info/reachability.h"

namespace meshrt {

/// The four rounding extremes of an MCC that Eq. 3 detours through: c,
/// c', and the NW/SE extremes (see Mcc).
enum class CornerKind : std::uint8_t { C, CPrime, NW, SE };
inline constexpr CornerKind kCornerKinds[] = {
    CornerKind::C, CornerKind::CPrime, CornerKind::NW, CornerKind::SE};

/// Storage DetourPlanner's Eq. 2 recursion reuses from plan to plan, so a
/// plan allocates nothing once it has grown. The memo is indexed by local
/// node, sized by the first plan that recurses and stamped with its plan,
/// so a new plan clears nothing. `candidates` is a stack: each
/// evaluation's detour candidates sit above its callers', which stay live
/// across the recursion.
struct PlanScratch {
  struct Memo {
    std::uint32_t plan = 0;
    Distance dist = 0;  // kInProgress while that evaluation runs
  };
  static constexpr Distance kInProgress = -2;

  /// Starts a plan: every memo slot reads as unvisited.
  void beginPlan();

  std::vector<Memo> memo;
  std::uint32_t plan = 0;
  std::vector<Point> frontier;
  std::vector<int> chain;
  std::vector<Point> candidates;
};

/// Exact full-knowledge answers for one quadrant analysis (DESIGN.md
/// section 3, item 4): the MCC mask, each MCC's resolved detour corners,
/// one monotone-reach bitset per target, one forward bitset for the latest
/// rectangle swept from its source and the safe-node BFS distance field of
/// the latest destination. Each answer equals what the uncached planner
/// computes per call.
class PlanCache {
 public:
  /// Reach fields are dropped all at once when one more would take them
  /// past this many bytes, so a long-lived router's cache stays bounded
  /// whatever it routes.
  static constexpr std::size_t kMaxFieldBytes = std::size_t{4} << 20;

  /// Binds to `qa`, dropping every cached answer (resolved corners
  /// included) and rebuilding the mask, unless already bound to this
  /// analysis at its current labeler version. The key is the address and
  /// version, so `qa` must outlive the binding.
  void bind(const QuadrantAnalysis& qa);

  /// The cell belongs to no MCC (full-knowledge passability).
  bool passable(Point p) const { return (mask_[word(p)] & bit(p.x)) != 0; }

  /// MonotoneField(mesh, a, b, passable).targetReachable(), read from b's
  /// reach field: one reverse sweep from b on the first query about b.
  bool reaches(Point a, Point b);

  /// bfsDistances(mesh, u, passable)[d], read from d's field (safe-node
  /// distance is symmetric); only the latest d's field is kept.
  /// kUnreachable when u or d is blocked.
  Distance distance(Point u, Point d);

  /// Sweeps MonotoneField(mesh, a, b, passable)'s reach set into the one
  /// forward bitset: the cells of rect(a, b) that a monotone passable path
  /// joins to a. A monotone path reversed is still monotone, so this is
  /// a's reach field clipped to the rectangle, swept from a's end instead
  /// of stored per source.
  void sweepForward(Point a, Point b);

  /// MonotoneField::reachable(p) for the latest sweepForward.
  bool forwardReached(Point p) const {
    return fwdRect_.contains(p) && (fwd_[word(p)] & bit(p.x)) != 0;
  }

  /// MonotoneField(mesh, a, b, passable).blockingFrontier(), same order,
  /// into `out`.
  void blockingFrontier(Point a, Point b, std::vector<Point>& out);

  /// MonotoneField(mesh, a, b, passable).extractPath(order).
  std::vector<Point> monotonePath(Point a, Point b, PathOrder order);

  /// monotonePath(a, b, order)[1] without building the path; a != b and
  /// reaches(a, b). Every cell of the path reaches b, so when only one of
  /// a's two steps toward b reaches b, that step is the answer; otherwise
  /// the path's backward walk runs, keeping only its last cell before a.
  Point firstStep(Point a, Point b, PathOrder order);

  /// The usable `kind` corner of MCC `id` (a live id of the bound
  /// analysis): its own corner, or the one a diagonally adjacent MCC's
  /// chain resolves to; nullopt when there is none. An MCC's four corners
  /// are resolved on its first query after a bind.
  std::optional<Point> corner(int id, CornerKind kind) {
    const std::size_t slot = static_cast<std::size_t>(id) * 4;
    if (corners_[slot] == kUnresolved) resolveCorners(id);
    const Point c = corners_[slot + static_cast<std::size_t>(kind)];
    if (c == kNoCorner) return std::nullopt;
    return c;
  }

  /// Bytes held by reach fields; at most the larger of one field and
  /// kMaxFieldBytes.
  std::size_t fieldBytes() const {
    return fields_.size() * rowWords_ * static_cast<std::size_t>(height_) *
           sizeof(std::uint64_t);
  }

 private:
  /// corners_ marks a missing corner, and the corners of an MCC not yet
  /// resolved, with cells outside every mesh.
  static constexpr Point kNoCorner{-1, -1};
  static constexpr Point kUnresolved{-2, -2};

  // Bitsets (the mask and every reach field) give each row rowWords_
  // 64-bit words; cell (x, y) is bit x % 64 of word(p).
  std::size_t word(Point p) const {
    return static_cast<std::size_t>(p.y) * rowWords_ +
           static_cast<std::size_t>(p.x) / 64;
  }
  static std::uint64_t bit(Coord x) {
    return std::uint64_t{1} << (static_cast<unsigned>(x) % 64);
  }
  /// Sets a's bit in the zeroed `bits` iff a monotone passable path a..b
  /// exists.
  void sweepReach(Point b, std::uint64_t* bits) const;
  /// Bits of the latest forward rectangle's columns in word w of a row.
  std::uint64_t fwdColumns(std::size_t w) const;
  /// Fills MCC id's four corners_ entries.
  void resolveCorners(int id);

  const QuadrantAnalysis* qa_ = nullptr;
  std::uint64_t version_ = 0;
  Coord height_ = 0;
  std::size_t rowWords_ = 0;
  std::vector<std::uint64_t> mask_;  // passable cells
  std::vector<Point> corners_;       // 4 per MCC slot, by CornerKind
  std::unordered_map<Point, std::vector<std::uint64_t>, PointHash> fields_;
  Point lastTarget_;                           // reaches()' latest target
  const std::uint64_t* lastField_ = nullptr;   // and its field
  std::vector<std::uint64_t> fwd_;  // sweepForward's bitset
  Rect fwdRect_;                     // and its rectangle
  Point distRoot_;
  std::vector<Distance> dist_;  // BFS field rooted at distRoot_, by node
  std::vector<Point> queue_;    // the BFS's queue
};

class DetourPlanner {
 public:
  /// `exactFallback`: verify the Eq. 2-3 result against the exact distance
  /// field the knowledge supports, and fall back to it when the recursion's
  /// clear-Manhattan-leg assumption fails (dense fault fields). The
  /// paper-literal mode (false) is kept for the ablation bench.
  /// `cache` (bound to `qa` here) answers full-knowledge plans; plans
  /// with a `known` list, and every plan when it is null, compute each
  /// answer. `scratch` is the storage plans reuse; without it the planner
  /// uses its own. Both must outlive the planner.
  explicit DetourPlanner(const QuadrantAnalysis& qa,
                         bool exactFallback = true,
                         PlanCache* cache = nullptr,
                         PlanScratch* scratch = nullptr);

  struct Plan {
    /// Planned distance from u to d under the planner's knowledge.
    Distance dist = kUnreachable;
    /// Next intermediate destination: d itself when a Manhattan path
    /// exists, otherwise the chosen detour corner.
    Point target;
    bool direct = false;
    /// True when the Eq. 2-3 machinery was bypassed by the exact field.
    bool viaExactFallback = false;
    /// The leg's second cell: the step u takes toward target (u itself
    /// when u == d).
    Point firstStep;
  };

  /// Plans from u to d (both in the quadrant's local frame, both safe).
  /// `known` lists the MCC ids the decision may treat as obstacles;
  /// nullptr means full knowledge. Returns nullopt when no candidate
  /// detour reaches d under this knowledge. `order` shapes the leg. When
  /// `leg` is given, it receives the leg u..target inclusive (the
  /// Manhattan leg, or the exact-field path in fallback plans); without
  /// it, only the leg's first step is worked out.
  std::optional<Plan> plan(Point u, Point d, const std::vector<int>* known,
                           PathOrder order = PathOrder::Balanced,
                           std::vector<Point>* leg = nullptr);

  /// The distance function D(u, d) of Eq. 2 (kUnreachable when no safe
  /// detour is found). Exposed for tests and the ablation benches.
  Distance distance(Point u, Point d, const std::vector<int>* known);

 private:
  struct Ctx {
    Point d;
    const std::vector<int>* known;  // sorted ids, or nullptr for full
    PlanCache* cache;               // non-null only for full knowledge
    PlanScratch* scratch;
    std::size_t budget = 0;
  };

  // Inline: the monotone fields call it once per rectangle cell.
  bool passable(Point p, const std::vector<int>* known) const {
    if (known == nullptr && cache_ != nullptr) return cache_->passable(p);
    const int id = qa_->mccIndexAt(p);
    if (id < 0) return true;  // safe node
    if (known == nullptr) return false;
    return !std::binary_search(known->begin(), known->end(), id);
  }
  Distance eval(Ctx& ctx, Point a, Point* chosenTarget);
  /// MonotoneField(u, target)'s extracted path under `known`.
  std::vector<Point> legPath(Point u, Point target,
                             const std::vector<int>* known, PathOrder order);

  const QuadrantAnalysis* qa_;
  bool exactFallback_;
  PlanCache* cache_;
  PlanScratch* lentScratch_;  // or, when null, ownScratch_
  PlanScratch ownScratch_;
  std::size_t fallbacksTaken_ = 0;

 public:
  /// Number of plans (since construction) that needed the exact fallback.
  std::size_t fallbacksTaken() const { return fallbacksTaken_; }
};

}  // namespace meshrt
