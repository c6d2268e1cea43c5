// Compiled next-hop tables: the serving-side representation of a router.
//
// A RouteColumn fixes one destination d and stores, for every node u, the
// first hop of router.route(u, d) — one byte per node. Serving a query
// (s, d) is then a chase: follow stored hops from s until d, O(1) per hop
// with zero planning. The chase realizes the classic per-hop table
// semantics (IP forwarding, NoC route tables): its path is the fixed
// point of the router's first-hop function, which equals the router's own
// path exactly when the router is hop-consistent (route(u,d)'s tail is
// route(next,d) — true for the BFS oracle; the adaptive routers may pick
// a different equal-length path per hop, and detouring routers can even
// livelock, which the bounded chase converts into ChaseDiverged). See
// DESIGN.md section 7.1.
//
// Under fault churn, columns are patched instead of recompiled: a fault
// toggle can only invalidate entries whose chase trajectory touches the
// delta's label-change footprint (chases are suffix-closed, so any chase
// avoiding the footprint still serves a valid path, though not always
// the one a fresh compile would: rb2's first hop also reads labels off
// its chase), and
// chaseUpstream() finds exactly those entries by reverse reachability
// from the footprint over the column's hop graph — output-sensitive
// O(|affected| + |footprint|), the table layer's half of the O(delta)
// epoch-publishing contract. The footprint always holds the toggled cell
// itself, so every live column gets a patched successor on every event.
// See DESIGN.md sections 7.2 and 9.
//
// TableizedRouter, at the bottom, is the tests' frozen-fault reference
// for the service's compiled columns; nothing in production serves
// through it.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_set.h"
#include "route/router.h"

namespace meshrt {

/// How a table-served query ended.
enum class ServeStatus : std::uint8_t {
  Delivered = 0,
  /// Source or destination faulty in the serving epoch.
  EndpointFaulty = 1,
  /// The chase hit a node whose entry says the router found no route.
  NoRoute = 2,
  /// The chase exceeded the step bound (a per-hop livelock of the
  /// underlying router, e.g. e-cube ring detours chasing each other).
  Diverged = 3,
  /// The query was not chased: its batch's serve deadline expired first.
  /// Not a routing verdict — retrying without a deadline may deliver.
  Deadline = 4,
};

constexpr std::string_view serveStatusName(ServeStatus s) {
  switch (s) {
    case ServeStatus::Delivered:
      return "delivered";
    case ServeStatus::EndpointFaulty:
      return "endpoint-faulty";
    case ServeStatus::NoRoute:
      return "no-route";
    case ServeStatus::Diverged:
      return "diverged";
    case ServeStatus::Deadline:
      return "deadline";
  }
  return "?";
}

/// One table-served route. `path` is filled only when the caller asked
/// for paths; `hops` is always valid for Delivered results.
struct ServedRoute {
  ServeStatus status = ServeStatus::NoRoute;
  Distance hops = 0;
  std::vector<Point> path;

  bool delivered() const { return status == ServeStatus::Delivered; }
};

/// Compiled next hops toward one destination. Immutable once handed to
/// readers; patched() produces the successor version for a fault delta.
class RouteColumn {
 public:
  /// next() value for nodes the router could not route from (faulty
  /// sources, unreachable pockets, the destination itself).
  static constexpr std::uint8_t kNoRoute = 0xFF;

  RouteColumn(const Mesh2D& mesh, Point dest);

  Point dest() const { return dest_; }

  /// Stored hop byte for node id: a Dir cast, or kNoRoute.
  std::uint8_t next(NodeId id) const {
    return next_[static_cast<std::size_t>(id)];
  }

  /// Copy with the entries of `cells` recomputed as fresh first hops of
  /// `router` (which must read the post-delta analysis); every other
  /// entry is carried verbatim. The route service patches exactly
  /// chaseUpstream(footprint) ∪ footprint per event.
  RouteColumn patched(Router& router, const FaultSet& faults,
                      const std::vector<NodeId>& cells) const;

 private:
  friend RouteColumn compileRouteColumn(Router& router,
                                        const FaultSet& faults, Point dest);

  /// (Re)computes one entry from a fresh first hop.
  void recomputeEntry(Router& router, const FaultSet& faults, Point s);

  Point dest_;
  std::vector<std::uint8_t> next_;
};

/// Compiles the column for `dest`: one router.firstHop(u, dest) per
/// healthy source u.
RouteColumn compileRouteColumn(Router& router, const FaultSet& faults,
                               Point dest);

/// router.firstHop(s, dest) as a stored hop byte: a Dir cast,
/// or RouteColumn::kNoRoute when the router has no route (or s is the
/// destination, or an endpoint is faulty). The single source of truth
/// both column encodings compile and patch through — bit-identity of
/// RouteColumn and PackedRouteColumn rests on this sharing.
std::uint8_t firstHopByte(Router& router, const FaultSet& faults, Point s,
                          Point dest);

/// Serves (s, column.dest()) by chasing stored hops. `maxSteps` bounds the
/// walk (pass mesh.nodeCount(); a livelock-free router's chase visits each
/// node at most once). Endpoint fault checks are the caller's job — the
/// chase itself never consults the fault set. Works on either column
/// encoding (anything with next()/dest() in the RouteColumn byte
/// convention — RouteColumn or PackedRouteColumn).
template <class Column>
ServedRoute chaseColumn(const Column& column, const Mesh2D& mesh, Point s,
                        std::size_t maxSteps, bool wantPath) {
  ServedRoute out;
  if (wantPath) out.path.push_back(s);
  // The chase runs on NodeIds: one indexed load plus one add per step.
  // Stored hops are always in-mesh neighbor steps (recomputeEntry only
  // stores directions taken from real router paths), so the row-major id
  // arithmetic can never step outside the mesh. Dir enumerators index
  // idStep directly (+X, -X, +Y, -Y).
  const NodeId width = mesh.width();
  const NodeId idStep[4] = {1, -1, width, -width};
  NodeId u = mesh.id(s);
  const NodeId dest = mesh.id(column.dest());
  Point p = s;  // tracked only for path capture
  for (std::size_t step = 0; step <= maxSteps; ++step) {
    if (u == dest) {
      out.status = ServeStatus::Delivered;
      out.hops = static_cast<Distance>(step);
      return out;
    }
    const std::uint8_t hop = column.next(u);
    if (hop == RouteColumn::kNoRoute) {
      out.status = ServeStatus::NoRoute;
      return out;
    }
    u += idStep[hop];
    // Debug-only fail-fast on corrupt hop bytes (the Point-based chase
    // got this from mesh.id()'s contains() assert): ids must stay in
    // range and +/-X steps must not wrap across a row edge.
    assert(u >= 0 && u < mesh.nodeCount());
    assert(static_cast<Dir>(hop) != Dir::PlusX || u % width != 0);
    assert(static_cast<Dir>(hop) != Dir::MinusX || u % width != width - 1);
    if (wantPath) {
      p = p + offset(static_cast<Dir>(hop));
      out.path.push_back(p);
    }
  }
  out.status = ServeStatus::Diverged;
  return out;
}

/// Every node whose chase trajectory in `column` touches a masked cell
/// (including the masked cells themselves), ascending NodeId order.
/// `maskedIds` may repeat and need not be sorted. Implemented as a
/// reverse-reachability BFS from the masked cells over the column's
/// functional hop graph, so the cost is O(|result| + |maskedIds|) — not
/// O(mesh) — and cyclic (diverging) chases that never touch a masked
/// cell are naturally skipped. This is the set of entries a delta
/// confined to the masked cells can possibly affect — see the
/// suffix-closure argument in DESIGN.md section 7.2. Works on either
/// column encoding, like chaseColumn.
template <class Column>
std::vector<NodeId> chaseUpstream(const Column& column, const Mesh2D& mesh,
                                  const std::vector<NodeId>& maskedIds) {
  // A chase from u touches a masked cell iff u reaches one following
  // stored hops, i.e. iff a masked cell reaches u along REVERSED hop
  // edges — and the reverse edges of w are exactly the <=4 neighbors
  // whose stored hop points at w. BFS from the masked set is therefore
  // output-sensitive: the nodes it visits are precisely the result. The
  // masked cells themselves always belong to the set (their labels
  // changed, so their own entries must refresh).
  //
  // Visited marks are epoch-stamped and thread-local: per-column patch
  // jobs run concurrently on the pool, and repeated calls (one per
  // present column per event) must not pay an O(mesh) clear each.
  thread_local std::vector<std::uint32_t> stamp;
  thread_local std::uint32_t epoch = 0;
  const auto n = static_cast<std::size_t>(mesh.nodeCount());
  if (stamp.size() < n) stamp.assign(n, 0);
  if (++epoch == 0) {  // stamp wrap: one real clear every 2^32 calls
    std::fill(stamp.begin(), stamp.end(), 0);
    epoch = 1;
  }

  const NodeId width = mesh.width();
  std::vector<NodeId> out;
  auto visit = [&](NodeId id) {
    auto& mark = stamp[static_cast<std::size_t>(id)];
    if (mark == epoch) return;
    mark = epoch;
    out.push_back(id);
  };
  for (NodeId id : maskedIds) visit(id);
  for (std::size_t scan = 0; scan < out.size(); ++scan) {
    const NodeId w = out[scan];
    const NodeId wx = w % width;
    // Dir enumerators index as +X, -X, +Y, -Y (see chaseColumn).
    if (wx > 0 && column.next(w - 1) == static_cast<std::uint8_t>(Dir::PlusX)) {
      visit(w - 1);
    }
    if (wx + 1 < width &&
        column.next(w + 1) == static_cast<std::uint8_t>(Dir::MinusX)) {
      visit(w + 1);
    }
    if (w >= width &&
        column.next(w - width) == static_cast<std::uint8_t>(Dir::PlusY)) {
      visit(w - width);
    }
    if (w + width < mesh.nodeCount() &&
        column.next(w + width) == static_cast<std::uint8_t>(Dir::MinusY)) {
      visit(w + width);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The tests' single-threaded table reference: serves (s, d) from a
/// column of `inner` compiled on first query per destination and cached
/// for the object's lifetime, so the fault set must stay frozen (no
/// churn). The route service and fleet differentials compare their
/// sharded, epoch-snapshotted columns against it at epoch 0. The cache is
/// a dense dest-id-indexed slot array.
class TableizedRouter {
 public:
  TableizedRouter(std::unique_ptr<Router> inner, const FaultSet& faults);

  /// Chases the compiled column, with the failure reason preserved.
  ServedRoute serve(Point s, Point d, bool wantPath = true);

 private:
  const RouteColumn& column(Point d);

  std::unique_ptr<Router> inner_;
  const FaultSet* faults_;
  /// Dest-id-indexed slots, null until first queried.
  std::vector<std::unique_ptr<const RouteColumn>> columns_;
};

}  // namespace meshrt
