#include "route/packed_column.h"

#include <algorithm>

namespace meshrt {

namespace {

/// Padding past the last packed byte so a 4-byte SIMD gather load at any
/// valid entry offset stays inside the allocation.
constexpr std::size_t kGatherPad = 3;

/// Chase-length sentinel for entries whose chase never terminates.
constexpr std::int64_t kCycle = -2;
constexpr std::int64_t kUnvisited = -1;

}  // namespace

PackedRouteColumn::PackedRouteColumn(const RouteColumn& dense,
                                     const Mesh2D& mesh)
    : dest_(dense.dest()),
      destId_(mesh.id(dense.dest())),
      width_(mesh.width()),
      nodeCount_(mesh.nodeCount()),
      nibbles_((static_cast<std::size_t>(mesh.nodeCount()) + 1) / 2 +
                   kGatherPad,
               static_cast<std::uint8_t>(kNoRouteNibble | (kNoRouteNibble
                                                           << 4))) {
  for (NodeId id = 0; id < nodeCount_; ++id) {
    const std::uint8_t hop = dense.next(id);
    setNibble(id, hop == RouteColumn::kNoRoute ? kNoRouteNibble : hop);
  }
  hopBound_ = deriveHopBound();
}

void PackedRouteColumn::setNibble(NodeId id, std::uint8_t value) {
  const auto i = static_cast<std::size_t>(id);
  auto& byte = nibbles_[i >> 1];
  const int shift = static_cast<int>(i & 1) * 4;
  byte = static_cast<std::uint8_t>((byte & (0xF0 >> shift)) |
                                   ((value & 0x7) << shift));
}

PackedRouteColumn PackedRouteColumn::patched(
    Router& router, const FaultSet& faults,
    const std::vector<NodeId>& cells) const {
  PackedRouteColumn out = *this;
  const Mesh2D& mesh = faults.mesh();
  for (NodeId id : cells) {
    const std::uint8_t hop =
        firstHopByte(router, faults, mesh.point(id), dest_);
    out.setNibble(id, hop == RouteColumn::kNoRoute ? kNoRouteNibble : hop);
  }
  out.hopBound_ = out.deriveHopBound();
  return out;
}

std::uint32_t PackedRouteColumn::deriveHopBound() const {
  // Chase length per node over the functional hop graph, resolved with
  // one memoized walk per unresolved node: follow hops until reaching
  // the destination (0 steps there), a no-route entry (its chase
  // terminates on the spot, 0 steps), an already-resolved node, or a
  // node on the current walk (a cycle: everything on the walk feeds the
  // cycle and never terminates). A terminating chase never revisits a
  // node, so every finite length — and hence the bound — is <=
  // nodeCount. O(nodeCount) total: each node is walked exactly once.
  const auto n = static_cast<std::size_t>(nodeCount_);
  std::vector<std::int64_t> length(n, kUnvisited);
  constexpr std::int64_t kOnWalk = -3;
  const NodeId idStep[4] = {1, -1, width_, -width_};
  std::vector<NodeId> walk;
  std::int64_t bound = 0;
  for (NodeId start = 0; start < nodeCount_; ++start) {
    if (length[static_cast<std::size_t>(start)] != kUnvisited) continue;
    walk.clear();
    NodeId u = start;
    std::int64_t base = 0;
    bool cycle = false;
    while (true) {
      if (u == destId_) break;  // delivered in 0 further steps
      auto& mark = length[static_cast<std::size_t>(u)];
      if (mark == kOnWalk) {
        cycle = true;
        break;
      }
      if (mark == kCycle) {
        cycle = true;
        break;
      }
      if (mark != kUnvisited) {
        base = mark;
        break;
      }
      const std::uint8_t raw = nibble(u);
      if (raw & 0x4) {
        mark = 0;  // NoRoute is decided at u without advancing
        break;
      }
      mark = kOnWalk;
      walk.push_back(u);
      u += idStep[raw];
    }
    for (auto it = walk.rbegin(); it != walk.rend(); ++it) {
      auto& mark = length[static_cast<std::size_t>(*it)];
      if (cycle) {
        mark = kCycle;
      } else {
        mark = ++base;
        bound = std::max(bound, base);
      }
    }
  }
  return static_cast<std::uint32_t>(
      std::min<std::int64_t>(bound, nodeCount_));
}

PackedRouteColumn compilePackedRouteColumn(Router& router,
                                           const FaultSet& faults,
                                           Point dest) {
  return PackedRouteColumn(compileRouteColumn(router, faults, dest),
                           faults.mesh());
}

}  // namespace meshrt
