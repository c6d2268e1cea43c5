#include "route/packed_column.h"

#include <algorithm>
#include <ranges>

namespace meshrt {

namespace {

/// Padding past the last packed byte so a 4-byte SIMD gather load at any
/// valid entry offset stays inside the allocation.
constexpr std::size_t kGatherPad = 3;

/// Chase-length sentinels: the chase never terminates / the node is on
/// the walk being resolved.
constexpr std::int32_t kCycle = -2;
constexpr std::int32_t kOnWalk = -3;

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
                                                           << 4))),
      hopWitness_(destId_) {
  for (NodeId id = 0; id < nodeCount_; ++id) {
    const std::uint8_t hop = dense.next(id);
    setNibble(id, hop == RouteColumn::kNoRoute ? kNoRouteNibble : hop);
  }
  raiseHopBound(std::views::iota(NodeId{0}, nodeCount_));
}

void PackedRouteColumn::setNibble(NodeId id, std::uint8_t value) {
  const auto i = static_cast<std::size_t>(id);
  auto& byte = nibbles_[i >> 1];
  const int shift = static_cast<int>(i & 1) * 4;
  byte = static_cast<std::uint8_t>((byte & (0xF0 >> shift)) |
                                   ((value & 0x7) << shift));
}

// Chase lengths resolve with memoized walks over the column's
// functional hop graph: follow hops until reaching the destination (0
// steps there), a no-route entry (its chase terminates on the spot, 0
// steps), an already-resolved node, or a node on the current walk (a
// cycle: everything on the walk feeds the cycle and never terminates).
// Each node is walked at most once per call, so the cost is the starts
// plus the tails their chases run through. A terminating chase never
// revisits a node, so every finite length is < nodeCount.
//
// The memo is epoch-stamped and thread-local, like chaseUpstream's
// visited marks: patch jobs run concurrently on the pool, and a call
// seeded from a handful of entries must not pay an O(mesh) clear or
// allocation.
template <class Starts>
void PackedRouteColumn::raiseHopBound(const Starts& starts) {
  struct Slot {
    std::uint32_t stamp = 0;
    std::int32_t length = 0;
  };
  thread_local std::vector<Slot> memo;
  thread_local std::vector<NodeId> walk;
  thread_local std::uint32_t epoch = 0;
  const auto n = static_cast<std::size_t>(nodeCount_);
  if (memo.size() < n) memo.assign(n, Slot{});
  if (++epoch == 0) {  // stamp wrap: one real clear every 2^32 calls
    std::fill(memo.begin(), memo.end(), Slot{});
    epoch = 1;
  }

  const NodeId idStep[4] = {1, -1, width_, -width_};
  for (const NodeId start : starts) {
    walk.clear();
    NodeId u = start;
    std::int32_t base = 0;
    bool cycle = false;
    while (u != destId_) {  // the destination delivers in 0 further steps
      Slot& slot = memo[static_cast<std::size_t>(u)];
      if (slot.stamp == epoch) {
        cycle = slot.length < 0;  // on this walk, or feeding a cycle
        base = slot.length;
        break;
      }
      slot.stamp = epoch;
      const std::uint8_t raw = nibble(u);
      if (raw & 0x4) {
        slot.length = 0;  // NoRoute is decided at u without advancing
        break;
      }
      slot.length = kOnWalk;
      walk.push_back(u);
      u += idStep[raw];
    }
    for (auto it = walk.rbegin(); it != walk.rend(); ++it) {
      memo[static_cast<std::size_t>(*it)].length = cycle ? kCycle : ++base;
    }
    if (!cycle && static_cast<std::uint32_t>(base) > hopBound_) {
      hopBound_ = static_cast<std::uint32_t>(base);
      hopWitness_ = start;
    }
  }
}

PackedRouteColumn PackedRouteColumn::patched(
    Router& router, const FaultSet& faults,
    const std::vector<NodeId>& cells) const {
  PackedRouteColumn out = *this;
  const Mesh2D& mesh = faults.mesh();
  std::vector<NodeId> changed;
  for (NodeId id : cells) {
    const std::uint8_t hop =
        firstHopByte(router, faults, mesh.point(id), dest_);
    const std::uint8_t raw = hop == RouteColumn::kNoRoute ? kNoRouteNibble
                                                          : hop;
    if (raw == nibble(id)) continue;
    out.setNibble(id, raw);
    changed.push_back(id);
  }
  // Same hop graph, same bound and witness.
  if (changed.empty()) return out;

  // Only a chase through a changed entry can change length, and those
  // are the changed entries' upstream set (the same set in the old and
  // the new column: a chase reaches its first changed entry over
  // unchanged ones). Every other chase keeps its length, the witness's
  // included unless the set holds it, so the new bound is the larger of
  // the old one and the longest re-walked chase from that set.
  const std::vector<NodeId> upstream = chaseUpstream(*this, mesh, changed);
  if (std::binary_search(upstream.begin(), upstream.end(), hopWitness_)) {
    // The witness's own chase changed, so the bound may have fallen to
    // any other chase's length: re-walk the whole column.
    out.hopBound_ = 0;
    out.hopWitness_ = destId_;
    out.raiseHopBound(std::views::iota(NodeId{0}, nodeCount_));
  } else {
    out.raiseHopBound(upstream);
  }
  return out;
}

PackedRouteColumn compilePackedRouteColumn(Router& router,
                                           const FaultSet& faults,
                                           Point dest) {
  return PackedRouteColumn(compileRouteColumn(router, faults, dest),
                           faults.mesh());
}

}  // namespace meshrt
