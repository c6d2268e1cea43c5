// 3-bit packed next-hop columns: the route service's only resident
// column encoding.
//
// A RouteColumn entry has exactly five states (four Dir values plus
// kNoRoute), which fit in 3 bits; PackedRouteColumn stores two entries
// per byte (low and high nibble, 3 payload bits each), halving the cache
// footprint of every column an epoch carries — a 64x64 column drops from
// 4 KiB to 2 KiB, so a whole destination group's chases run out of L1.
// The packed column compiles FROM a RouteColumn (the dense form is
// compile scratch, TableizedRouter's column and the tests' reference) and
// patches through the same firstHopByte() helper the dense encoding uses,
// so the two encodings are bit-identical by construction (and by
// differential test: tests/packed_column_test.cpp).
//
// Each column also carries its chase hop bound: the longest terminating
// chase (delivered or no-route) over the column, derived during
// compilation by resolving the functional hop graph, and a witness node
// whose chase takes exactly that many steps. A patch updates the bound
// from the chases its changed entries reach: it keeps the bound when no
// entry changed, re-walks the changed entries' upstream set when the
// witness's chase is not among them, and re-walks the whole column only
// when it is. A terminating chase never revisits a node (revisiting
// would cycle forever), so bound < nodeCount, and a lockstep batch loop
// can run exactly `bound` steps with NO per-lane step bookkeeping:
// every lane still active afterwards would also still be active after
// nodeCount steps, i.e. it diverged. That hoists the livelock guard out
// of the hot loop and turns Diverged detection into an end-of-chase
// mask check — see DESIGN.md section 10 and route/batch_chase.h.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_set.h"
#include "route/route_table.h"

namespace meshrt {

/// Compiled next hops toward one destination, two 3-bit entries per
/// byte. Immutable once handed to readers; patched() produces the
/// successor version for a fault delta — the same contract as
/// RouteColumn (chaseColumn and chaseUpstream work on it unchanged).
class PackedRouteColumn {
 public:
  /// Raw nibble value standing for RouteColumn::kNoRoute (Dir values
  /// occupy 0..3; anything with bit 2 set is "no route", and compiles
  /// write exactly 7 so the SIMD lanes can test one constant).
  static constexpr std::uint8_t kNoRouteNibble = 0x7;

  /// Packs `dense` (compiled or patched by the usual route_table path).
  /// The hop bound and its witness are derived here: one memoized pass
  /// over the hop graph, O(nodeCount).
  PackedRouteColumn(const RouteColumn& dense, const Mesh2D& mesh);

  Point dest() const { return dest_; }
  NodeId destId() const { return destId_; }
  Coord width() const { return width_; }
  NodeId nodeCount() const { return nodeCount_; }

  /// Stored hop for node id in the RouteColumn byte convention: a Dir
  /// cast, or RouteColumn::kNoRoute — so the generic chaseColumn /
  /// chaseUpstream templates run on either encoding.
  std::uint8_t next(NodeId id) const {
    const std::uint8_t raw = nibble(id);
    return (raw & 0x4) ? RouteColumn::kNoRoute : raw;
  }

  /// Raw 3-bit entry (a Dir value or kNoRouteNibble).
  std::uint8_t nibble(NodeId id) const {
    const auto i = static_cast<std::size_t>(id);
    return static_cast<std::uint8_t>(
        (nibbles_[i >> 1] >> ((i & 1) * 4)) & 0x7);
  }

  /// Base of the packed bytes for the batch-chase kernels. Padded with
  /// 3 trailing bytes so a 4-byte gather load at the last entry's byte
  /// offset stays in bounds.
  const std::uint8_t* nibbleBytes() const { return nibbles_.data(); }

  /// Resident payload bytes (two 3-bit entries per byte plus the gather
  /// padding) — the bounded column cache's accounting unit.
  std::size_t sizeBytes() const { return nibbles_.size(); }

  /// Steps after which every still-running chase is Diverged: the
  /// longest terminating chase over live entries, <= nodeCount.
  std::uint32_t hopBound() const { return hopBound_; }

  /// Copy with the entries of `cells` recomputed as fresh first hops of
  /// `router` (which must read the post-delta analysis); every other
  /// entry is carried verbatim. Mirrors RouteColumn::patched entry for
  /// entry (same firstHopByte helper). The hop bound is updated from the
  /// entries whose nibble changed: kept when none did; else the changed
  /// entries' upstream set (chaseUpstream) is re-walked, with memoized
  /// walks through the unchanged tails, and the bound rises to the
  /// longest of those chases. Only when the witness's own chase runs
  /// through a changed entry does the whole column re-walk. So the cost
  /// is O(|cells| + changed chases + walked tails), not O(nodeCount),
  /// and the bound equals a fresh derivation's exactly.
  PackedRouteColumn patched(Router& router, const FaultSet& faults,
                            const std::vector<NodeId>& cells) const;

 private:
  void setNibble(NodeId id, std::uint8_t value);
  /// Raises hopBound_ to the longest terminating chase from a node of
  /// `starts`, moving hopWitness_ to the first start that exceeds it.
  template <class Starts>
  void raiseHopBound(const Starts& starts);

  Point dest_;
  NodeId destId_;
  Coord width_;
  NodeId nodeCount_;
  std::vector<std::uint8_t> nibbles_;
  std::uint32_t hopBound_ = 0;
  /// A node whose chase terminates after exactly hopBound_ steps (the
  /// destination when the bound is 0).
  NodeId hopWitness_;
};

/// Compiles the packed column for `dest` by packing the dense compile —
/// identical entries to compileRouteColumn by construction.
PackedRouteColumn compilePackedRouteColumn(Router& router,
                                           const FaultSet& faults,
                                           Point dest);

}  // namespace meshrt
