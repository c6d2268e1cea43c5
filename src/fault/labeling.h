// The MCC labeling procedure (Wang 2003, as used by the paper's section 2).
//
// In the normalized frame (routing progresses +X/+Y):
//   - a safe node is USELESS if its +X and +Y neighbors are each faulty or
//     useless (entering it forces a -X/-Y move, so the route goes
//     non-shortest);
//   - a safe node is CAN'T-REACH if its -X and -Y neighbors are each faulty
//     or can't-reach (entering it required a -X/-Y move).
// Labels are iterated to fixpoint; faulty/useless/can't-reach nodes are
// "unsafe" and their 4-connected components form the MCCs.
//
// computeLabels below is the full (bulk) fixpoint; for online fault
// arrival/repair, fault/incremental.h maintains the same fixpoint by
// re-running the rules only over the affected wavefront (see DESIGN.md
// section 6) — the two are differentially tested to be bit-identical.
//
// Mesh borders: the paper leaves them undefined; off-mesh neighbors count as
// *not* blocked (safe walls), otherwise entire border rows/columns would
// cascade unsafe in a fault-free mesh. See DESIGN.md section 3 item 1.
#pragma once

#include <cstdint>

#include "fault/fault_set.h"
#include "mesh/frame.h"
#include "mesh/mesh.h"
#include "mesh/paged_grid.h"

namespace meshrt {

/// Per-node label bits. A node may be both useless and can't-reach.
enum LabelBits : std::uint8_t {
  kFaultyBit = 1u << 0,
  kUselessBit = 1u << 1,
  kCantReachBit = 1u << 2,
};

/// Per-node label bytes on copy-on-write paged storage: copying a
/// LabelGrid (epoch snapshots) costs O(pages), and a local fault delta
/// detaches only the tiles its wavefront wrote (DESIGN.md section 9).
class LabelGrid {
 public:
  explicit LabelGrid(const Mesh2D& mesh) : flags_(mesh, 0) {}

  bool isFaulty(Point p) const { return (flags_[p] & kFaultyBit) != 0; }
  bool isUseless(Point p) const { return (flags_[p] & kUselessBit) != 0; }
  bool isCantReach(Point p) const { return (flags_[p] & kCantReachBit) != 0; }
  /// Unsafe == faulty or useless or can't-reach (MCC membership).
  bool isUnsafe(Point p) const { return flags_[p] != 0; }
  bool isSafe(Point p) const { return flags_[p] == 0; }

  std::uint8_t raw(Point p) const { return flags_[p]; }
  void set(Point p, std::uint8_t bits) { flags_[p] |= bits; }
  /// Replaces the whole label byte (the incremental relabeler both sets and
  /// clears bits; bulk labeling only ever sets them).
  void assign(Point p, std::uint8_t bits) { flags_[p] = bits; }

  /// The underlying paged storage (page-sharing stats in tests/benches).
  const PagedGrid<std::uint8_t>& pages() const { return flags_; }

 private:
  PagedGrid<std::uint8_t> flags_;
};

/// Computes the labeling fixpoint for faults already expressed in the local
/// (normalized) frame. Deterministic O(width x height) sweeps: the useless
/// dependency points NE so one NE->SW pass reaches the fixpoint, and
/// symmetrically for can't-reach.
LabelGrid computeLabels(const Mesh2D& localMesh, const FaultSet& localFaults);

/// Re-expresses a fault set in `frame` local coordinates.
FaultSet transformFaults(const FaultSet& faults, const Frame& frame);

/// Number of unsafe nodes in the grid (Figure 5(a)'s disabled area).
std::size_t countUnsafe(const Mesh2D& localMesh, const LabelGrid& labels);

}  // namespace meshrt
