// One epoch of the route-query service: an immutable capture of the fault
// state, its incrementally patched analysis, the quadrant knowledge, and
// the compiled next-hop columns valid for that state.
//
// Snapshots are published through a SnapshotBox (common/epoch.h): readers
// pin an epoch and serve from it while the writer builds the next one;
// a retired epoch is reclaimed when its last reader drains. Every piece
// of captured state is copy-on-write paged (mesh/paged_grid.h): the fault
// set, the per-quadrant labels/indices, the knowledge grids AND the
// column table are cloned by copying page tables, so building epoch N+1
// costs O(pages touched by the delta), not O(mesh) — see DESIGN.md
// section 9. The column table is the one mutable part — columns compile
// lazily on first demand, under a mutex, and are immutable once
// installed, so a snapshot converges monotonically toward fully compiled
// without ever changing an answer. The writer additionally drops and
// replaces inherited columns on the NOT-YET-PUBLISHED successor; a
// published snapshot's installed column CONTENT never changes — but under
// a column byte budget (ServiceConfig::columnBudgetBytes) a slot may be
// evicted back to null by enforceColumnBudget(), and the column
// recompiles bit-identically on next demand. Every column handed out is
// therefore an owning handle — pinColumns() for resident columns,
// installColumn()'s return for fresh compiles — and the sweep skips
// pinned slots, so an evicted column stays alive for exactly as long as
// some batch still chases it. See DESIGN.md section 14.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "fault/analysis.h"
#include "info/knowledge.h"
#include "mesh/paged_grid.h"
#include "route/packed_column.h"
#include "route/registry.h"
#include "route/route_table.h"

namespace meshrt {

/// Shared CLOCK state for a service's bounded column cache. Owned by the
/// RouteService (NOT the snapshot: reference bits and the sweep hand must
/// survive epoch publishes, or every publish would reset the eviction
/// ordering). Reference bits are set lock-free on the serve path; the
/// sweep itself runs under the snapshot's column mutex.
struct ColumnCachePolicy {
  /// Second-chance bit: set when a batch serves the destination, cleared
  /// (instead of evicting) the first time the CLOCK hand passes it.
  static constexpr std::uint8_t kRefBit = 1;
  /// Set when the slot is evicted; the next install clears it and counts
  /// as a recompile in the service's telemetry.
  static constexpr std::uint8_t kEvictedBit = 2;

  ColumnCachePolicy() = default;
  ColumnCachePolicy(std::size_t budget, NodeId nodeCount)
      : budgetBytes(budget),
        state(std::make_unique<std::atomic<std::uint8_t>[]>(
            static_cast<std::size_t>(nodeCount))) {}

  bool active() const { return budgetBytes > 0 && state != nullptr; }

  /// Marks `dest` recently served (serve-path side of CLOCK).
  void touch(NodeId dest) {
    state[static_cast<std::size_t>(dest)].fetch_or(
        kRefBit, std::memory_order_relaxed);
  }

  /// Resident-byte ceiling; 0 disables eviction entirely.
  std::size_t budgetBytes = 0;
  /// Dest-indexed ref/evicted bits (value-initialized to 0). A plain
  /// array because std::vector cannot hold atomics.
  std::unique_ptr<std::atomic<std::uint8_t>[]> state;
  /// CLOCK hand, persisted across sweeps and epochs.
  std::atomic<std::size_t> hand{0};
};

/// What one enforceColumnBudget() sweep did, plus the footprint after.
struct ColumnEvictStats {
  std::size_t evicted = 0;
  std::size_t residentBytes = 0;
  std::size_t residentCount = 0;
};

class ServiceSnapshot {
 public:
  /// Captures `model`'s current state: copies the fault set, clones the
  /// (incrementally patched) analysis onto the copy — no relabeling —
  /// and clones `knowledge` when non-null, all sharing COW pages with
  /// the writer's state. When `prev` is given the compiled column table
  /// is inherited the same way (shared pages); the writer then drops or
  /// replaces exactly the delta-affected columns before publishing.
  ServiceSnapshot(std::uint64_t epoch, const DynamicFaultModel& model,
                  const KnowledgeBundle* knowledge,
                  const ServiceSnapshot* prev = nullptr);

  std::uint64_t epoch() const { return epoch_; }
  const Mesh2D& mesh() const { return faults_.mesh(); }
  const FaultSet& faults() const { return faults_; }
  const FaultAnalysis& analysis() const { return *analysis_; }

  /// What a registry factory needs to build a router over this epoch.
  RouterContext context() const {
    return RouterContext{&faults_, analysis_.get(), knowledge_.get()};
  }

  /// The compiled column for destination id, or null when not yet
  /// compiled. Thread-safe.
  std::shared_ptr<const PackedRouteColumn> column(NodeId dest) const;

  /// Installs a compiled column and returns the slot's resident column
  /// under the same lock. The first install wins (concurrent compilers
  /// produce identical content, so dropping the loser is safe); the
  /// returned handle pins the winner, so no sweep can take it between
  /// the install and the caller's chase.
  std::shared_ptr<const PackedRouteColumn> installColumn(
      NodeId dest, std::shared_ptr<const PackedRouteColumn> column) const;

  /// Writer-side, pre-publish only: removes an inherited column whose
  /// destination died with this epoch's event.
  void dropColumn(NodeId dest);

  /// Writer-side, pre-publish only: swaps in the patched successor of an
  /// inherited column (unlike installColumn, an existing slot LOSES).
  void replaceColumn(NodeId dest,
                     std::shared_ptr<const PackedRouteColumn> column);

  /// Owning handles for `dests`, in order (null where missing), resolved
  /// under one lock. A pinned column survives eviction for as long as the
  /// caller holds the handle — this is what "batch-pinned columns are
  /// never evicted mid-serve" means operationally: the sweep skips slots
  /// with outstanding pins, and even if a later sweep drops the slot, the
  /// batch's handle keeps the bytes alive until it drains.
  std::vector<std::shared_ptr<const PackedRouteColumn>> pinColumns(
      const std::vector<NodeId>& dests) const;

  /// Destination ids with a compiled column, ascending — what the writer
  /// walks to verify/drop/patch inherited columns. O(allocated pages),
  /// not O(mesh): absent pages are skipped wholesale.
  std::vector<NodeId> presentColumns() const;

  /// Evicts columns until the resident footprint fits policy.budgetBytes,
  /// in CLOCK second-chance order from the persisted hand. Slots with the
  /// ref bit get a second chance; slots with outstanding pins (batch
  /// handles, or pages still shared with a not-yet-drained neighbor
  /// epoch, where eviction would free nothing) are skipped. Bounded at 4
  /// passes over the table, so an all-pinned table degrades to
  /// best-effort instead of spinning. No-op when the policy is inactive
  /// or the footprint already fits. Thread-safe; callable on a published
  /// snapshot (see the header comment).
  ColumnEvictStats enforceColumnBudget(ColumnCachePolicy& policy) const;

  /// Resident column payload bytes / count right now (maintained by
  /// install/drop/replace/evict under the column mutex, inherited with
  /// the page table).
  std::size_t residentColumnBytes() const;
  std::size_t residentColumnCount() const;

 private:
  std::uint64_t epoch_;
  FaultSet faults_;
  std::unique_ptr<FaultAnalysis> analysis_;
  std::unique_ptr<KnowledgeBundle> knowledge_;

  mutable std::mutex columnMutex_;
  /// Dest-indexed (row-major point of the dest id) COW pages of column
  /// pointers; shared with the predecessor epoch until written.
  mutable PagedGrid<std::shared_ptr<const PackedRouteColumn>> columns_;
  /// Footprint of non-null slots, the eviction budget's currency. Guarded
  /// by columnMutex_ like the table itself.
  mutable std::size_t residentBytes_ = 0;
  mutable std::size_t residentCount_ = 0;
};

}  // namespace meshrt
