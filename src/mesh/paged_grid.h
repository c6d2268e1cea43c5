// Copy-on-write paged per-node storage: the epoch-publishing sibling of
// NodeMap<T>.
//
// The grid is split into fixed 16x16 tiles held by shared_ptr. A copy
// duplicates only the page table (one pointer per tile), so cloning a
// grid for the next service epoch costs O(tiles) pointer copies instead
// of O(width x height) element copies; the tiles themselves are shared
// until someone writes. A write detaches (copies) just the touched tile
// when it is shared, so a sequence of local fault deltas keeps every
// published epoch's storage cost proportional to the pages the delta
// touched — the storage-side mirror of the incremental labeler's
// wavefront argument. See DESIGN.md section 9.
//
// Pages are also lazy: a null page table slot reads as the grid's default
// value, which makes construction and fill() O(tiles) as well (fill drops
// every page and swaps the default).
//
// Thread safety follows the usual COW contract: concurrent readers of any
// number of grid objects sharing tiles are safe (shared tiles are never
// written in place — a writer detaches its own copy first), and a single
// grid OBJECT must not be mutated while another thread accesses that same
// object. Detach decisions deliberately do NOT consult use_count():
// observing "unique" through a relaxed refcount load carries no
// happens-before edge with the former sharer's accesses (a real data
// race the TSan suite caught on the service column table). Instead each
// grid tracks an OWNERSHIP EPOCH: taking a copy bumps the source's epoch
// (atomically — copying a const grid from several threads is legal), so
// the source knows its pages became shared and detaches on next write,
// page by page. The bump must be ordered against the source's next
// mutation the same way the copy itself is (same thread, or the caller's
// mutex — e.g. the snapshot column mutex), which callers already
// guarantee for the copy to be sound at all.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mesh/mesh.h"
#include "mesh/point.h"

namespace meshrt {

namespace detail {

/// Ownership-epoch bookkeeping shared by the COW containers (PagedGrid
/// below, MccSlots in fault/mcc.h). The COPY SEMANTICS are the
/// protocol: copying bumps the source's epoch (atomically) and starts
/// the destination as owner of nothing, so after embedding one of these
/// next to the shared-slot table, a container's copy operations can stay
/// `= default` and still implement detach-on-next-write correctly on
/// both sides. owned(i) / markOwned(i) drive the detach decision — never
/// use_count() (see the file header).
class CowOwnership {
 public:
  explicit CowOwnership(std::size_t slots = 0) : stamps_(slots, 0) {}

  CowOwnership(const CowOwnership& other)
      : stamps_(other.stamps_.size(), 0) {
    other.epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  CowOwnership& operator=(const CowOwnership& other) {
    if (this != &other) {
      stamps_.assign(other.stamps_.size(), 0);
      epoch_.store(1, std::memory_order_relaxed);
      other.epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    return *this;
  }
  CowOwnership(CowOwnership&& other) noexcept
      : stamps_(std::move(other.stamps_)),
        epoch_(other.epoch_.load(std::memory_order_relaxed)) {}
  CowOwnership& operator=(CowOwnership&& other) noexcept {
    stamps_ = std::move(other.stamps_);
    epoch_.store(other.epoch_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  /// True iff slot i was allocated or detached after the most recent
  /// copy — only then may the owner write it in place.
  bool owned(std::size_t i) const {
    return stamps_[i] == epoch_.load(std::memory_order_relaxed);
  }
  void markOwned(std::size_t i) {
    stamps_[i] = epoch_.load(std::memory_order_relaxed);
  }
  /// Grows the table by one slot, owned (fresh allocations are ours).
  void appendOwned() {
    stamps_.push_back(epoch_.load(std::memory_order_relaxed));
  }

 private:
  std::vector<std::uint64_t> stamps_;
  /// 64-bit: one bump per container copy; a 32-bit epoch would wrap in
  /// days at production event rates and alias a stale stamp.
  mutable std::atomic<std::uint64_t> epoch_{1};
};

}  // namespace detail

template <typename T>
class PagedGrid {
 public:
  /// Tile geometry: 16 x 16 cells. One byte-typed tile is 256 B (four
  /// cache lines); the page table of a 512x512 grid is 1024 pointers.
  static constexpr Coord kTileBits = 4;
  static constexpr Coord kTileSide = Coord{1} << kTileBits;
  static constexpr Coord kTileMask = kTileSide - 1;
  static constexpr std::size_t kTileCells =
      static_cast<std::size_t>(kTileSide) * static_cast<std::size_t>(kTileSide);

  explicit PagedGrid(const Mesh2D& mesh, T init = T{})
      : width_(mesh.width()),
        height_(mesh.height()),
        tilesX_((mesh.width() + kTileMask) >> kTileBits),
        init_(std::move(init)),
        pages_(static_cast<std::size_t>(tilesX_) *
               static_cast<std::size_t>((mesh.height() + kTileMask) >>
                                        kTileBits)),
        own_(pages_.size()) {}

  /// Copies share every tile with the source — O(pages), the whole
  /// point. The defaulted member-wise copy is correct because own_'s
  /// copy IS the ownership protocol: it bumps the source's epoch, so
  /// both sides detach before their next write to any shared tile.
  PagedGrid(const PagedGrid&) = default;
  PagedGrid& operator=(const PagedGrid&) = default;
  PagedGrid(PagedGrid&&) noexcept = default;
  PagedGrid& operator=(PagedGrid&&) noexcept = default;

  /// Read access; absent pages read as the default value.
  const T& operator[](Point p) const {
    const Page* page = pages_[pageIndex(p)].get();
    return page ? page->cells[cellIndex(p)] : init_;
  }

  /// Write access: detaches (or allocates) the touched tile so shared
  /// copies never observe the write. Use std::as_const for reads on a
  /// mutable grid when the detach would be wasted.
  T& operator[](Point p) { return ensureUnique(pageIndex(p)).cells[cellIndex(p)]; }

  /// Drops every page and swaps the default: O(pages), not O(cells).
  void fill(T value) {
    init_ = std::move(value);
    for (auto& page : pages_) page.reset();
  }

  std::size_t size() const {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }

  const T& defaultValue() const { return init_; }

  /// Pages actually allocated (written at least once since the last fill).
  std::size_t allocatedPageCount() const {
    std::size_t n = 0;
    for (const auto& page : pages_) n += (page != nullptr);
    return n;
  }

  /// Pages physically shared between two grids (same tile object). The
  /// COW tests assert a published epoch shares > 0 pages with its
  /// predecessor.
  static std::size_t sharedPageCount(const PagedGrid& a, const PagedGrid& b) {
    assert(a.pages_.size() == b.pages_.size());
    std::size_t n = 0;
    for (std::size_t i = 0; i < a.pages_.size(); ++i) {
      n += (a.pages_[i] != nullptr && a.pages_[i] == b.pages_[i]);
    }
    return n;
  }

  /// Invokes fn(Point, const T&) for every in-mesh cell of every
  /// ALLOCATED page (cells of absent pages hold the default and are
  /// skipped). Row-major within each tile, tiles row-major — a
  /// deterministic order, but not the global row-major order.
  template <typename Fn>
  void forEachAllocated(Fn&& fn) const {
    for (std::size_t t = 0; t < pages_.size(); ++t) {
      const Page* page = pages_[t].get();
      if (!page) continue;
      const Coord x0 = static_cast<Coord>(t % static_cast<std::size_t>(tilesX_))
                       << kTileBits;
      const Coord y0 = static_cast<Coord>(t / static_cast<std::size_t>(tilesX_))
                       << kTileBits;
      const Coord xEnd = std::min<Coord>(x0 + kTileSide, width_);
      const Coord yEnd = std::min<Coord>(y0 + kTileSide, height_);
      for (Coord y = y0; y < yEnd; ++y) {
        for (Coord x = x0; x < xEnd; ++x) {
          fn(Point{x, y},
             page->cells[static_cast<std::size_t>(y & kTileMask) * kTileSide +
                         static_cast<std::size_t>(x & kTileMask)]);
        }
      }
    }
  }

 private:
  struct Page {
    std::array<T, kTileCells> cells;
  };

  std::size_t pageIndex(Point p) const {
    assert(p.x >= 0 && p.x < width_ && p.y >= 0 && p.y < height_);
    return static_cast<std::size_t>(p.y >> kTileBits) *
               static_cast<std::size_t>(tilesX_) +
           static_cast<std::size_t>(p.x >> kTileBits);
  }

  std::size_t cellIndex(Point p) const {
    return static_cast<std::size_t>(p.y & kTileMask) *
               static_cast<std::size_t>(kTileSide) +
           static_cast<std::size_t>(p.x & kTileMask);
  }

  Page& ensureUnique(std::size_t index) {
    auto& slot = pages_[index];
    if (!slot) {
      slot = std::make_shared<Page>();
      slot->cells.fill(init_);
    } else if (!own_.owned(index)) {
      // A copy was taken since this grid last wrote the tile, so it may
      // be shared: detach. The old tile stays alive for its other
      // owners, untouched. (Ownership epochs, not use_count — see the
      // header comment.)
      slot = std::make_shared<Page>(*slot);
    }
    own_.markOwned(index);
    return *slot;
  }

  Coord width_;
  Coord height_;
  Coord tilesX_;
  T init_;
  std::vector<std::shared_ptr<Page>> pages_;
  detail::CowOwnership own_;
};

}  // namespace meshrt
