// The unified sweep engine behind every Figure-5 and ablation bench.
//
// A sweep is a grid of cells: (fault level) x (random configuration). The
// engine shards individual cells — not whole levels — across the thread
// pool on a private task group (parallelFor), hands each cell its own
// deterministic RNG stream derived from (seed, level, config), and
// collects one MetricSet per cell. Per-level results are then reduced
// serially in (level, config) order, so the output is bitwise identical
// for threads=1 and threads=N: floating-point accumulation order never
// depends on scheduling, and concurrent sweeps sharing a pool would wait
// only on their own cells (DESIGN.md section 8).
//
// What a cell computes is pluggable (see harness/experiments.h for the
// standard bodies); which metric columns exist is decided by the body at
// runtime, not by fixed-width arrays in the harness. See DESIGN.md
// section 5; the determinism contract is restated for the dynamic sweeps
// in section 6.3.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "harness/experiment.h"
#include "mesh/mesh.h"

namespace meshrt {

/// Insertion-ordered bag of named metric columns. A column is either an
/// Accumulator (min/max/mean/variance) or a RatioCounter (hit percentage);
/// the first access under a name fixes its kind.
class MetricSet {
 public:
  /// Mutable access; creates the column on first use. Throws
  /// std::logic_error when the name is already bound to the other kind.
  /// Returned references stay valid for the MetricSet's lifetime (columns
  /// live in a deque), so cell bodies may cache them across creations.
  Accumulator& acc(std::string_view name);
  RatioCounter& ratio(std::string_view name);

  /// Read access; throws std::out_of_range when absent (or logic_error on
  /// kind mismatch) so benches fail loudly on a typo'd column name.
  const Accumulator& acc(std::string_view name) const;
  const RatioCounter& ratio(std::string_view name) const;

  bool contains(std::string_view name) const;
  std::vector<std::string> names() const;

  /// Folds `other` into this set column by column (creating columns as
  /// needed), preserving `other`'s column order.
  void merge(const MetricSet& other);

 private:
  enum class Kind : std::uint8_t { Acc, Ratio };
  struct Column {
    std::string name;
    Kind kind;
    Accumulator acc;
    RatioCounter ratio;
  };

  Column& column(std::string_view name, Kind kind);
  const Column* find(std::string_view name) const;

  // Deque, not vector: growth must not invalidate references handed out
  // by acc()/ratio().
  std::deque<Column> columns_;
};

/// Everything one cell sees: the shared mesh, its coordinates in the sweep
/// grid and the full sweep configuration.
struct SweepCellContext {
  const Mesh2D& mesh;
  const SweepConfig& cfg;
  std::size_t levelIndex = 0;
  std::size_t faults = 0;  // fault count of this level
  std::size_t configIndex = 0;
};

/// One output row per fault level.
struct SweepRow {
  std::size_t faults = 0;
  MetricSet metrics;
};

class SweepEngine {
 public:
  /// A cell body fills `out` from its private RNG stream. It runs
  /// concurrently with other cells and must not touch shared state.
  using CellBody =
      std::function<void(const SweepCellContext&, Rng&, MetricSet&)>;

  explicit SweepEngine(SweepConfig cfg) : cfg_(std::move(cfg)) {}

  const SweepConfig& config() const { return cfg_; }

  /// Runs every (level x config) cell and reduces to one row per level.
  std::vector<SweepRow> run(const CellBody& body) const;

 private:
  SweepConfig cfg_;
};

}  // namespace meshrt
