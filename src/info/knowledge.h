// Information-model knowledge bases: which MCC triples end up stored at
// which nodes under B1 (one boundary per dimension, prior art), B2 (both
// boundaries + forbidden-region broadcast, Algorithm 4) and B3 (both
// boundaries with split propagation, Algorithm 6).
//
// Built from the same boundary walks the distributed protocol performs, so
// oracle knowledge == protocol knowledge node for node (tested property).
// Also produces the Figure 5(c) metric: the set of nodes involved in the
// information propagation.
//
// Versioned: when the underlying analysis is patched by online fault
// arrival/repair (fault/incremental.h), refresh(delta)/sync() update the
// knowledge from label deltas instead of rebuilding everything — retired
// components are dropped, new ones propagated, and surviving components
// whose information footprint the change touched are re-propagated
// (DESIGN.md section 6). Equivalence with from-scratch construction is
// property-tested.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "fault/analysis.h"
#include "mesh/mesh.h"

namespace meshrt {

enum class InfoModel : std::uint8_t { B1 = 0, B2 = 1, B3 = 2 };

constexpr std::string_view infoModelName(InfoModel m) {
  switch (m) {
    case InfoModel::B1:
      return "B1";
    case InfoModel::B2:
      return "B2";
    case InfoModel::B3:
      return "B3";
  }
  return "?";
}

/// Knowledge distribution for one quadrant analysis under one model.
/// Points are in the quadrant's (non-transposed) local frame throughout.
class QuadrantInfo {
 public:
  QuadrantInfo(const QuadrantAnalysis& qa, InfoModel model);

  /// Re-anchoring copy: duplicates `other`'s knowledge verbatim but reads
  /// the (state-identical) analysis `qa` from now on. This is how service
  /// snapshots capture quadrant knowledge without rebuilding: the writer's
  /// synced QuadrantInfo is cloned onto the snapshot's cloned analysis.
  /// `qa` must be at the same labeler version as other.analysis().
  QuadrantInfo(const QuadrantInfo& other, const QuadrantAnalysis& qa);

  InfoModel model() const { return model_; }

  /// Labeler version this knowledge reflects (see sync()).
  std::uint64_t version() const { return version_; }

  /// Applies one labeling delta, in version order: knowledge of retired
  /// ids is dropped, new ids are propagated, and surviving MCCs whose
  /// footprint the changed cells touch are re-propagated. Skips deltas
  /// already applied.
  void refresh(const LabelDelta& delta);

  /// Catches up with the analysis' labeler: replays its delta log from
  /// version(), or rebuilds from scratch when the log no longer reaches
  /// back that far. Routers call this before reading (RB1/RB3).
  void sync();

  /// MCC ids whose type-I triples (F, R_Y, R'_Y) are stored at p.
  std::span<const int> typeIKnown(Point p) const { return knownI_[p]; }

  /// MCC ids whose type-II triples (F, R_X, R'_X) are stored at p.
  std::span<const int> typeIIKnown(Point p) const { return knownII_[p]; }

  /// Union of both axes (sorted, deduplicated).
  std::vector<int> knownUnion(Point p) const;

  /// Nodes that took part in any propagation (identification rings,
  /// boundary lines, and for B2 the forbidden-region broadcast).
  std::size_t involvedCount() const { return involvedCount_; }
  bool wasInvolved(Point p) const { return involvedRefs_[p] > 0; }

  /// Union involvement as a percentage of all safe nodes (network-wide
  /// communication footprint; see the ablation bench).
  double involvedPercentOfSafe() const;

  /// Nodes that carried THIS MCC's information: its ring, its boundary
  /// walks (including joined suffixes) and, under B2, its forbidden-region
  /// broadcast. Figure 5(c) reports the max/avg of these per-MCC costs.
  std::size_t involvedForMcc(int id) const {
    return perMccInvolved_[static_cast<std::size_t>(id)];
  }

  /// Per-MCC involvement as percentages of the safe node count, for live
  /// MCCs in id order.
  std::vector<double> perMccInvolvedPercent() const;

  const QuadrantAnalysis& analysis() const { return *analysis_; }

 private:
  /// Scratch for one refresh/build pass: the transposed frame the type-II
  /// machinery runs in. Rebuilt per pass (labels mutate between passes).
  struct TransposedView {
    Mesh2D meshT;
    LabelGrid labelsT;
    MccIndexGrid indexT;
  };
  TransposedView makeView() const;

  /// refresh() body; `viewCache` is filled on first need so one sync()
  /// replaying many deltas builds the transposed view at most once (every
  /// replay sees the same final analysis state).
  void refreshWith(const LabelDelta& delta,
                   std::optional<TransposedView>& viewCache);

  void buildAll();
  /// Propagates one MCC's information (ring, boundary walks, B2 flood)
  /// and records its footprint for later removal.
  void buildFor(int id, const TransposedView& view);
  /// Removes every trace of one MCC's information.
  void dropFor(int id);
  void growTo(std::size_t mccSlots);

  void markInvolved(Point p, int mccId, std::vector<Point>& footprint);
  void addKnown(PagedGrid<std::vector<int>>& table,
                std::vector<Point>& nodes, Point p, int id);

  const QuadrantAnalysis* analysis_;
  InfoModel model_;
  std::uint64_t version_ = 0;
  Mesh2D meshT_;

  /// Per-node sorted id lists, on COW pages: epoch clones share every
  /// tile a refresh did not touch (DESIGN.md section 9).
  PagedGrid<std::vector<int>> knownI_;
  PagedGrid<std::vector<int>> knownII_;
  /// Per-id reverse maps: the nodes holding the id's triples, and the
  /// deduplicated involvement footprint (what dropFor undoes). Installed
  /// wholesale per (re)build and shared by clones, so copying a
  /// QuadrantInfo costs O(id slots), never O(total footprint).
  std::vector<std::shared_ptr<const std::vector<Point>>> nodesI_;
  std::vector<std::shared_ptr<const std::vector<Point>>> nodesII_;
  std::vector<std::shared_ptr<const std::vector<Point>>> footprint_;
  std::vector<std::size_t> perMccInvolved_;

  /// How many live MCCs involve each node; involvedCount_ counts nodes
  /// with a positive refcount.
  PagedGrid<int> involvedRefs_;
  std::size_t involvedCount_ = 0;

  // Epoch-stamped scratch grids (no O(mesh) clears per pass). Paged like
  // the real state: they ride along in epoch clones, so their copy must
  // be O(pages) too.
  std::uint32_t involveEpoch_ = 0;
  PagedGrid<std::uint32_t> involveStamp_;
  std::uint32_t epoch_ = 0;
  PagedGrid<std::uint32_t> stamp_;
  PagedGrid<std::uint32_t> floodStamp_;
  PagedGrid<std::uint32_t> floodStampT_;
  PagedGrid<std::uint32_t> modeStamp_;
  PagedGrid<std::uint8_t> modes_;
  PagedGrid<std::uint32_t> modeStampT_;
  PagedGrid<std::uint8_t> modesT_;
};

/// Quadrant knowledge for a whole FaultAnalysis: one QuadrantInfo per
/// (quadrant, captured model). The route service keeps a writer-side
/// bundle in step with fault churn (sync()) and clones it into each epoch
/// snapshot, so table compiles of RB1/RB3-family routers reuse the
/// incrementally maintained knowledge instead of rebuilding it per column
/// (RouterContext.knowledge; DESIGN.md section 7).
class KnowledgeBundle {
 public:
  /// Builds knowledge for every quadrant under each requested model.
  /// Materializes the analysis' quadrants.
  KnowledgeBundle(const FaultAnalysis& analysis,
                  const std::vector<InfoModel>& models);

  /// Catches every QuadrantInfo up with its analysis' delta log (writer
  /// side, after fault events).
  void sync();

  /// Re-anchoring copy onto `analysis` (a state-identical clone of the
  /// bundle's analysis, see FaultAnalysis::cloneFor). The bundle must be
  /// sync()ed first; the clone is immutable-by-convention, safe to share
  /// across reader threads, and shares knowledge pages with this bundle
  /// until the writer's next refresh touches them (COW).
  std::unique_ptr<KnowledgeBundle> cloneFor(
      const FaultAnalysis& analysis) const;

  /// The captured knowledge for (q, model), or nullptr when the model was
  /// not requested at construction. Returned infos are pre-synced; callers
  /// must not sync() them (that would race on shared snapshots).
  const QuadrantInfo* find(Quadrant q, InfoModel model) const;

  const std::vector<InfoModel>& models() const { return models_; }

 private:
  KnowledgeBundle() = default;

  const FaultAnalysis* analysis_ = nullptr;
  std::vector<InfoModel> models_;
  /// models_ x quadrant, in registration order.
  std::vector<std::array<std::unique_ptr<QuadrantInfo>, 4>> infos_;
};

}  // namespace meshrt
