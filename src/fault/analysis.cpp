#include "fault/analysis.h"

#include <algorithm>

#include "common/failpoint.h"

namespace meshrt {

namespace {

/// `labeler.apply.fail`: fires BEFORE the fault set or any quadrant
/// labeler mutates, so a fired event leaves the model exactly as it was —
/// the caller (service writer, fleet applier) can retry or quarantine
/// without the model drifting from its published snapshot.
Failpoint* labelerApplyFailpoint() {
  static Failpoint* fp =
      &FailpointRegistry::global().point("labeler.apply.fail");
  return fp;
}

}  // namespace

QuadrantAnalysis::QuadrantAnalysis(const FaultSet& faults, Quadrant q)
    : quadrant_(q),
      frame_(Frame::forQuadrant(faults.mesh(), q)),
      localMesh_(frame_.localMesh()),
      labeler_(localMesh_, transformFaults(faults, frame_)) {}

const QuadrantAnalysis& FaultAnalysis::quadrant(Quadrant q) const {
  const auto i = static_cast<std::size_t>(q);
  // Concurrent first touch is serialized per quadrant; once the flag has
  // fired this is a single acquire load. Slots pre-filled by cloneFor
  // arrive with an unfired flag, so the lambda no-ops on them.
  std::call_once(once_[i], [&] {
    if (!cache_[i]) {
      cache_[i] = std::make_unique<QuadrantAnalysis>(*faults_, q);
    }
  });
  return *cache_[i];
}

void FaultAnalysis::materializeAll() const {
  for (int q = 0; q < 4; ++q) quadrant(static_cast<Quadrant>(q));
}

std::unique_ptr<FaultAnalysis> FaultAnalysis::cloneFor(
    const FaultSet& faults) const {
  auto clone = std::make_unique<FaultAnalysis>(faults);
  for (int q = 0; q < 4; ++q) {
    const auto i = static_cast<std::size_t>(q);
    if (cache_[i]) {
      clone->cache_[i] =
          std::make_unique<QuadrantAnalysis>(*cache_[i], SnapshotCloneTag{});
    } else {
      // Materialize from the new fault set so the clone is share-safe.
      clone->cache_[i] = std::make_unique<QuadrantAnalysis>(
          faults, static_cast<Quadrant>(q));
    }
  }
  return clone;
}

namespace {

/// Folds one quadrant delta's changed cells into the world-coordinate
/// union.
void collectWorld(const QuadrantAnalysis& qa, const LabelDelta& delta,
                  std::vector<Point>& out) {
  for (Point local : delta.changed) out.push_back(qa.frame().toWorld(local));
}

void sortUnique(std::vector<Point>& cells) {
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
}

}  // namespace

void FaultAnalysis::recordDelta(const LabelDelta& delta) {
  if (telemetry_.cellsRelabeled && !delta.changed.empty()) {
    telemetry_.cellsRelabeled->add(delta.changed.size());
  }
  if (telemetry_.mccsRetired && !delta.removedMccs.empty()) {
    telemetry_.mccsRetired->add(delta.removedMccs.size());
  }
  if (telemetry_.mccsBuilt && !delta.addedMccs.empty()) {
    telemetry_.mccsBuilt->add(delta.addedMccs.size());
  }
}

std::vector<Point> FaultAnalysis::applyAddFault(Point world) {
  std::vector<Point> changed;
  for (auto& slot : cache_) {
    if (!slot) continue;
    const LabelDelta delta = slot->addFault(world);
    recordDelta(delta);
    collectWorld(*slot, delta, changed);
  }
  sortUnique(changed);
  return changed;
}

std::vector<Point> FaultAnalysis::applyRemoveFault(Point world) {
  std::vector<Point> changed;
  for (auto& slot : cache_) {
    if (!slot) continue;
    const LabelDelta delta = slot->removeFault(world);
    recordDelta(delta);
    collectWorld(*slot, delta, changed);
  }
  sortUnique(changed);
  return changed;
}

FaultEvent DynamicFaultModel::addFaultEvent(Point p) {
  FaultEvent event;
  event.fault = p;
  event.added = true;
  if (faults_.isFaulty(p)) return event;
  failpointMaybeThrow(labelerApplyFailpoint());
  faults_.add(p);
  event.changedWorld = analysis_.applyAddFault(p);
  event.applied = true;
  ++version_;
  return event;
}

FaultEvent DynamicFaultModel::removeFaultEvent(Point p) {
  FaultEvent event;
  event.fault = p;
  event.added = false;
  if (faults_.isHealthy(p)) return event;
  failpointMaybeThrow(labelerApplyFailpoint());
  faults_.remove(p);
  event.changedWorld = analysis_.applyRemoveFault(p);
  event.applied = true;
  ++version_;
  return event;
}

}  // namespace meshrt
