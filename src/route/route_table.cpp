#include "route/route_table.h"

#include <cassert>
#include <utility>

namespace meshrt {

RouteColumn::RouteColumn(const Mesh2D& mesh, Point dest)
    : dest_(dest),
      next_(static_cast<std::size_t>(mesh.nodeCount()), kNoRoute) {}

std::uint8_t firstHopByte(Router& router, const FaultSet& faults, Point s,
                          Point dest) {
  if (s == dest || faults.isFaulty(s) || faults.isFaulty(dest)) {
    return RouteColumn::kNoRoute;
  }
  const std::optional<Point> next = router.firstHop(s, dest);
  if (!next) return RouteColumn::kNoRoute;
  // First hops are neighbor steps for every router in the registry;
  // anything else would corrupt the byte encoding, so drop it.
  const Point d4 = *next - s;
  for (Dir dir : kAllDirs) {
    if (offset(dir) == d4) return static_cast<std::uint8_t>(dir);
  }
  return RouteColumn::kNoRoute;
}

void RouteColumn::recomputeEntry(Router& router, const FaultSet& faults,
                                 Point s) {
  next_[static_cast<std::size_t>(faults.mesh().id(s))] =
      firstHopByte(router, faults, s, dest_);
}

RouteColumn RouteColumn::patched(Router& router, const FaultSet& faults,
                                 const std::vector<NodeId>& cells) const {
  RouteColumn out = *this;
  const Mesh2D& mesh = faults.mesh();
  for (NodeId id : cells) out.recomputeEntry(router, faults, mesh.point(id));
  return out;
}

RouteColumn compileRouteColumn(Router& router, const FaultSet& faults,
                               Point dest) {
  const Mesh2D& mesh = faults.mesh();
  RouteColumn column(mesh, dest);
  if (faults.isFaulty(dest)) return column;  // all-kNoRoute, never served
  for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
    const Point s = mesh.point(id);
    if (s == dest || faults.isFaulty(s)) continue;
    column.recomputeEntry(router, faults, s);
  }
  return column;
}

TableizedRouter::TableizedRouter(std::unique_ptr<Router> inner,
                                 const FaultSet& faults)
    : inner_(std::move(inner)),
      faults_(&faults),
      columns_(static_cast<std::size_t>(faults.mesh().nodeCount())) {}

const RouteColumn& TableizedRouter::column(Point d) {
  auto& slot = columns_[static_cast<std::size_t>(faults_->mesh().id(d))];
  if (!slot) {
    slot = std::make_unique<const RouteColumn>(
        compileRouteColumn(*inner_, *faults_, d));
  }
  return *slot;
}

ServedRoute TableizedRouter::serve(Point s, Point d, bool wantPath) {
  if (faults_->isFaulty(s) || faults_->isFaulty(d)) {
    ServedRoute out;
    out.status = ServeStatus::EndpointFaulty;
    if (wantPath) out.path.push_back(s);
    return out;
  }
  if (s == d) {
    ServedRoute out;
    out.status = ServeStatus::Delivered;
    out.hops = 0;
    if (wantPath) out.path.push_back(s);
    return out;
  }
  const Mesh2D& mesh = faults_->mesh();
  return chaseColumn(column(d), mesh, s,
                     static_cast<std::size_t>(mesh.nodeCount()), wantPath);
}

}  // namespace meshrt
