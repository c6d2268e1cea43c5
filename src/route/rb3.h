// RB3 (Algorithm 7): the practical routing over the extended boundary-only
// information model B3. Planning is identical to RB2 but restricted to the
// MCC triples stored at nodes the message has visited (boundary lines,
// identification rings) plus MCCs sensed on contact; when the planned leg
// bumps into an MCC the plan did not know, the message learns it (it is now
// on that MCC's ring, which holds the triple) and replans. Theorem 2: from
// boundary nodes the found path matches RB2's.
#pragma once

#include <array>
#include <memory>

#include "fault/analysis.h"
#include "info/knowledge.h"
#include "info/reachability.h"
#include "route/planner.h"
#include "route/router.h"

namespace meshrt {

/// What the RB3 message may learn en route (ablation knob; the paper's
/// model is Boundary).
enum class Rb3Knowledge : std::uint8_t {
  ContactOnly,  // neighbor sensing only, no stored triples
  Boundary,     // B3: boundary/ring triple stores + sensing (default)
  Full,         // complete information (degenerates to RB2)
};

class Rb3Router : public Router {
 public:
  /// `order` shapes the Manhattan legs (see Rb2Router). `shared`: optional
  /// pre-synced knowledge covering InfoModel::B3 for `analysis`; when
  /// present the router reads it instead of building its own QuadrantInfo
  /// (cheap construction, safe concurrent use against a frozen snapshot —
  /// see Rb1Router).
  explicit Rb3Router(const FaultAnalysis& analysis,
                     PathOrder order = PathOrder::Balanced,
                     Rb3Knowledge knowledge = Rb3Knowledge::Boundary,
                     const KnowledgeBundle* shared = nullptr)
      : analysis_(&analysis),
        order_(order),
        knowledge_(knowledge),
        shared_(shared) {}

  std::string_view name() const override { return "RB3"; }

  RouteResult route(Point s, Point d) override;

 private:
  const QuadrantInfo& info(Quadrant q);

  const FaultAnalysis* analysis_;
  PathOrder order_;
  Rb3Knowledge knowledge_;
  const KnowledgeBundle* shared_;
  std::array<std::unique_ptr<QuadrantInfo>, 4> info_;
  PlanScratch scratch_;  // every route's planner reuses it
};

}  // namespace meshrt
