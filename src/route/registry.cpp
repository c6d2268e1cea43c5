#include "route/registry.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "fault/analysis.h"
#include "info/knowledge.h"
#include "route/ecube.h"
#include "route/optimal.h"
#include "route/rb1.h"
#include "route/rb2.h"
#include "route/rb3.h"
#include "route/safety_vector.h"

namespace meshrt {

namespace {

const FaultSet& needFaults(const RouterContext& ctx, std::string_view key) {
  if (ctx.faults == nullptr) {
    throw std::invalid_argument("router '" + std::string(key) +
                                "' requires RouterContext.faults");
  }
  return *ctx.faults;
}

const FaultAnalysis& needAnalysis(const RouterContext& ctx,
                                  std::string_view key) {
  if (ctx.analysis == nullptr) {
    throw std::invalid_argument("router '" + std::string(key) +
                                "' requires RouterContext.analysis");
  }
  return *ctx.analysis;
}

void registerBuiltins(RouterRegistry& r) {
  r.add("ecube", "E-cube", "dimension-order XY with clockwise fault rings",
        [](const RouterContext& ctx) -> std::unique_ptr<Router> {
          return std::make_unique<EcubeRouter>(needFaults(ctx, "ecube"));
        });
  r.add("safety", "SafetyVec",
        "minimal-adaptive over per-direction clearance vectors",
        [](const RouterContext& ctx) -> std::unique_ptr<Router> {
          return std::make_unique<SafetyVectorRouter>(
              needFaults(ctx, "safety"));
        });
  r.add("rb1", "RB1", "Algorithm 3 over the B1 boundary triples",
        [](const RouterContext& ctx) -> std::unique_ptr<Router> {
          return std::make_unique<Rb1Router>(needAnalysis(ctx, "rb1"),
                                             ctx.knowledge);
        },
        {InfoModel::B1});
  r.add("rb2", "RB2",
        "Algorithm 5 over full information B2 (exact-field verification)",
        [](const RouterContext& ctx) -> std::unique_ptr<Router> {
          return std::make_unique<Rb2Router>(needAnalysis(ctx, "rb2"));
        });
  r.add("rb2-literal", "RB2(lit)",
        "Algorithm 5 with the paper-literal Eq. 2-3 recursion only",
        [](const RouterContext& ctx) -> std::unique_ptr<Router> {
          return std::make_unique<Rb2Router>(needAnalysis(ctx, "rb2-literal"),
                                             PathOrder::Balanced,
                                             /*exactFallback=*/false);
        });
  r.add("rb3", "RB3", "Algorithm 7 over the B3 boundary stores",
        [](const RouterContext& ctx) -> std::unique_ptr<Router> {
          return std::make_unique<Rb3Router>(needAnalysis(ctx, "rb3"),
                                             PathOrder::Balanced,
                                             Rb3Knowledge::Boundary,
                                             ctx.knowledge);
        },
        {InfoModel::B3});
  r.add("rb3-contact", "RB3(sense)",
        "RB3 restricted to neighbor sensing (no stored triples)",
        [](const RouterContext& ctx) -> std::unique_ptr<Router> {
          return std::make_unique<Rb3Router>(needAnalysis(ctx, "rb3-contact"),
                                             PathOrder::Balanced,
                                             Rb3Knowledge::ContactOnly,
                                             ctx.knowledge);
        },
        {InfoModel::B3});
  r.add("rb3-full", "RB3(full)",
        "RB3 with complete information (degenerates to RB2)",
        [](const RouterContext& ctx) -> std::unique_ptr<Router> {
          return std::make_unique<Rb3Router>(needAnalysis(ctx, "rb3-full"),
                                             PathOrder::Balanced,
                                             Rb3Knowledge::Full,
                                             ctx.knowledge);
        },
        {InfoModel::B3});
  r.add("optimal", "Optimal", "global-knowledge BFS oracle (ground truth)",
        [](const RouterContext& ctx) -> std::unique_ptr<Router> {
          return std::make_unique<OptimalRouter>(needFaults(ctx, "optimal"));
        });
}

}  // namespace

RouterRegistry& RouterRegistry::global() {
  static RouterRegistry* instance = [] {
    auto* r = new RouterRegistry();
    registerBuiltins(*r);
    return r;
  }();
  return *instance;
}

void RouterRegistry::add(std::string key, std::string display,
                         std::string help, RouterFactory factory,
                         std::vector<InfoModel> knowledge) {
  if (key.empty()) {
    throw std::invalid_argument("router key must not be empty");
  }
  if (contains(key)) {
    throw std::invalid_argument("router '" + key + "' already registered");
  }
  entries_.push_back(Entry{std::move(key), std::move(display),
                           std::move(help), std::move(factory),
                           std::move(knowledge)});
}

bool RouterRegistry::contains(std::string_view key) const {
  for (const Entry& e : entries_) {
    if (e.key == key) return true;
  }
  return false;
}

const RouterRegistry::Entry& RouterRegistry::at(std::string_view key) const {
  for (const Entry& e : entries_) {
    if (e.key == key) return e;
  }
  std::ostringstream msg;
  msg << "unknown router '" << key << "' (known:";
  for (const Entry& e : entries_) msg << ' ' << e.key;
  msg << ')';
  throw std::invalid_argument(msg.str());
}

std::unique_ptr<Router> RouterRegistry::create(std::string_view key,
                                               const RouterContext& ctx) const {
  return at(key).factory(ctx);
}

const std::string& RouterRegistry::displayName(std::string_view key) const {
  return at(key).display;
}

std::vector<std::string> RouterRegistry::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.key);
  return out;
}

std::vector<std::unique_ptr<Router>> makeRouters(
    const std::vector<std::string>& keys, const RouterContext& ctx) {
  std::vector<std::unique_ptr<Router>> routers;
  routers.reserve(keys.size());
  for (const std::string& key : keys) {
    routers.push_back(RouterRegistry::global().create(key, ctx));
  }
  return routers;
}

}  // namespace meshrt
