// Tests for the router registry: every built-in key round-trips through
// name -> factory -> working router, and unknown names fail cleanly.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "fault/analysis.h"
#include "fault/fault_set.h"
#include "info/knowledge.h"
#include "mesh/mesh.h"
#include "route/registry.h"
#include "route/validate.h"

namespace meshrt {
namespace {

TEST(RouterRegistryTest, EveryBuiltinRoundTrips) {
  const Mesh2D mesh = Mesh2D::square(8);
  const FaultSet faults(mesh);  // fault-free
  const FaultAnalysis fa(faults);
  const RouterContext ctx{&faults, &fa};

  const auto keys = RouterRegistry::global().keys();
  ASSERT_GE(keys.size(), 8u);
  for (const auto& key : keys) {
    SCOPED_TRACE(key);
    EXPECT_TRUE(RouterRegistry::global().contains(key));
    EXPECT_FALSE(RouterRegistry::global().displayName(key).empty());
    auto router = RouterRegistry::global().create(key, ctx);
    ASSERT_NE(router, nullptr);
    EXPECT_FALSE(router->name().empty());
    // In a fault-free mesh every router must deliver a Manhattan-shortest
    // valid path.
    const Point s{0, 0};
    const Point d{7, 5};
    const RouteResult res = router->route(s, d);
    EXPECT_TRUE(res.delivered);
    EXPECT_TRUE(isValidPath(faults, s, d, res.path));
    EXPECT_EQ(res.hops(), manhattan(s, d));
  }
}

TEST(RouterRegistryTest, ExpectedBuiltinKeysExist) {
  // Exactly the built-ins, once each, in registration order: an alias or
  // a wrapper fan-out would make every "for each key" suite run a router
  // twice.
  const std::vector<std::string> expected{
      "ecube", "safety",      "rb1",      "rb2",    "rb2-literal",
      "rb3",   "rb3-contact", "rb3-full", "optimal"};
  EXPECT_EQ(RouterRegistry::global().keys(), expected);
}

TEST(RouterRegistryTest, EntriesDeclareTheKnowledgeTheirRoutersRead) {
  const auto& reg = RouterRegistry::global();
  using Models = std::vector<InfoModel>;
  EXPECT_EQ(reg.at("rb1").knowledge, Models{InfoModel::B1});
  for (const char* key : {"rb3", "rb3-contact", "rb3-full"}) {
    EXPECT_EQ(reg.at(key).knowledge, Models{InfoModel::B3}) << key;
  }
  EXPECT_TRUE(reg.at("rb2").knowledge.empty());
}

TEST(RouterRegistryTest, UnknownNameErrorsCleanly) {
  const RouterContext ctx{};
  EXPECT_THROW(RouterRegistry::global().create("no-such-router", ctx),
               std::invalid_argument);
  try {
    RouterRegistry::global().at("no-such-router");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message names the offender and lists the known keys.
    EXPECT_NE(std::string(e.what()).find("no-such-router"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("rb2"), std::string::npos);
  }
}

TEST(RouterRegistryTest, MissingContextPiecesAreReported) {
  const RouterContext empty{};
  EXPECT_THROW(RouterRegistry::global().create("ecube", empty),
               std::invalid_argument);
  EXPECT_THROW(RouterRegistry::global().create("rb2", empty),
               std::invalid_argument);
}

TEST(RouterRegistryTest, DuplicateAndEmptyRegistrationRejected) {
  RouterRegistry& reg = RouterRegistry::global();
  EXPECT_THROW(reg.add("rb2", "dup", "duplicate key",
                       [](const RouterContext&) -> std::unique_ptr<Router> {
                         return nullptr;
                       }),
               std::invalid_argument);
  EXPECT_THROW(reg.add("", "anon", "empty key",
                       [](const RouterContext&) -> std::unique_ptr<Router> {
                         return nullptr;
                       }),
               std::invalid_argument);
}

TEST(RouterRegistryTest, MakeRoutersPreservesOrder) {
  const Mesh2D mesh = Mesh2D::square(6);
  const FaultSet faults(mesh);
  const FaultAnalysis fa(faults);
  const RouterContext ctx{&faults, &fa};
  const auto routers = makeRouters({"rb3", "ecube"}, ctx);
  ASSERT_EQ(routers.size(), 2u);
  EXPECT_EQ(routers[0]->name(), "RB3");
  EXPECT_EQ(routers[1]->name(), "E-cube");
}

}  // namespace
}  // namespace meshrt
