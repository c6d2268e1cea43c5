// Name-driven router construction (BookSim-style factory registry).
//
// Experiments never name concrete router classes: they carry a list of
// registry keys ("ecube", "rb1", "rb2", "rb3", ...) and resolve them
// against the global registry over a per-configuration RouterContext.
// Adding a router to every bench, example and sweep is one registration —
// no harness edits.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "route/router.h"

namespace meshrt {

class FaultSet;
class FaultAnalysis;
class KnowledgeBundle;
enum class InfoModel : std::uint8_t;  // info/knowledge.h

/// What a factory may consume. The context (and the FaultSet/FaultAnalysis
/// it points to) must outlive every router created from it.
struct RouterContext {
  const FaultSet* faults = nullptr;
  const FaultAnalysis* analysis = nullptr;
  /// Optional pre-built, pre-synced quadrant knowledge (info/knowledge.h).
  /// When the bundle captured the model a knowledge-based router needs,
  /// the router reads it instead of building its own QuadrantInfo — the
  /// route service fills this from its epoch snapshots, under the models
  /// the key's registry entry declares, so sharded table compiles don't
  /// rebuild knowledge per column. Must stay in sync with `analysis`;
  /// plain benches leave it null and lose nothing.
  const KnowledgeBundle* knowledge = nullptr;
};

using RouterFactory =
    std::function<std::unique_ptr<Router>(const RouterContext&)>;

/// Insertion-ordered name -> factory map. `global()` comes pre-loaded with
/// every built-in router; custom routers register at static-init time or
/// from main().
class RouterRegistry {
 public:
  struct Entry {
    std::string key;      // CLI / config name, e.g. "rb2-literal"
    std::string display;  // table-header name, e.g. "RB2(lit)"
    std::string help;     // one-line description
    RouterFactory factory;
    /// Info models the router reads from RouterContext::knowledge (B1 for
    /// rb1, B3 for the rb3 family, none elsewhere): exactly what the
    /// route service captures into its snapshots for this key.
    std::vector<InfoModel> knowledge;
  };

  /// The process-wide registry, pre-populated with the built-ins.
  static RouterRegistry& global();

  /// Registers a router that reads `knowledge` from its context. Throws
  /// std::invalid_argument on an empty or duplicate key.
  void add(std::string key, std::string display, std::string help,
           RouterFactory factory, std::vector<InfoModel> knowledge = {});

  bool contains(std::string_view key) const;

  /// Looks a key up; throws std::invalid_argument listing the known keys
  /// when absent (so CLI typos fail with a usable message).
  const Entry& at(std::string_view key) const;

  /// Builds the router registered under `key` over `ctx`.
  std::unique_ptr<Router> create(std::string_view key,
                                 const RouterContext& ctx) const;

  /// Table-header name for `key` (throws on unknown key).
  const std::string& displayName(std::string_view key) const;

  /// Registration-ordered keys.
  std::vector<std::string> keys() const;

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  RouterRegistry() = default;

  std::vector<Entry> entries_;
};

/// Creates one router per key from the global registry, in order.
std::vector<std::unique_ptr<Router>> makeRouters(
    const std::vector<std::string>& keys, const RouterContext& ctx);

}  // namespace meshrt
