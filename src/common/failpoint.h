// Deterministic, seeded fault-injection points (DESIGN.md section 13).
//
// A Failpoint is a named site in production code where a test, bench, or
// operator can inject a failure: a throw, a stall, a rejection. Sites are
// compiled in permanently; the contract that makes that affordable is the
// disarmed cost: shouldFire() on a disarmed point is ONE relaxed atomic
// load and a branch — no clock, no RNG, no shared-line write
// (`service_qps --failpoint-ab` holds the serve hot path to the same
// <= 2% budget as telemetry).
//
// Arming attaches a spec: a firing probability, a trigger-count budget
// (fire at most N times, then fall silent), a seed, and an optional
// integer payload the site interprets (e.g. stall milliseconds). Firing
// decisions are deterministic in the evaluation index: evaluation n fires
// iff hash(seed, n) clears the probability threshold AND the budget is
// not exhausted — so a fixed (spec, evaluation-count) run fires the same
// number of times at the same indices every time. Under concurrency the
// assignment of indices to threads follows the schedule, but the fired
// SET is schedule-independent, which is what the chaos harness needs.
//
// Arming sources:
//   - programmatic: FailpointRegistry::global().point(name).arm(spec)
//     (tests/benches; pair with FailpointArmScope so a failing assertion
//     cannot leave a point armed for later tests);
//   - environment: MESHRT_FAILPOINTS="name=p:0.5,n:3,seed:7,payload:50;
//     name2=n:1" parsed once when the global registry is created.
//
// Components cache `Failpoint*` members at construction (point() returns
// a stable reference for the registry's lifetime), so hot paths never
// touch the registry map.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace meshrt {

/// How an armed failpoint decides to fire.
struct FailpointSpec {
  /// Chance each evaluation fires (clamped to [0, 1]; 1 = always).
  double probability = 1.0;
  /// Fire at most this many times, then fall silent (still armed: the
  /// evaluations keep paying the armed cost, which is what the budget
  /// semantics of "inject exactly N crashes" want).
  std::uint64_t maxFires = ~std::uint64_t{0};
  /// Seed of the per-evaluation hash; identical (spec, evaluation count)
  /// runs fire at identical evaluation indices.
  std::uint64_t seed = 1;
  /// Site-interpreted argument (e.g. stall duration in milliseconds).
  std::int64_t payload = 0;
};

/// Thrown by failpointMaybeThrow when the point fires.
class FailpointError : public std::runtime_error {
 public:
  explicit FailpointError(const std::string& name)
      : std::runtime_error("failpoint fired: " + name) {}
};

/// One named injection site. Thread-safe; disarmed evaluation is a single
/// relaxed load.
class Failpoint {
 public:
  explicit Failpoint(std::string name) : name_(std::move(name)) {}
  Failpoint(const Failpoint&) = delete;
  Failpoint& operator=(const Failpoint&) = delete;

  const std::string& name() const { return name_; }

  /// True when this evaluation should inject the failure. Disarmed: one
  /// relaxed atomic load, false.
  bool shouldFire() {
    Armed* armed = armed_.load(std::memory_order_relaxed);
    if (armed == nullptr) return false;
    return fireArmed(*armed);
  }

  /// Payload of the current arming (0 when disarmed). Sites that fire
  /// should read the payload BEFORE acting on shouldFire()'s true — a
  /// racing disarm cannot then fault the site, only zero its argument.
  std::int64_t payload() const {
    const Armed* armed = armed_.load(std::memory_order_relaxed);
    return armed != nullptr ? armed->spec.payload : 0;
  }

  bool armed() const {
    return armed_.load(std::memory_order_relaxed) != nullptr;
  }

  /// Times this point ever fired (across armings).
  std::uint64_t fireCount() const {
    return totalFires_.load(std::memory_order_relaxed);
  }

  /// Armed evaluations across armings (diagnostics).
  std::uint64_t evalCount() const {
    return totalEvals_.load(std::memory_order_relaxed);
  }

  void arm(const FailpointSpec& spec);
  void disarm();

 private:
  struct Armed {
    FailpointSpec spec;
    /// probability mapped to a 64-bit threshold; ~0 means "always".
    std::uint64_t threshold = 0;
    std::atomic<std::uint64_t> evals{0};
    std::atomic<std::uint64_t> fires{0};
  };

  bool fireArmed(Armed& armed);

  std::string name_;
  std::atomic<Armed*> armed_{nullptr};
  std::atomic<std::uint64_t> totalFires_{0};
  std::atomic<std::uint64_t> totalEvals_{0};
  /// Previous armings are retired here, never freed mid-run: a reader
  /// racing disarm() may still be inside the old Armed block. Arm/disarm
  /// traffic is test- and operator-driven (a handful per process), so the
  /// retained blocks are bounded and reclaimed at destruction.
  std::mutex mutex_;
  std::vector<std::unique_ptr<Armed>> states_;
};

/// Name -> Failpoint map. point() mints on first use and returns a stable
/// reference. global() additionally arms from MESHRT_FAILPOINTS once.
class FailpointRegistry {
 public:
  FailpointRegistry() = default;

  static FailpointRegistry& global();

  /// Stable for the registry's lifetime; safe to cache the pointer.
  Failpoint& point(const std::string& name);

  /// Parses "name=k:v,k:v;name2=..." (keys: p / probability, n / fires,
  /// seed, payload; a bare "name" arms with the default spec) and arms
  /// each named point. Returns false and fills *error on a malformed
  /// spec, leaving earlier entries armed.
  bool armFromSpec(const std::string& spec, std::string* error = nullptr);

  void disarmAll();

  /// Names currently armed (banner / diagnostics).
  std::vector<std::string> armedNames() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Failpoint>> points_;
};

/// RAII disarm-all: tests and benches arm inside a scope so a failing
/// assertion or exception can never leave the global registry armed for
/// whatever runs next in the process.
struct FailpointArmScope {
  FailpointArmScope() = default;
  FailpointArmScope(const FailpointArmScope&) = delete;
  FailpointArmScope& operator=(const FailpointArmScope&) = delete;
  ~FailpointArmScope() { FailpointRegistry::global().disarmAll(); }
};

/// Throws FailpointError(name) when the point fires. Null-safe.
inline void failpointMaybeThrow(Failpoint* fp) {
  if (fp != nullptr && fp->shouldFire()) throw FailpointError(fp->name());
}

/// Sleeps the point's payload (milliseconds) when it fires, in small
/// slices so `cancel` (e.g. a component's shutdown flag) can cut the
/// stall short. Null-safe. Returns true when it stalled.
bool failpointMaybeStall(Failpoint* fp,
                         const std::atomic<bool>* cancel = nullptr);

}  // namespace meshrt
