// Open-loop, layer-attributed benchmark driver for RouteService and
// ServiceFleet.
//
//   openbench_driver --workload read_static --seed 2007 --seconds 12
//                    --trace 0 [--spans-out FILE]
//
// run.py builds and runs this binary; rates and limits are fixed per
// workload in workloadSpecs(). The driver generates every input from
// --seed, runs it open-loop (openloop.h), checks a deterministic sample
// of answers against the Router reference on the pinned epoch, and
// prints one JSON record as its last line: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. README.md lists the
// workloads and what each metric should move.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/incremental.h"
#include "fault/injectors.h"
#include "route/batch_chase.h"
#include "route/packed_column.h"
#include "route/validate.h"
#include "service/fleet.h"
#include "service/route_service.h"
#include "service/stitch_planner.h"

#include "openloop.h"
#include "spans.h"

#ifndef OPENBENCH_BUILD_TYPE
#define OPENBENCH_BUILD_TYPE "unknown"
#endif

namespace openbench {
namespace {

using namespace meshrt;
using Handle = SnapshotBox<ServiceSnapshot>::Handle;

/// Request mix: every block of 16 requests holds 15 small requests and
/// one bulk request at a seeded position.
constexpr std::size_t kSmallQueries = 16;
constexpr std::size_t kBulkQueries = 1024;
constexpr std::size_t kMixBlock = 16;
/// Precompiled destination pool of the single-service workloads.
constexpr std::size_t kDestPool = 64;
/// Distinct request bodies the schedules draw from: inputs stay a few
/// megabytes however many requests a run sends.
constexpr std::size_t kSmallBodies = 2048;
constexpr std::size_t kBulkBodies = 128;
constexpr double kMeanQueriesPerRequest =
    ((kMixBlock - 1) * kSmallQueries + kBulkQueries) /
    static_cast<double>(kMixBlock);
/// Every thread role the driver starts; pools get one worker per service.
constexpr std::size_t kGeneratorThreads = 1;
constexpr std::size_t kCallerThreads = 1;
constexpr std::size_t kServicePoolThreads = 1;
/// Correctness gate: one request in kSampleEvery is kept, up to a cap per
/// phase, and the first queries of each are checked against the Router.
constexpr std::size_t kSampleEvery = 97;
constexpr std::size_t kSamplesPerSegment = 8;
constexpr std::size_t kSamplesTraced = 48;
constexpr std::size_t kGateQueriesPerSample = 8;
/// Generator lateness is judged at p90: on a shared 4-vCPU virtual
/// machine the hypervisor preempts even a spinning thread for a few
/// milliseconds about once per hundred wake-ups, so a p99 criterion would
/// measure the hypervisor, not whether the generator keeps up.
constexpr double kLateQuantile = 0.90;
constexpr double kLateLimitMs = 1.0;
/// The mesh a workload runs on (fault map, destination pool or Zipf
/// ranking, churn cells) comes from this seed, so --seed varies the
/// traffic over one system state instead of comparing different systems.
constexpr std::uint64_t kLayoutSeed = 2007;
/// Set-ups per end-to-end run; setup_s is their median.
constexpr std::size_t kSetupReps = 7;
/// Fixed-rate segments per end-to-end run, each followed by one capacity
/// probe.
constexpr std::size_t kCapacitySteps = 12;

struct WorkloadSpec {
  std::string name;
  bool fleet = false;
  Coord side = 32;
  double faultRate = 0.10;
  /// Fault events/s beside the reads (0 = no churn stream).
  double eventRate = 0;
  /// Zipf exponent of destinations drawn over every healthy node (0 =
  /// destinations from the precompiled pool).
  double zipf = 0;
  /// Column budget as a share of all healthy-destination columns (0 =
  /// unbounded).
  double budgetShare = 0.0;
  std::size_t grid = 0;
  Coord halo = 2;
  /// Offered requests/s of the fixed-rate segments.
  double rate = 0;
  /// Capacity criterion: a probe's p99 latency.
  double p99LimitMs = 0;
};

const std::vector<WorkloadSpec>& workloadSpecs() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "read_static", .rate = 20000, .p99LimitMs = 50},
      {.name = "churn_read", .eventRate = 10, .rate = 20000,
       .p99LimitMs = 50},
      {.name = "cold_tail", .zipf = 2.4, .budgetShare = 1.0 / 8.0,
       .rate = 375, .p99LimitMs = 250},
      {.name = "fleet_mixed", .fleet = true, .side = 128, .faultRate = 0.02,
       .grid = 4, .rate = 1600, .p99LimitMs = 200},
  };
  return specs;
}

struct Options {
  std::string workload;
  /// Traffic: request bodies, arrival times, event times.
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string spansOut;
};

bool parseOptions(int argc, char** argv, Options& o) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) return false;
  try {
    for (const auto& [key, value] : kv) {
      if (key == "workload") o.workload = value;
      else if (key == "seed") o.seed = std::stoull(value);
      else if (key == "seconds") o.seconds = std::stod(value);
      else if (key == "trace") o.trace = std::stoi(value);
      else if (key == "spans-out") o.spansOut = value;
      else return false;
    }
  } catch (const std::exception&) {
    return false;
  }
  return !o.workload.empty() && o.seconds > 0 &&
         (o.trace == 0 || o.trace == 1);
}

// ------------------------------------------------------------------ inputs

struct Request {
  std::vector<Query> queries;
  /// Holds at least one cross-shard query (fleet only).
  bool cross = false;
  /// Distinct destinations: column lookups the request causes.
  std::uint32_t distinctDests = 0;
};

struct FaultEventSpec {
  Point cell;
  bool add = true;
};

struct Phase {
  std::vector<Arrival> schedule;
  /// Request bodies, owned by Inputs' body pools.
  std::vector<const Request*> requests;
  std::vector<FaultEventSpec> events;
  /// Global fault state before this phase's first event.
  std::unique_ptr<FaultSet> faultsAtStart;
};

double exponential(Rng& rng, double rate) {
  return -std::log(1.0 - rng.uniform01()) / rate;
}

/// Every input of a run, derived from the two seeds alone.
class Inputs {
 public:
  Inputs(const WorkloadSpec& spec, const Options& opt)
      : spec_(spec), opt_(opt), mesh_(Mesh2D::square(spec.side)),
        initial_(mesh_), current_(mesh_) {
    Rng faultRng = Rng::forStream(kLayoutSeed, 1);
    initial_ = injectUniform(
        mesh_,
        static_cast<std::size_t>(mesh_.nodeCount() * spec.faultRate),
        faultRng);
    current_ = initial_;
    Rng destRng = Rng::forStream(kLayoutSeed, 2);
    std::set<Point> reserved;
    if (spec.fleet) {
      layout_ = std::make_unique<ShardLayout>(mesh_, spec.grid, spec.halo);
      shardPools_.resize(layout_->shardCount());
      for (std::size_t k = 0; k < layout_->shardCount(); ++k) {
        while (shardPools_[k].size() < 4) {
          const Point p = randomOwnedHealthy(k, destRng);
          if (reserved.insert(p).second) shardPools_[k].push_back(p);
        }
      }
    } else if (spec.zipf > 0) {
      for (NodeId id = 0; id < mesh_.nodeCount(); ++id) {
        if (initial_.isHealthy(mesh_.point(id))) {
          zipfRanked_.push_back(mesh_.point(id));
        }
      }
      std::shuffle(zipfRanked_.begin(), zipfRanked_.end(), destRng);
      double total = 0;
      for (std::size_t r = 0; r < zipfRanked_.size(); ++r) {
        total += std::pow(static_cast<double>(r + 1), -spec.zipf);
        zipfCdf_.push_back(total);
      }
      for (double& c : zipfCdf_) c /= total;
    } else {
      while (pool_.size() < kDestPool) {
        const Point p = randomHealthy(initial_, destRng);
        if (reserved.insert(p).second) pool_.push_back(p);
      }
    }
    makeToggleCells(reserved);
    Rng bodyRng = Rng::forStream(opt.seed, 5);
    for (std::size_t i = 0; i < kSmallBodies; ++i) {
      small_.push_back(makeRequest(kSmallQueries, bodyRng));
    }
    for (std::size_t i = 0; i < kBulkBodies; ++i) {
      bulk_.push_back(makeRequest(kBulkQueries, bodyRng));
    }
  }

  const WorkloadSpec& spec() const { return spec_; }
  const Mesh2D& mesh() const { return mesh_; }
  const FaultSet& initial() const { return initial_; }
  const ShardLayout& layout() const { return *layout_; }
  const std::vector<Point>& pool() const { return pool_; }
  const std::vector<Point>& zipfRanked() const { return zipfRanked_; }
  const std::vector<std::vector<Point>>& shardPools() const {
    return shardPools_;
  }
  /// Every request body the schedules draw from.
  std::vector<const Request*> bodies() const {
    std::vector<const Request*> out;
    for (const Request& r : small_) out.push_back(&r);
    for (const Request& r : bulk_) out.push_back(&r);
    return out;
  }
  /// Shards that receive fault events (fleet_mixed).
  std::vector<std::size_t> churnShards() const {
    return {layout_->shardAt(1, 1), layout_->shardAt(2, 2)};
  }

  /// One phase: Poisson requests at `rate` for `durationNs`, plus Poisson
  /// fault events at `eventRate` (0 = none). Phases must be generated in
  /// the order they run: events toggle the driver's view of the faults.
  Phase makePhase(std::uint64_t id, double rate, std::uint64_t durationNs,
                  double eventRate) {
    Phase phase;
    phase.faultsAtStart = std::make_unique<FaultSet>(current_);
    Rng rng = Rng::forStream(opt_.seed, 100 + id);
    const double durS = static_cast<double>(durationNs) * 1e-9;
    std::size_t bulkAt = 0;
    double t = exponential(rng, rate);
    for (std::size_t i = 0; t < durS; ++i) {
      if (i % kMixBlock == 0) bulkAt = rng.below(kMixBlock);
      const std::vector<Request>& bodies =
          i % kMixBlock == bulkAt ? bulk_ : small_;
      phase.schedule.push_back(
          {static_cast<std::uint64_t>(t * 1e9), false,
           static_cast<std::uint32_t>(phase.requests.size())});
      phase.requests.push_back(&bodies[rng.below(bodies.size())]);
      t += exponential(rng, rate);
    }
    if (eventRate > 0) {
      Rng erng = Rng::forStream(opt_.seed, 50'000 + id);
      // A Poisson stream conditioned on its count: the expected number of
      // events at independent uniform times from the seed. The cells cycle
      // through the churn set in a fixed order, so every seed applies the
      // same toggles in every phase and event costs compare across seeds;
      // only the arrival times vary.
      std::vector<double> times(
          static_cast<std::size_t>(std::lround(eventRate * durS)));
      for (double& te : times) te = erng.uniform01() * durS;
      std::sort(times.begin(), times.end());
      for (const double te : times) {
        const Point cell = toggles_[nextToggle_++ % toggles_.size()];
        phase.schedule.push_back(
            {static_cast<std::uint64_t>(te * 1e9), true,
             static_cast<std::uint32_t>(phase.events.size())});
        phase.events.push_back(toggle(cell));
      }
    }
    std::stable_sort(phase.schedule.begin(), phase.schedule.end(),
                     [](const Arrival& a, const Arrival& b) {
                       return a.dueNs < b.dueNs;
                     });
    return phase;
  }

  /// Restarts the driver's fault view for a freshly set-up system.
  void resetFaults() {
    current_ = initial_;
    nextToggle_ = 0;
  }

  /// Post-window probe for workloads without a churn stream: toggle every
  /// cell of the churn set and toggle it back.
  std::vector<FaultEventSpec> probeEvents() {
    std::vector<FaultEventSpec> out;
    for (const Point p : toggles_) out.push_back(toggle(p));
    for (const Point p : toggles_) out.push_back(toggle(p));
    return out;
  }

  /// A query batch touching every warm-set destination once.
  std::vector<Query> warmupBatch(std::size_t zipfWarm) const {
    Rng rng = Rng::forStream(opt_.seed, 3);
    std::vector<Query> batch;
    if (spec_.fleet) {
      const std::size_t n = layout_->shardCount();
      for (std::size_t k = 0; k < n; ++k) {
        for (const Point d : shardPools_[k]) {
          batch.push_back({randomOwnedHealthy(k, rng), d});
          for (std::size_t ks = 0; ks < n; ++ks) {
            if (ks != k) batch.push_back({randomOwnedHealthy(ks, rng), d});
          }
        }
      }
      return batch;
    }
    const std::vector<Point>& dests =
        spec_.zipf > 0 ? zipfRanked_ : pool_;
    const std::size_t count =
        spec_.zipf > 0 ? std::min(zipfWarm, dests.size()) : dests.size();
    for (std::size_t i = 0; i < count; ++i) {
      batch.push_back({randomHealthy(initial_, rng), dests[i]});
    }
    return batch;
  }

  Point randomOwnedHealthy(std::size_t k, Rng& rng) const {
    const Rect& r = layout_->owned(k);
    for (;;) {
      const Point p{
          r.x0 + static_cast<Coord>(rng.below(static_cast<std::uint64_t>(
                     r.width()))),
          r.y0 + static_cast<Coord>(rng.below(static_cast<std::uint64_t>(
                     r.height())))};
      if (initial_.isHealthy(p)) return p;
    }
  }

 private:
  FaultEventSpec toggle(Point cell) {
    const bool add = current_.isHealthy(cell);
    if (add) {
      current_.add(cell);
    } else {
      current_.remove(cell);
    }
    return {cell, add};
  }

  Point zipfDest(Rng& rng) const {
    const double u = rng.uniform01();
    const auto it = std::lower_bound(zipfCdf_.begin(), zipfCdf_.end(), u);
    const auto r = std::min<std::size_t>(
        static_cast<std::size_t>(it - zipfCdf_.begin()),
        zipfRanked_.size() - 1);
    return zipfRanked_[r];
  }

  Request makeRequest(std::size_t size, Rng& rng) const {
    Request req;
    req.queries.reserve(size);
    std::set<Point> dests;
    if (spec_.fleet) {
      // 30% of the requests are intra-shard only; the rest carry 43%
      // cross-shard queries over uniform shard pairs: 30% overall. Both
      // kinds stay clear of 50%, so no latency median sits on the seam
      // between them.
      const bool intraOnly = rng.chance(0.3);
      const std::size_t n = layout_->shardCount();
      for (std::size_t i = 0; i < size; ++i) {
        const std::size_t kd = rng.below(n);
        std::size_t ks = kd;
        if (!intraOnly && rng.chance(0.43)) {
          ks = (kd + 1 + rng.below(n - 1)) % n;
          req.cross = true;
        }
        const auto& pool = shardPools_[kd];
        const Point d = pool[rng.below(pool.size())];
        req.queries.push_back({randomOwnedHealthy(ks, rng), d});
        dests.insert(d);
      }
    } else {
      for (std::size_t i = 0; i < size; ++i) {
        const Point d = spec_.zipf > 0 ? zipfDest(rng)
                                       : pool_[rng.below(pool_.size())];
        req.queries.push_back({randomHealthy(initial_, rng), d});
        dests.insert(d);
      }
    }
    req.distinctDests = static_cast<std::uint32_t>(dests.size());
    return req;
  }

  bool bordersFault(Point p) const {
    for (Coord dy = -1; dy <= 1; ++dy) {
      for (Coord dx = -1; dx <= 1; ++dx) {
        const Point q{p.x + dx, p.y + dy};
        if ((dx != 0 || dy != 0) && mesh_.contains(q) &&
            initial_.isFaulty(q)) {
          return true;
        }
      }
    }
    return false;
  }

  /// Cells the fault stream toggles. Single service: 32 healthy cells
  /// bordering an initial fault (so components merge and split) and 32
  /// elsewhere: enough cells that the cost of an event averages over the
  /// mesh instead of hanging on a few seeded positions. Fleet: per churn
  /// shard, 4 cells on the owned border ring (replicated into a
  /// neighbor's halo) and 12 interior cells. Never a destination.
  void makeToggleCells(const std::set<Point>& reserved) {
    Rng rng = Rng::forStream(kLayoutSeed, 4);
    std::set<Point> chosen;
    const auto accept = [&](Point p) {
      if (initial_.isFaulty(p) || reserved.count(p) != 0 ||
          !chosen.insert(p).second) {
        return false;
      }
      toggles_.push_back(p);
      return true;
    };
    if (spec_.fleet) {
      for (const std::size_t k : churnShards()) {
        const Rect& r = layout_->owned(k);
        // Few ring cells: a fault on a border moves portal exits, and the
        // new exits compile on the request path (light border churn).
        constexpr std::size_t kRingCells = 4;
        constexpr std::size_t kInnerCells = 12;
        std::size_t ring = 0;
        std::size_t inner = 0;
        while (ring < kRingCells || inner < kInnerCells) {
          const Point p = randomOwnedHealthy(k, rng);
          const Coord dx = std::min(p.x - r.x0, r.x1 - p.x);
          const Coord dy = std::min(p.y - r.y0, r.y1 - p.y);
          // Ring cells stay 3+ cells from the owned corners, so each one
          // lies in exactly one neighbor's halo: two covering shards.
          const bool onRing = std::min(dx, dy) == 0 && std::max(dx, dy) >= 3;
          if (onRing && ring < kRingCells && accept(p)) ++ring;
          if (std::min(dx, dy) >= 3 && inner < kInnerCells && accept(p)) {
            ++inner;
          }
        }
      }
      return;
    }
    std::size_t near = 0;
    std::size_t far = 0;
    while (near < 32 || far < 32) {
      const Point p = randomHealthy(initial_, rng);
      const bool borders = bordersFault(p);
      if (borders && near < 32 && accept(p)) ++near;
      if (!borders && far < 32 && accept(p)) ++far;
    }
  }

  const WorkloadSpec& spec_;
  const Options& opt_;
  Mesh2D mesh_;
  FaultSet initial_;
  FaultSet current_;
  std::unique_ptr<ShardLayout> layout_;
  std::vector<Point> pool_;
  std::vector<Point> zipfRanked_;
  std::vector<double> zipfCdf_;
  std::vector<std::vector<Point>> shardPools_;
  std::vector<Point> toggles_;
  std::size_t nextToggle_ = 0;
  std::vector<Request> small_;
  std::vector<Request> bulk_;
};

// ------------------------------------------------------------ reference

/// The spec of per-hop table serving: at every node ask the router afresh
/// and take one hop. A served answer must match it exactly.
ServedRoute hopReference(Router& router, const FaultSet& faults, Point s,
                         Point d) {
  ServedRoute out;
  out.path.push_back(s);
  if (faults.isFaulty(s) || faults.isFaulty(d)) {
    out.status = ServeStatus::EndpointFaulty;
    return out;
  }
  Point u = s;
  const auto maxSteps = static_cast<std::size_t>(faults.mesh().nodeCount());
  for (std::size_t step = 0; step <= maxSteps; ++step) {
    if (u == d) {
      out.status = ServeStatus::Delivered;
      out.hops = static_cast<Distance>(step);
      return out;
    }
    const RouteResult res = router.route(u, d);
    if (!res.delivered || res.path.size() < 2) {
      out.status = ServeStatus::NoRoute;
      return out;
    }
    u = res.path[1];
    out.path.push_back(u);
  }
  out.status = ServeStatus::Diverged;
  return out;
}

struct GateResult {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  /// Valid answers on churned epochs that differ from the reference.
  std::uint64_t stale = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++mismatches;
    if (errors.size() < 8) errors.push_back(what);
  }
};

std::string describe(Point s, Point d) {
  std::ostringstream os;
  os << "(" << s.x << "," << s.y << ")->(" << d.x << "," << d.y << ")";
  return os.str();
}

// ---------------------------------------------------------------- targets

/// Query and event outcomes of one phase.
struct Outcome {
  std::uint64_t queries = 0;
  std::uint64_t delivered = 0;
  std::uint64_t failedQueries = 0;
  /// Queries of requests dropped unserved past the backlog cut.
  std::uint64_t abandonedQueries = 0;
  std::uint64_t lookups = 0;
  std::uint64_t crossQueries = 0;
  std::uint64_t crossDelivered = 0;
  std::uint64_t events = 0;
  std::uint64_t failedEvents = 0;
};

/// Gauges sampled while a phase runs (trace mode).
struct Gauges {
  std::int64_t liveSnapshotsMax = 0;
  std::int64_t poolQueueDepthMax = 0;
  std::size_t residentBytesMax = 0;
};

struct SpanNames {
  std::uint16_t request, dispatch, serveCall, fleetCall, publishCall,
      fleetSubmit;
  explicit SpanNames(SpanLog& log)
      : request(log.intern("request")),
        dispatch(log.intern("driver.dispatch_wait")),
        serveCall(log.intern("serve.call")),
        fleetCall(log.intern("fleet.call")),
        publishCall(log.intern("publish.call")),
        fleetSubmit(log.intern("fleet.submit")) {}
};

class BenchTarget : public Target {
 public:
  BenchTarget(const Phase& phase, SpanLog& spans, const SpanNames& names,
              std::uint32_t requestIdBase, std::size_t maxSamples)
      : phase_(phase), spans_(spans), names_(names),
        requestIdBase_(requestIdBase), maxSamples_(maxSamples) {}

  Outcome outcome;

  virtual void sampleGauges(Gauges& g) = 0;
  virtual void gate(GateResult& result) = 0;

 protected:
  bool sampled(std::uint32_t idx) const {
    return idx % kSampleEvery == 3 && samplesTaken_ < maxSamples_;
  }

  /// Root span of a request and its dispatch-wait child; returns the root
  /// id so the layer call can hang under it.
  std::uint32_t openRequest(std::uint32_t idx, const RequestTiming& t) {
    if (!spans_.enabled()) return 0;
    const std::uint32_t root = spans_.nextId();
    Span wait;
    wait.id = spans_.nextId();
    wait.parent = root;
    wait.request = requestIdBase_ + idx;
    wait.name = names_.dispatch;
    wait.start = t.due;
    wait.end = t.start;
    spans_.record(wait);
    return root;
  }

  void closeRequest(std::uint32_t idx, std::uint32_t root,
                    const RequestTiming& t) {
    if (!spans_.enabled()) return;
    Span s;
    s.id = root;
    s.request = requestIdBase_ + idx;
    s.name = names_.request;
    s.start = t.due;
    s.end = nowNs();
    spans_.record(s);
  }

  const Phase& phase_;
  SpanLog& spans_;
  const SpanNames& names_;
  std::uint32_t requestIdBase_;
  std::size_t maxSamples_;
  std::size_t samplesTaken_ = 0;
};

class ServiceTarget : public BenchTarget {
 public:
  ServiceTarget(RouteService& svc, const Phase& phase, SpanLog& spans,
                const SpanNames& names, std::uint32_t base,
                std::size_t maxSamples)
      : BenchTarget(phase, spans, names, base, maxSamples), svc_(svc) {}

  void serve(std::uint32_t idx, const RequestTiming& t) override {
    const Request& req = *phase_.requests[idx];
    const std::uint32_t root = openRequest(idx, t);
    Handle pinned;
    BatchResult r;
    {
      SpanScope call(spans_, names_.serveCall, requestIdBase_ + idx, root);
      pinned = svc_.snapshot();
      r = svc_.serveOn(pinned, req.queries);
    }
    closeRequest(idx, root, t);
    outcome.queries += r.size();
    outcome.lookups += req.distinctDests;
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (r.delivered(i)) ++outcome.delivered;
      if (r.status[i] == ServeStatus::Deadline) ++outcome.failedQueries;
    }
    if (sampled(idx)) {
      ++samplesTaken_;
      std::lock_guard<std::mutex> lock(samplesMutex_);
      heldEpochs_.insert(pinned->epoch());
      samples_.push_back({idx, std::move(pinned), std::move(r)});
    }
  }

  void applyEvent(std::uint32_t idx, EventTiming& t) override {
    const FaultEventSpec& ev = phase_.events[idx];
    const std::uint64_t before = svc_.epoch();
    std::uint64_t after = 0;
    {
      SpanScope call(spans_, names_.publishCall, 0, 0);
      after = ev.add ? svc_.applyAddFault(ev.cell)
                     : svc_.applyRemoveFault(ev.cell);
    }
    t.visible = nowNs();
    ++outcome.events;
    if (after <= before) ++outcome.failedEvents;  // a toggle that published nothing
  }

  void sampleGauges(Gauges& g) override {
    std::int64_t held = 0;
    {
      // Epochs pinned only by the correctness sample are the
      // benchmark's own, not the service's.
      std::lock_guard<std::mutex> lock(samplesMutex_);
      const std::uint64_t current = svc_.epoch();
      for (const std::uint64_t e : heldEpochs_) held += e != current ? 1 : 0;
    }
    g.liveSnapshotsMax = std::max(
        g.liveSnapshotsMax,
        static_cast<std::int64_t>(svc_.liveSnapshots()) - held);
    g.residentBytesMax =
        std::max(g.residentBytesMax, svc_.columnFootprint().bytes);
  }

  void gate(GateResult& result) override {
    for (const Sample& s : samples_) {
      const Request& req = *phase_.requests[s.request];
      const BatchResult withPaths = svc_.serveOn(s.pinned, req.queries, true);
      const auto router = RouterRegistry::global().create(
          svc_.config().routerKey, s.pinned->context());
      const FaultSet& faults = s.pinned->faults();
      for (std::size_t i = 0; i < req.queries.size(); ++i) {
        const Query& q = req.queries[i];
        ++result.checked;
        if (withPaths.status[i] != s.result.status[i] ||
            withPaths.hops[i] != s.result.hops[i]) {
          result.fail("path-mode serve disagrees " + describe(q.s, q.d));
          continue;
        }
        if (s.result.delivered(i) &&
            !isValidPath(faults, q.s, q.d, withPaths.paths[i])) {
          result.fail("invalid path " + describe(q.s, q.d));
          continue;
        }
        if (i >= kGateQueriesPerSample) continue;
        const ServedRoute ref = hopReference(*router, faults, q.s, q.d);
        // Columns are compiled exactly; after a fault event they are
        // patched "valid and eventually fresh" (DESIGN.md 7.2): an entry
        // the event did not touch may keep a valid but no longer
        // reference-equal hop. Equality is therefore required on
        // never-churned epochs, validity on all.
        const bool exact = s.pinned->epoch() == 0;
        if (ref.status != s.result.status[i] ||
            (ref.delivered() &&
             (static_cast<std::int32_t>(ref.hops) != s.result.hops[i] ||
              ref.path != withPaths.paths[i]))) {
          if (exact) {
            result.fail("reference mismatch " + describe(q.s, q.d));
          } else {
            ++result.stale;
          }
        }
      }
    }
  }

 private:
  struct Sample {
    std::uint32_t request;
    Handle pinned;
    BatchResult result;
  };
  RouteService& svc_;
  std::mutex samplesMutex_;
  std::set<std::uint64_t> heldEpochs_;
  std::vector<Sample> samples_;
};

class FleetTarget : public BenchTarget {
 public:
  FleetTarget(ServiceFleet& fleet, const Phase& phase, SpanLog& spans,
              const SpanNames& names, std::uint32_t base,
              std::size_t maxSamples)
      : BenchTarget(phase, spans, names, base, maxSamples), fleet_(fleet),
        layout_(fleet.layout()), submitted_(fleet.shardCount(), 0),
        baseEpoch_(fleet.shardCount(), 0),
        heldEpochs_(fleet.shardCount()) {
    for (std::size_t k = 0; k < fleet.shardCount(); ++k) {
      baseEpoch_[k] = fleet.shard(k).epoch();
    }
  }

  void serve(std::uint32_t idx, const RequestTiming& t) override {
    const Request& req = *phase_.requests[idx];
    // Sampled small requests are served with paths so the gate can
    // validate stitched paths against the pinned epochs.
    const bool sample = sampled(idx) && req.queries.size() == kSmallQueries;
    const std::uint32_t root = openRequest(idx, t);
    FleetBatchResult r;
    {
      SpanScope call(spans_, names_.fleetCall, requestIdBase_ + idx, root);
      r = fleet_.serve(req.queries, sample);
    }
    closeRequest(idx, root, t);
    outcome.queries += r.size();
    outcome.lookups += req.distinctDests;
    constexpr std::uint8_t kFailFlags =
        kFleetFlagDeadline | kFleetFlagShed | kFleetFlagError;
    for (std::size_t i = 0; i < r.size(); ++i) {
      const bool cross = layout_.owner(req.queries[i].s) !=
                         layout_.owner(req.queries[i].d);
      if (r.delivered(i)) ++outcome.delivered;
      if (cross) {
        ++outcome.crossQueries;
        if (r.delivered(i)) ++outcome.crossDelivered;
      }
      if ((r.flags[i] & kFailFlags) != 0) ++outcome.failedQueries;
    }
    if (sample) {
      ++samplesTaken_;
      std::lock_guard<std::mutex> lock(samplesMutex_);
      for (std::size_t k = 0; k < r.shardEpochs.size(); ++k) {
        heldEpochs_[k].insert(r.shardEpochs[k]);
      }
      samples_.push_back({idx, std::move(r)});
    }
  }

  void applyEvent(std::uint32_t idx, EventTiming& t) override {
    const FaultEventSpec& ev = phase_.events[idx];
    Pending p;
    p.timing = &t;
    for (const std::size_t k : layout_.covering(ev.cell)) {
      p.targets.push_back({k, baseEpoch_[k] + ++submitted_[k]});
    }
    SubmitResult res;
    {
      SpanScope call(spans_, names_.fleetSubmit, 0, 0);
      res = ev.add ? fleet_.submitAddFault(ev.cell)
                   : fleet_.submitRemoveFault(ev.cell);
    }
    ++outcome.events;
    if (res != SubmitResult::Accepted) {
      ++outcome.failedEvents;
      for (const auto& [k, epoch] : p.targets) --submitted_[k];
      return;
    }
    pending_.push_back(std::move(p));
  }

  bool pollPending() override {
    const std::uint64_t now = nowNs();
    std::erase_if(pending_, [&](const Pending& p) {
      for (const auto& [k, epoch] : p.targets) {
        if (fleet_.shard(k).epoch() < epoch) return false;
      }
      p.timing->visible = now;
      return true;
    });
    return !pending_.empty();
  }

  /// Events that never became visible count as failed.
  void finish() { outcome.failedEvents += pending_.size(); }

  void sampleGauges(Gauges& g) override {
    std::lock_guard<std::mutex> lock(samplesMutex_);
    std::size_t bytes = 0;
    for (std::size_t k = 0; k < fleet_.shardCount(); ++k) {
      const RouteService& svc = fleet_.shard(k);
      const std::uint64_t current = svc.epoch();
      std::int64_t held = 0;
      for (const std::uint64_t e : heldEpochs_[k]) held += e != current;
      g.liveSnapshotsMax = std::max(
          g.liveSnapshotsMax,
          static_cast<std::int64_t>(svc.liveSnapshots()) - held);
      bytes += svc.columnFootprint().bytes;
    }
    g.residentBytesMax = std::max(g.residentBytesMax, bytes);
  }

  void gate(GateResult& result) override {
    const Mesh2D& mesh = layout_.mesh();
    for (const Sample& s : samples_) {
      const Request& req = *phase_.requests[s.request];
      const FleetBatchResult& r = s.result;
      // The union of the pinned shard epochs, each over the cells it owns.
      FaultSet pinnedFaults(mesh);
      for (std::size_t k = 0; k < r.pinned.size(); ++k) {
        const Rect& own = layout_.owned(k);
        for (Coord y = own.y0; y <= own.y1; ++y) {
          for (Coord x = own.x0; x <= own.x1; ++x) {
            const Point p{x, y};
            if (r.pinned[k]->faults().isFaulty(layout_.toLocal(k, p))) {
              pinnedFaults.add(p);
            }
          }
        }
      }
      for (std::size_t i = 0; i < req.queries.size(); ++i) {
        const Query& q = req.queries[i];
        const std::size_t ks = layout_.owner(q.s);
        const std::size_t kd = layout_.owner(q.d);
        ++result.checked;
        if (r.status[i] == ServeStatus::EndpointFaulty) {
          if (!pinnedFaults.isFaulty(q.s) && !pinnedFaults.isFaulty(q.d)) {
            result.fail("endpoint-faulty on healthy endpoints " +
                        describe(q.s, q.d));
          }
          continue;
        }
        if (r.delivered(i)) {
          const auto& path = r.paths[i];
          if (!isValidPath(pinnedFaults, q.s, q.d, path) ||
              static_cast<std::int32_t>(path.size()) - 1 != r.hops[i]) {
            result.fail("invalid fleet path " + describe(q.s, q.d));
            continue;
          }
          // Every segment, and the crossing hop into it, is healthy in
          // the pinned epoch of the shard that chased it.
          const auto& segs = r.segments[i];
          for (std::size_t j = 0; j < segs.size(); ++j) {
            const std::size_t k = segs[j].shard;
            const std::size_t begin = segs[j].begin == 0 ? 0 : segs[j].begin - 1;
            const std::size_t end =
                j + 1 < segs.size() ? segs[j + 1].begin : path.size();
            for (std::size_t a = begin; a < end; ++a) {
              if (!layout_.local(k).contains(path[a]) ||
                  r.pinned[k]->faults().isFaulty(
                      layout_.toLocal(k, path[a]))) {
                result.fail("segment leaves its pinned epoch " +
                            describe(q.s, q.d));
                break;
              }
            }
          }
        }
        if (ks != kd || i >= kGateQueriesPerSample) continue;
        const auto router = RouterRegistry::global().create(
            fleet_.config().service.routerKey, r.pinned[ks]->context());
        const ServedRoute ref =
            hopReference(*router, r.pinned[ks]->faults(),
                         layout_.toLocal(ks, q.s), layout_.toLocal(ks, q.d));
        if (ref.status != r.status[i] ||
            (ref.delivered() &&
             static_cast<std::int32_t>(ref.hops) != r.hops[i])) {
          // Exactness holds on never-churned shard epochs (see the
          // single-service gate).
          if (r.shardEpochs[ks] == 0) {
            result.fail("intra-shard reference mismatch " +
                        describe(q.s, q.d));
          } else {
            ++result.stale;
          }
        }
      }
    }
  }

 private:
  struct Pending {
    EventTiming* timing = nullptr;
    std::vector<std::pair<std::size_t, std::uint64_t>> targets;
  };
  struct Sample {
    std::uint32_t request;
    FleetBatchResult result;
  };
  ServiceFleet& fleet_;
  const ShardLayout& layout_;
  std::vector<std::uint64_t> submitted_;
  std::vector<std::uint64_t> baseEpoch_;
  std::vector<Pending> pending_;
  std::mutex samplesMutex_;
  std::vector<std::set<std::uint64_t>> heldEpochs_;
  std::vector<Sample> samples_;
};

// ------------------------------------------------------------ the system

/// One instance of the system under test: a RouteService or a fleet.
struct System {
  std::unique_ptr<RouteService> service;
  std::unique_ptr<ServiceFleet> fleet;
};

std::size_t packedColumnBytes(const Mesh2D& mesh) {
  return (static_cast<std::size_t>(mesh.nodeCount()) + 1) / 2 + 3;
}

ServiceConfig serviceConfig(const Inputs& in, bool telemetry,
                            MetricsRegistry* registry) {
  ServiceConfig cfg;
  cfg.routerKey = "rb2";
  cfg.threads = kServicePoolThreads;
  cfg.encoding = ColumnEncoding::Packed;
  cfg.telemetry.enabled = telemetry;
  cfg.telemetry.registry = registry;
  if (in.spec().budgetShare > 0) {
    const auto healthy = static_cast<double>(in.zipfRanked().size());
    cfg.columnBudgetBytes = static_cast<std::size_t>(
        healthy * in.spec().budgetShare *
        static_cast<double>(packedColumnBytes(in.mesh())));
  }
  return cfg;
}

/// Construction, initial labeling and warm-up compile: the destination
/// pool first, then one pass over every request body, so columns the
/// traffic needs (a fleet's portal exits included) compile here and not
/// in the first measured seconds.
System setUp(const Inputs& in, bool telemetry, MetricsRegistry* registry) {
  System sys;
  const ServiceConfig cfg = serviceConfig(in, telemetry, registry);
  if (in.spec().fleet) {
    FleetConfig fc;
    fc.service = cfg;
    fc.grid = in.spec().grid;
    fc.halo = in.spec().halo;
    sys.fleet = std::make_unique<ServiceFleet>(in.initial(), fc);
    sys.fleet->serve(in.warmupBatch(0));
    for (const Request* body : in.bodies()) sys.fleet->serve(body->queries);
  } else {
    sys.service = std::make_unique<RouteService>(in.initial(), cfg);
    const std::size_t warm =
        cfg.columnBudgetBytes / packedColumnBytes(in.mesh());
    sys.service->serve(in.warmupBatch(warm));
    for (const Request* body : in.bodies()) sys.service->serve(body->queries);
  }
  return sys;
}

std::unique_ptr<BenchTarget> makeTarget(System& sys, const Phase& phase,
                                        SpanLog& spans,
                                        const SpanNames& names,
                                        std::uint32_t base,
                                        std::size_t maxSamples) {
  if (sys.fleet) {
    return std::make_unique<FleetTarget>(*sys.fleet, phase, spans, names,
                                         base, maxSamples);
  }
  return std::make_unique<ServiceTarget>(*sys.service, phase, spans, names,
                                         base, maxSamples);
}

std::int64_t poolQueueDepth(const MetricsRegistry& reg) {
  const MetricsSnapshot snap = reg.snapshot();
  const std::int64_t* g = snap.gauge("pool.queue_depth");
  return g == nullptr ? 0 : *g;
}

struct PhaseRun {
  PhaseResult timing;
  Outcome outcome;
  Gauges gauges;
  /// Trace mode: the registry when the phase ended, before the gate.
  MetricsSnapshot registryAtEnd;
};

PhaseRun runOn(System& sys, const Phase& phase, SpanLog& spans,
               const SpanNames& names, std::uint32_t base,
               std::size_t maxSamples,
               const MetricsRegistry* gaugeRegistry, GateResult* gate,
               std::size_t abandonAbove = SIZE_MAX) {
  PhaseRun run;
  auto target = makeTarget(sys, phase, spans, names, base, maxSamples);
  PhaseOptions opts;
  opts.abandonAbove = abandonAbove;
  // Trace mode samples the gauges every 5 ms from a thread of its own;
  // it sleeps between samples, so it takes no core from the system.
  std::atomic<bool> sampling{gaugeRegistry != nullptr};
  std::thread sampler([&] {
    while (sampling.load()) {
      target->sampleGauges(run.gauges);
      run.gauges.poolQueueDepthMax = std::max(run.gauges.poolQueueDepthMax,
                                              poolQueueDepth(*gaugeRegistry));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  run.timing = runPhase(phase.schedule, phase.requests.size(),
                        phase.events.size(), *target, opts);
  sampling.store(false);
  sampler.join();
  if (auto* ft = dynamic_cast<FleetTarget*>(target.get())) ft->finish();
  // The gate re-serves its samples through the same instruments, so the
  // registry is read first: the deltas cover the measured traffic alone.
  if (gaugeRegistry != nullptr) run.registryAtEnd = gaugeRegistry->snapshot();
  if (gate != nullptr) target->gate(*gate);
  run.outcome = target->outcome;
  for (std::size_t i = 0; i < phase.requests.size(); ++i) {
    if (run.timing.requests[i].end == 0) {
      run.outcome.abandonedQueries += phase.requests[i]->queries.size();
    }
  }
  return run;
}

// ---------------------------------------------------------------- metrics

std::vector<double> latenciesMs(const PhaseResult& r, int crossFilter = -1,
                                const Phase* phase = nullptr) {
  std::vector<double> out;
  for (std::size_t i = 0; i < r.requests.size(); ++i) {
    const RequestTiming& t = r.requests[i];
    if (t.end == 0) continue;
    if (crossFilter >= 0 && phase != nullptr &&
        phase->requests[i]->cross != (crossFilter == 1)) {
      continue;
    }
    out.push_back(static_cast<double>(t.end - t.due) * 1e-6);
  }
  return out;
}

/// Latency quantiles are medians over short windows of at least
/// kWindowSamples requests: a hypervisor that preempts the virtual
/// machine for tens of milliseconds then moves the tail of the window a
/// stall lands in, not the reported figure.
constexpr std::uint64_t kWindowNs = 250'000'000;
constexpr std::size_t kWindowSamples = 1000;

std::string jsonArray(const std::vector<double>& values) {
  std::ostringstream os;
  os << std::setprecision(6) << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? "," : "") << values[i];
  }
  os << "]";
  return os.str();
}

std::vector<double> dispatchWaitMs(const PhaseResult& r) {
  std::vector<double> out;
  for (const RequestTiming& t : r.requests) {
    if (t.end != 0) out.push_back(static_cast<double>(t.start - t.due) * 1e-6);
  }
  return out;
}

std::vector<double> lateMs(const PhaseResult& r) {
  std::vector<double> out;
  for (const std::uint64_t ns : r.lateNs) out.push_back(ns * 1e-6);
  return out;
}

std::vector<double> visibleMs(const PhaseResult& r) {
  std::vector<double> out;
  for (const EventTiming& e : r.events) {
    if (e.visible != 0) out.push_back(static_cast<double>(e.visible - e.due) * 1e-6);
  }
  return out;
}

/// Resident-set high-water mark (VmHWM) since the last resetPeakRss().
double peakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Restarts the high-water mark at the current resident set, so buffers
/// the capacity probes allocated and freed do not count as the workload's
/// peak.
void resetPeakRss() {
  malloc_trim(0);  // hand freed probe buffers back first
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

std::size_t cpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Ordered JSON object writer for the result record.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    std::ostringstream os;
    if (std::isfinite(v)) {
      os << std::setprecision(10) << v;
    } else {
      os << "null";
    }
    return raw(key, os.str());
  }
  JsonObject& integer(const std::string& key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::string esc;
    for (const char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      esc += c;
    }
    return raw(key, "\"" + esc + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":" + json);
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Metric map in declaration order: name -> (value, unit).
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    JsonObject o;
    for (const auto& e : entries_) {
      o.raw(e.name, JsonObject().num("value", e.value).str("unit", e.unit).dump());
    }
    return o.dump();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Registry counter/histogram deltas across a phase.
class RegistryDelta {
 public:
  RegistryDelta(const MetricsSnapshot& before, const MetricsSnapshot& after)
      : before_(before), after_(after) {}
  double counter(const std::string& name) const {
    const auto* a = after_.counter(name);
    const auto* b = before_.counter(name);
    return static_cast<double>((a ? *a : 0) - (b ? *b : 0));
  }
  double histSumNs(const std::string& name) const {
    const auto* a = after_.histogram(name);
    const auto* b = before_.histogram(name);
    return static_cast<double>((a ? a->sum : 0) - (b ? b->sum : 0));
  }
  double histCount(const std::string& name) const {
    const auto* a = after_.histogram(name);
    const auto* b = before_.histogram(name);
    return static_cast<double>((a ? a->count : 0) - (b ? b->count : 0));
  }

 private:
  const MetricsSnapshot& before_;
  const MetricsSnapshot& after_;
};

// ---------------------------------------------------- per-layer replays

struct RouteReplay {
  double compileColumnMs = 0;
  double firstHopUs = 0;
  double chaseNsPerHop = 0;
  double hopsPerQuery = 0;
};

/// compileRouteColumn / firstHopByte / chaseBatch, called directly on one
/// pinned epoch with the workload's own destinations.
RouteReplay replayRoute(const Handle& snap, const std::vector<Point>& dests,
                        std::uint64_t seed) {
  RouteReplay out;
  const auto router = RouterRegistry::global().create("rb2", snap->context());
  const FaultSet& faults = snap->faults();
  const Mesh2D& mesh = snap->mesh();
  std::vector<double> compileMs;
  std::vector<PackedRouteColumn> columns;
  for (const Point d : dests) {
    if (faults.isFaulty(d)) continue;
    const std::uint64_t t0 = nowNs();
    const RouteColumn dense = compileRouteColumn(*router, faults, d);
    compileMs.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
    columns.emplace_back(dense, mesh);
  }
  out.compileColumnMs = median(compileMs);
  if (columns.empty()) return out;
  Rng rng = Rng::forStream(seed, 7);
  std::vector<NodeId> sources;
  for (std::size_t i = 0; i < 4096; ++i) {
    sources.push_back(mesh.id(randomHealthy(faults, rng)));
  }
  const std::size_t pairs = 2000;
  const std::uint64_t f0 = nowNs();
  for (std::size_t i = 0; i < pairs; ++i) {
    firstHopByte(*router, faults, mesh.point(sources[i]),
                 columns[i % columns.size()].dest());
  }
  out.firstHopUs = static_cast<double>(nowNs() - f0) * 1e-3 / pairs;
  std::vector<ServeStatus> status(sources.size());
  std::vector<std::int32_t> hops(sources.size());
  std::uint64_t totalHops = 0;
  std::uint64_t delivered = 0;
  std::uint64_t chaseNs = 0;
  for (int rep = 0; rep < 5; ++rep) {
    for (const PackedRouteColumn& c : columns) {
      std::fill(hops.begin(), hops.end(), 0);
      const std::uint64_t c0 = nowNs();
      chaseBatch(c, sources.data(), sources.size(), c.hopBound(),
                 status.data(), hops.data());
      chaseNs += nowNs() - c0;
      for (std::size_t i = 0; i < sources.size(); ++i) {
        if (status[i] == ServeStatus::Delivered) {
          totalHops += static_cast<std::uint64_t>(hops[i]);
          ++delivered;
        }
      }
    }
  }
  out.chaseNsPerHop = ratio(static_cast<double>(chaseNs),
                            static_cast<double>(totalHops));
  out.hopsPerQuery = ratio(static_cast<double>(totalHops),
                           static_cast<double>(delivered));
  return out;
}

struct LabelerReplay {
  double initialS = 0;
  double applyUs = 0;
  double cellsPerEvent = 0;
  double mccsPerEvent = 0;
};

/// A standalone IncrementalLabeler: bulk initialization, then the run's
/// own event stream, given in the labeler's frame (a fleet shard's local
/// coordinates).
LabelerReplay replayLabeler(const Mesh2D& mesh, const FaultSet& initial,
                            const std::vector<FaultEventSpec>& events) {
  LabelerReplay out;
  std::vector<double> initS;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = nowNs();
    IncrementalLabeler lab(mesh, initial);
    initS.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
  }
  out.initialS = median(initS);
  IncrementalLabeler lab(mesh, initial);
  std::uint64_t ns = 0;
  std::uint64_t cells = 0;
  std::uint64_t mccs = 0;
  std::uint64_t applied = 0;
  for (const FaultEventSpec& ev : events) {
    if (!mesh.contains(ev.cell)) continue;
    const std::uint64_t t0 = nowNs();
    const LabelDelta d = ev.add ? lab.addFault(ev.cell) : lab.removeFault(ev.cell);
    ns += nowNs() - t0;
    cells += d.changed.size();
    mccs += d.addedMccs.size();
    ++applied;
  }
  out.applyUs = ratio(static_cast<double>(ns) * 1e-3, applied);
  out.cellsPerEvent = ratio(static_cast<double>(cells), applied);
  out.mccsPerEvent = ratio(static_cast<double>(mccs), applied);
  return out;
}

/// RouteService::serveOn replayed on the traced phase's intra-shard
/// sub-batches, grouped per owner shard as the fleet delegates them,
/// against the fleet's current pinned shards. The stage histograms cannot
/// split a fleet call's intra part from the segment serves inside
/// stitching, so the intra part is timed here instead.
double replayIntraUs(ServiceFleet& fleet, const Phase& phase) {
  const ShardLayout& layout = fleet.layout();
  std::vector<Handle> pins;
  for (std::size_t k = 0; k < fleet.shardCount(); ++k) {
    pins.push_back(fleet.shard(k).snapshot());
  }
  std::uint64_t ns = 0;
  std::uint64_t replayed = 0;
  for (const Request* req : phase.requests) {
    if (replayed >= 2000) break;
    std::vector<std::vector<Query>> sub(fleet.shardCount());
    for (const Query& q : req->queries) {
      const std::size_t k = layout.owner(q.s);
      if (k == layout.owner(q.d)) {
        sub[k].push_back({layout.toLocal(k, q.s), layout.toLocal(k, q.d)});
      }
    }
    const std::uint64_t t0 = nowNs();
    for (std::size_t k = 0; k < sub.size(); ++k) {
      if (!sub[k].empty()) fleet.shard(k).serveOn(pins[k], sub[k]);
    }
    ns += nowNs() - t0;
    ++replayed;
  }
  return ratio(static_cast<double>(ns) * 1e-3, replayed);
}

/// StitchPlanner::Session replayed on the traced phase's cross queries,
/// one session per request, against the fleet's current pinned shards.
double replayPlannerUs(ServiceFleet& fleet, const Phase& phase) {
  const ShardLayout& layout = fleet.layout();
  std::vector<Handle> pins;
  std::vector<std::uint64_t> epochs;
  for (std::size_t k = 0; k < fleet.shardCount(); ++k) {
    pins.push_back(fleet.shard(k).snapshot());
    epochs.push_back(pins.back()->epoch());
  }
  const auto healthy = [&](Point p) {
    const std::size_t k = layout.owner(p);
    return !pins[k]->faults().isFaulty(layout.toLocal(k, p));
  };
  StitchPlanner planner(layout, StitchPlanMode::Hierarchical, {});
  std::uint64_t ns = 0;
  std::uint64_t sessions = 0;
  for (const Request* req : phase.requests) {
    if (!req->cross || sessions >= 400) continue;
    const std::uint64_t t0 = nowNs();
    StitchPlanner::Session session = planner.session(healthy, epochs);
    for (const Query& q : req->queries) {
      const std::size_t ks = layout.owner(q.s);
      const std::size_t kd = layout.owner(q.d);
      if (ks == kd) continue;
      const std::vector<std::size_t> path = session.shardPath(ks, kd);
      for (std::size_t j = 0; j + 1 < path.size(); ++j) {
        session.crossings(path[j], path[j + 1]);
      }
    }
    ns += nowNs() - t0;
    ++sessions;
  }
  return ratio(static_cast<double>(ns) * 1e-3, sessions);
}

// ------------------------------------------------------------- the runs

struct Provenance {
  std::size_t nproc = cpuCount();
  std::size_t writers = 0;
  std::size_t poolThreads = 0;
  std::size_t runnableBudget = 0;
  bool valid = true;
};

Provenance provenance(const WorkloadSpec& spec) {
  Provenance p;
  p.writers = spec.eventRate > 0 ? 1 : 0;
  // One service pool worker runs beside the caller that waits on it; a
  // fleet's other shard pools and its appliers sleep between events.
  p.poolThreads = kServicePoolThreads;
  p.runnableBudget =
      kGeneratorThreads + kCallerThreads + p.poolThreads + p.writers;
  p.valid = p.runnableBudget <= p.nproc;
  return p;
}

std::string provenanceJson(const WorkloadSpec& spec, const Provenance& p,
                           const System& sys, bool traced) {
  std::size_t serviceThreads = kServicePoolThreads;
  std::size_t appliers = 0;
  if (sys.fleet) {
    serviceThreads = kServicePoolThreads * sys.fleet->shardCount();
    appliers = sys.fleet->shardCount();
  }
  JsonObject threads;
  threads.integer("generator", kGeneratorThreads)
      .integer("caller", kCallerThreads)
      .integer("writer", p.writers)
      .integer("service_pool", static_cast<std::int64_t>(serviceThreads))
      .integer("fleet_appliers_idle_between_events",
               static_cast<std::int64_t>(appliers))
      .integer("runnable_budget", static_cast<std::int64_t>(p.runnableBudget));
  JsonObject o;
  o.str("workload", spec.name)
      .integer("nproc", static_cast<std::int64_t>(p.nproc))
      .raw("threads", threads.dump())
      .boolean("valid", p.valid)
      .str("build_type", OPENBENCH_BUILD_TYPE)
      .boolean("avx2_dispatch", chaseBatchSimdAvailable())
      .boolean("telemetry_stage_histograms", traced);
  return o.dump();
}

std::uint64_t secondsToNs(double s) {
  return static_cast<std::uint64_t>(s * 1e9);
}

/// Backlog that takes longer than the p99 limit to drain at the offered
/// rate: the queue has outgrown what the limit allows.
std::size_t backlogLimit(double rate, const WorkloadSpec& spec) {
  return std::max<std::size_t>(
      8, static_cast<std::size_t>(rate * spec.p99LimitMs * 1e-3));
}

bool meetsLimit(const PhaseRun& run, double rate, const WorkloadSpec& spec,
                std::string& why) {
  const std::vector<double> lat = latenciesMs(run.timing);
  const double p99 = quantile(lat, 0.99);
  const double late = quantile(lateMs(run.timing), kLateQuantile);
  if (run.timing.backlogAtEnd > backlogLimit(rate, spec) ||
      run.timing.abandoned > 0) {
    why = "backlog";
    return false;
  }
  if (late > kLateLimitMs) {
    why = "generator-late";
    return false;
  }
  if (p99 > spec.p99LimitMs || run.outcome.failedQueries > 0) {
    why = "p99";
    return false;
  }
  why = "ok";
  return true;
}

void addOutcome(Outcome& into, const Outcome& o) {
  into.queries += o.queries;
  into.abandonedQueries += o.abandonedQueries;
  into.delivered += o.delivered;
  into.failedQueries += o.failedQueries;
  into.lookups += o.lookups;
  into.crossQueries += o.crossQueries;
  into.crossDelivered += o.crossDelivered;
  into.events += o.events;
  into.failedEvents += o.failedEvents;
}

/// Latencies of a phase's finished requests cut into consecutive windows
/// of kWindowNs by due time, each extended until it holds at least
/// kWindowSamples requests (so every window's p99 has 10 beyond it).
std::vector<std::vector<double>> latencyWindows(const PhaseResult& r) {
  std::vector<std::vector<double>> windows(1);
  std::uint64_t windowStart = 0;
  for (const RequestTiming& t : r.requests) {
    if (t.end == 0) continue;
    if (windowStart == 0) windowStart = t.due;
    if (t.due >= windowStart + kWindowNs &&
        windows.back().size() >= kWindowSamples) {
      windows.emplace_back();
      windowStart = t.due;
    }
    windows.back().push_back(static_cast<double>(t.end - t.due) * 1e-6);
  }
  // A short tail joins the window before it.
  if (windows.size() > 1 && windows.back().size() < kWindowSamples) {
    std::vector<double> tail = std::move(windows.back());
    windows.pop_back();
    windows.back().insert(windows.back().end(), tail.begin(), tail.end());
  }
  if (windows.back().empty()) windows.pop_back();
  return windows;
}

/// Phases of one kind merged in run order: per-window latency quantiles,
/// event visibility and outcomes. Only summaries are kept, so the driver's own memory does
/// not grow with the run and show up in peak_rss_mb.
struct Merged {
  std::vector<double> p50Ms;
  std::vector<double> p99Ms;
  std::vector<double> lateP90Ms;
  std::vector<double> dispatchWaitP99Ms;
  std::vector<double> visibleMs;
  std::size_t samples = 0;
  std::size_t minSamples = SIZE_MAX;
  std::size_t inflightMax = 0;
  std::size_t backlogMax = 0;
  std::size_t abandoned = 0;
  Outcome outcome;

  void add(const PhaseRun& run) {
    for (const std::vector<double>& window : latencyWindows(run.timing)) {
      p50Ms.push_back(quantile(window, 0.5));
      p99Ms.push_back(quantile(window, 0.99));
      samples += window.size();
      minSamples = std::min(minSamples, window.size());
    }
    lateP90Ms.push_back(quantile(lateMs(run.timing), kLateQuantile));
    dispatchWaitP99Ms.push_back(quantile(dispatchWaitMs(run.timing), 0.99));
    const std::vector<double> visible = openbench::visibleMs(run.timing);
    visibleMs.insert(visibleMs.end(), visible.begin(), visible.end());
    inflightMax = std::max(inflightMax, run.timing.inflightMax);
    backlogMax = std::max(backlogMax, run.timing.backlogAtEnd);
    abandoned += run.timing.abandoned;
    addOutcome(outcome, run.outcome);
  }
};

/// Highest offered rate that meets the p99 limit with no growing backlog
/// and a punctual generator: bisection in log space over [rate/2, 4 rate].
/// A failed probe is repeated once before the bracket shrinks, so a single
/// host stall cannot cap the answer for the rest of the search.
class CapacitySearch {
 public:
  explicit CapacitySearch(double rate) : lo_(rate / 2), hi_(rate * 4) {}
  double next() const { return retry_ > 0 ? retry_ : std::sqrt(lo_ * hi_); }
  void record(double rate, bool ok) {
    if (ok) {
      lo_ = rate;
      retry_ = 0;
    } else if (retry_ == 0) {
      retry_ = rate;
    } else {
      hi_ = rate;
      retry_ = 0;
    }
  }
  double capacity() const { return lo_; }

 private:
  double lo_;
  double hi_;
  double retry_ = 0;
};

/// 3: an answer failed the gate. 4: the run started more runnable threads
/// than nproc, so its timings measure the scheduler.
int exitCode(const GateResult& gate, const Provenance& prov) {
  if (gate.mismatches != 0) return 3;
  return prov.valid ? 0 : 4;
}

int runEndToEnd(const WorkloadSpec& spec, const Options& opt) {
  Inputs in(spec, opt);
  SpanLog spans(false);
  const SpanNames names(spans);
  const Provenance prov = provenance(spec);

  std::vector<double> setupS;
  System sys;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    sys = System{};  // tear the previous instance down before timing
    const std::uint64_t t0 = nowNs();
    sys = setUp(in, false, nullptr);
    setupS.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
  }

  // Warm-up at the fixed rate (threads, caches, allocator, the first
  // churn events), not reported.
  Phase warm = in.makePhase(1000, spec.rate,
                            secondsToNs(opt.seconds * 0.1), spec.eventRate);
  Merged warmRun;
  warmRun.add(runOn(sys, warm, spans, names, 0, 0, nullptr, nullptr,
                    warm.requests.size() / 5));

  // The fixed-rate window and the capacity probes alternate, so both
  // sample the host across the whole run instead of one stretch of it.
  const std::size_t segments = kCapacitySteps;
  const std::uint64_t segmentNs =
      secondsToNs(opt.seconds * 0.4 / static_cast<double>(segments));
  const std::uint64_t stepNs =
      secondsToNs(opt.seconds * 0.6 / static_cast<double>(segments));
  GateResult gate;
  Merged fixed;
  Merged probes;
  double peakRss = peakRssMiB();  // set-up and warm-up
  CapacitySearch search(spec.rate);
  std::string steps;
  for (std::size_t s = 0; s < segments; ++s) {
    // A rate the system cannot sustain must still end the run on time:
    // past a fifth of the schedule in backlog the rest is dropped and the
    // run is marked invalid.
    Phase segment = in.makePhase(10 + s, spec.rate, segmentNs, spec.eventRate);
    resetPeakRss();
    fixed.add(runOn(sys, segment, spans, names, 0, kSamplesPerSegment,
                    nullptr, &gate, segment.requests.size() / 5));
    peakRss = std::max(peakRss, peakRssMiB());

    const double rate = search.next();
    Phase step = in.makePhase(40 + s, rate, stepNs, spec.eventRate);
    const PhaseRun run = runOn(sys, step, spans, names, 0, 0, nullptr,
                               nullptr, backlogLimit(rate, spec));
    std::string why;
    search.record(rate, meetsLimit(run, rate, spec, why));
    probes.add(run);
    JsonObject j;
    j.num("offered_qps", rate * kMeanQueriesPerRequest)
        .num("p99_ms", quantile(latenciesMs(run.timing), 0.99))
        .integer("requests", static_cast<std::int64_t>(step.requests.size()))
        .integer("backlog_at_end",
                 static_cast<std::int64_t>(run.timing.backlogAtEnd))
        .num("late_p90_ms", quantile(lateMs(run.timing), kLateQuantile))
        .str("verdict", why);
    steps += (steps.empty() ? "" : ",") + j.dump();
  }

  // Event visibility: the churn stream of every phase, or a post-window
  // probe (no reads running) on workloads without one.
  std::vector<double> visible = fixed.visibleMs;
  visible.insert(visible.end(), probes.visibleMs.begin(),
                 probes.visibleMs.end());
  Outcome probeOutcome;
  if (spec.eventRate == 0) {
    // Each probe event is due when the previous one became visible, so
    // the figure is the publish path alone, never a queue behind it.
    Phase probe;
    probe.events = in.probeEvents();
    auto target = makeTarget(sys, probe, spans, names, 0, 0);
    visible.clear();
    for (std::uint32_t i = 0; i < probe.events.size(); ++i) {
      EventTiming t;
      t.due = nowNs();
      target->applyEvent(i, t);
      while (target->pollPending()) cpuRelax();
      visible.push_back(static_cast<double>(t.visible - t.due) * 1e-6);
    }
    probeOutcome = target->outcome;
  }

  Outcome all = warmRun.outcome;
  addOutcome(all, fixed.outcome);
  addOutcome(all, probes.outcome);
  addOutcome(all, probeOutcome);
  // Fixed-rate requests dropped past the backlog cut were due, so their
  // queries count as attempted and failed; probes drop theirs uncounted.
  const std::uint64_t dropped = fixed.outcome.abandonedQueries;
  const std::uint64_t attempted = all.queries + all.events + dropped;
  const std::uint64_t failed =
      all.failedQueries + all.failedEvents + dropped + gate.mismatches;
  const double lateP90 = median(fixed.lateP90Ms);
  const bool fixedValid = lateP90 <= kLateLimitMs &&
                          fixed.abandoned == 0 &&
                          fixed.backlogMax <= backlogLimit(spec.rate, spec);

  Metrics m;
  m.add("setup_s", median(setupS), "s");
  m.add("query_p50_ms", median(fixed.p50Ms), "ms");
  m.add("capacity_qps", search.capacity() * kMeanQueriesPerRequest, "1/s");
  m.add("event_visible_p50_ms", quantile(visible, 0.5), "ms");
  m.add("delivered_pct",
        100.0 * ratio(fixed.outcome.delivered, fixed.outcome.queries + dropped),
        "%");
  m.add("peak_rss_mb", peakRss, "MiB");

  std::string errors = "[";
  for (std::size_t i = 0; i < gate.errors.size(); ++i) {
    errors += (i ? ",\"" : "\"") + gate.errors[i] + "\"";
  }
  errors += "]";
  // query_p99_ms and event_visible_p95_ms are reported here rather than
  // as bounded metrics: on a shared virtual machine, minutes-long
  // stretches of hypervisor preemption move the first 3-50x and the
  // second by about a third between otherwise identical runs.
  JsonObject info;
  info.num("query_p99_ms", median(fixed.p99Ms))
      .num("event_visible_p95_ms", quantile(visible, 0.95))
      .integer("latency_samples", static_cast<std::int64_t>(fixed.samples))
      .integer("latency_windows", static_cast<std::int64_t>(fixed.p50Ms.size()))
      .integer("min_samples_beyond_p99_per_window",
               static_cast<std::int64_t>(fixed.minSamples / 100))
      .raw("query_p50_ms_windows", jsonArray(fixed.p50Ms))
      .raw("query_p99_ms_windows", jsonArray(fixed.p99Ms))
      .raw("event_visible_ms", jsonArray(visible))
      .num("offered_qps", spec.rate * kMeanQueriesPerRequest)
      .num("p99_limit_ms", spec.p99LimitMs)
      .integer("event_samples", static_cast<std::int64_t>(visible.size()))
      .str("event_source",
           spec.eventRate > 0 ? "churn stream" : "post-window probe")
      .num("error_pct", 100.0 * ratio(failed, attempted))
      .num("generator_late_p90_ms", lateP90)
      .num("dispatch_wait_p99_ms", median(fixed.dispatchWaitP99Ms))
      .integer("inflight_max", static_cast<std::int64_t>(fixed.inflightMax))
      .integer("backlog_at_end_max", static_cast<std::int64_t>(fixed.backlogMax))
      .boolean("fixed_rate_valid", fixedValid)
      .raw("capacity_steps", "[" + steps + "]")
      .integer("gate_checked", static_cast<std::int64_t>(gate.checked))
      .integer("gate_mismatches", static_cast<std::int64_t>(gate.mismatches))
      .integer("gate_stale_on_churned_epochs",
               static_cast<std::int64_t>(gate.stale))
      .raw("gate_errors", errors)
      .raw("setup_runs_s", jsonArray(setupS));
  JsonObject record;
  record.boolean("correct", gate.mismatches == 0 && prov.valid)
      .integer("attempted", static_cast<std::int64_t>(attempted))
      .integer("failed", static_cast<std::int64_t>(failed))
      .raw("metrics", m.json())
      .raw("info", info.dump())
      .raw("provenance", provenanceJson(spec, prov, sys, false));
  std::cout << record.dump() << std::endl;
  return exitCode(gate, prov);
}

int runTraced(const WorkloadSpec& spec, const Options& opt) {
  Inputs in(spec, opt);
  const Provenance prov = provenance(spec);
  const std::uint64_t untracedNs = secondsToNs(opt.seconds * 0.35);
  const std::uint64_t tracedNs = secondsToNs(opt.seconds * 0.65);

  // Untraced reference: same setup and traffic shape, telemetry off.
  SpanLog off(false);
  const SpanNames offNames(off);
  GateResult gate;
  PhaseResult untracedTiming;
  Outcome untracedOutcome;
  {
    System sys = setUp(in, false, nullptr);
    Phase phase = in.makePhase(0, spec.rate, untracedNs, spec.eventRate);
    const PhaseRun run =
        runOn(sys, phase, off, offNames, 0, kSamplesTraced, nullptr, &gate);
    untracedTiming = run.timing;
    untracedOutcome = run.outcome;
  }

  // Traced run: stage histograms on (private registry), spans on.
  MetricsRegistry reg;
  SpanLog spans(true);
  const SpanNames names(spans);
  System sys = setUp(in, true, &reg);
  in.resetFaults();
  Phase phase = in.makePhase(1, spec.rate, tracedNs, spec.eventRate);
  const MetricsSnapshot before = reg.snapshot();
  const PhaseRun run =
      runOn(sys, phase, spans, names, 1'000'000, kSamplesTraced, &reg, &gate);
  const MetricsSnapshot& after = run.registryAtEnd;
  const RegistryDelta d(before, after);
  const Outcome& o = run.outcome;
  const std::map<std::string, SpanTotals> totals = spans.totals();
  const auto spanMeanUs = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : ratio(static_cast<double>(it->second.totalNs) * 1e-3,
                                      static_cast<double>(it->second.count));
  };
  const double requests = static_cast<double>(phase.requests.size());
  const double events = static_cast<double>(phase.events.size());
  const double kq = static_cast<double>(o.queries) / 1000.0;
  const std::vector<double> lat = latenciesMs(run.timing);

  Metrics m;
  // service/route_service
  const double classifyUs = d.histSumNs("serve.classify_ns") * 1e-3 / requests;
  const double compileUs = d.histSumNs("serve.compile_ns") * 1e-3 / requests;
  const double chaseUs = d.histSumNs("serve.chase_ns") * 1e-3 / requests;
  const double stagesUs = classifyUs + compileUs + chaseUs;
  // On a fleet the route-service calls happen inside the fleet, out of
  // the driver's reach: the call is reported as its stage sum.
  const double serveCallUs = sys.fleet ? stagesUs : spanMeanUs("serve.call");
  m.add("serve.call_us", serveCallUs, "us");
  m.add("serve.classify_us", classifyUs, "us");
  m.add("serve.compile_us", compileUs, "us");
  m.add("serve.chase_us", chaseUs, "us");
  m.add("serve.unattributed_us", serveCallUs - stagesUs, "us");

  // route, replayed on the final epoch with the workload's destinations.
  Handle replaySnap;
  std::vector<Point> replayDests;
  std::unique_ptr<FaultSet> localInitial;
  const Mesh2D* labelerMesh = &in.mesh();
  const FaultSet* labelerInitial = phase.faultsAtStart.get();
  std::vector<FaultEventSpec> labelerEvents =
      spec.eventRate > 0 ? phase.events : in.probeEvents();
  Mesh2D localMesh = in.mesh();
  if (sys.fleet) {
    const ShardLayout& layout = sys.fleet->layout();
    const std::size_t k = in.churnShards().front();
    replaySnap = sys.fleet->shard(k).snapshot();
    for (const Point d2 : in.shardPools()[k]) {
      replayDests.push_back(layout.toLocal(k, d2));
    }
    localMesh = layout.localMesh(k);
    localInitial = std::make_unique<FaultSet>(localMesh);
    const Rect& local = layout.local(k);
    for (Coord y = local.y0; y <= local.y1; ++y) {
      for (Coord x = local.x0; x <= local.x1; ++x) {
        if (phase.faultsAtStart->isFaulty({x, y})) {
          localInitial->add(layout.toLocal(k, {x, y}));
        }
      }
    }
    std::vector<FaultEventSpec> local_events;
    for (const FaultEventSpec& ev : labelerEvents) {
      if (local.contains(ev.cell)) {
        local_events.push_back({layout.toLocal(k, ev.cell), ev.add});
      }
    }
    labelerEvents = std::move(local_events);
    labelerMesh = &localMesh;
    labelerInitial = localInitial.get();
  } else {
    replaySnap = sys.service->snapshot();
    const auto& source = spec.zipf > 0 ? in.zipfRanked() : in.pool();
    replayDests.assign(source.begin(),
                       source.begin() + std::min<std::size_t>(6, source.size()));
  }
  const RouteReplay rr = replayRoute(replaySnap, replayDests, opt.seed);
  replaySnap.reset();
  m.add("route.compile_column_ms", rr.compileColumnMs, "ms");
  m.add("route.first_hop_us", rr.firstHopUs, "us");
  m.add("route.chase_ns_per_hop", rr.chaseNsPerHop, "ns");
  m.add("route.hops_per_query", rr.hopsPerQuery, "count");

  // service/snapshot, publish side. A single service publishes once per
  // event; a fleet once per covering shard per event.
  const double applies =
      sys.fleet ? d.histCount("fleet.apply_ns") : events;
  const double publishCallMs =
      sys.fleet ? ratio(d.histSumNs("fleet.apply_ns") * 1e-6, applies)
                : spanMeanUs("publish.call") * 1e-3;
  const double labelPatchUs = ratio(d.histSumNs("publish.label_patch_ns") * 1e-3, applies);
  const double columnPatchUs = ratio(d.histSumNs("publish.column_patch_ns") * 1e-3, applies);
  const double swapUs = ratio(d.histSumNs("publish.epoch_swap_ns") * 1e-3, applies);
  m.add("publish.call_ms", publishCallMs, "ms");
  m.add("publish.label_patch_us", labelPatchUs, "us");
  m.add("publish.column_patch_us", columnPatchUs, "us");
  m.add("publish.epoch_swap_us", swapUs, "us");
  m.add("publish.unattributed_us",
        applies > 0 ? publishCallMs * 1e3 - labelPatchUs - columnPatchUs - swapUs : 0.0,
        "us");
  m.add("publish.columns_patched_per_event",
        ratio(d.counter("service.columns_patched"), events), "count");
  m.add("publish.entries_patched_per_event",
        ratio(d.counter("service.entries_patched"), events), "count");
  m.add("publish.columns_carried_per_event",
        ratio(d.counter("service.columns_carried"), events), "count");

  // service/snapshot, column cache.
  const double lookups = static_cast<double>(o.lookups) +
                         d.counter("fleet.stitch_segments") +
                         d.counter("fleet.stitch_retries");
  m.add("cache.hit_ratio",
        1.0 - ratio(d.counter("service.columns_compiled"), lookups), "ratio");
  m.add("cache.recompiles_per_kquery",
        ratio(d.counter("service.columns.recompiled"), kq), "1/kquery");
  m.add("cache.evictions_per_kquery",
        ratio(d.counter("service.columns.evicted"), kq), "1/kquery");
  m.add("cache.resident_mb",
        static_cast<double>(run.gauges.residentBytesMax) / (1024.0 * 1024.0),
        "MiB");

  // fault/incremental, replayed standalone.
  const LabelerReplay lr =
      replayLabeler(*labelerMesh, *labelerInitial, labelerEvents);
  m.add("labeler.initial_s", lr.initialS, "s");
  m.add("labeler.apply_us", lr.applyUs, "us");
  m.add("labeler.cells_relabeled_per_event", lr.cellsPerEvent, "count");
  m.add("labeler.mccs_built_per_event", lr.mccsPerEvent, "count");

  // service/fleet
  const double cross = d.counter("fleet.queries_cross");
  const double segments = d.counter("fleet.stitch_segments");
  const double retries = d.counter("fleet.stitch_retries");
  const double fleetCallUs = sys.fleet ? spanMeanUs("fleet.call") : 0.0;
  const double stitchUs = d.histSumNs("fleet.stitch_ns") * 1e-3 / requests;
  const double intraUs = sys.fleet ? replayIntraUs(*sys.fleet, phase) : 0.0;
  m.add("fleet.call_us", fleetCallUs, "us");
  m.add("fleet.stitch_us", stitchUs, "us");
  m.add("fleet.intra_us", intraUs, "us");
  m.add("fleet.unattributed_us",
        sys.fleet ? fleetCallUs - stitchUs - intraUs : 0.0, "us");
  m.add("fleet.intra_p99_ms",
        sys.fleet ? quantile(latenciesMs(run.timing, 0, &phase), 0.99) : 0.0,
        "ms");
  m.add("fleet.cross_p99_ms",
        sys.fleet ? quantile(latenciesMs(run.timing, 1, &phase), 0.99) : 0.0,
        "ms");
  m.add("fleet.segments_per_cross", ratio(segments, cross), "count");
  m.add("fleet.retries_per_cross", ratio(retries, cross), "count");
  m.add("fleet.replans_per_cross", ratio(d.counter("fleet.replans"), cross),
        "count");
  m.add("fleet.stitch_yield",
        ratio(static_cast<double>(o.crossDelivered), segments + retries),
        "ratio");
  m.add("fleet.queue_wait_us",
        ratio(d.histSumNs("fleet.queue_wait_ns") * 1e-3,
              d.histCount("fleet.queue_wait_ns")),
        "us");
  m.add("fleet.apply_us",
        ratio(d.histSumNs("fleet.apply_ns") * 1e-3, d.histCount("fleet.apply_ns")),
        "us");

  // service/stitch_planner
  const double builds = d.counter("fleet.border_builds");
  const double reuses = d.counter("fleet.border_reuses");
  const double hits = d.counter("fleet.plan_cache_hits");
  const double misses = d.counter("fleet.plan_cache_misses");
  m.add("planner.border_reuse_ratio", ratio(reuses, reuses + builds), "ratio");
  m.add("planner.plan_hit_ratio", ratio(hits, hits + misses), "ratio");
  m.add("planner.invalidations_per_event",
        ratio(d.counter("fleet.plan_invalidations"), events), "count");
  m.add("planner.session_us",
        sys.fleet ? replayPlannerUs(*sys.fleet, phase) : 0.0, "us");

  // common/thread_pool, common/epoch
  m.add("pool.jobs_per_request", d.counter("pool.jobs_executed") / requests,
        "count");
  m.add("pool.wait_stall_us", d.histSumNs("pool.wait_stall_ns") * 1e-3 / requests,
        "us");
  m.add("pool.queue_depth_max",
        static_cast<double>(run.gauges.poolQueueDepthMax), "count");
  m.add("epoch.live_snapshots_max",
        static_cast<double>(run.gauges.liveSnapshotsMax), "count");

  // The driver's validity checks.
  m.add("driver.dispatch_wait_ms", quantile(dispatchWaitMs(run.timing), 0.99),
        "ms");
  m.add("driver.late_ms", quantile(lateMs(run.timing), 0.99), "ms");
  m.add("driver.inflight_max", static_cast<double>(run.timing.inflightMax),
        "count");

  // Span self time and the tracing overhead (traced minus untraced).
  const auto selfUs = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end()
               ? 0.0
               : static_cast<double>(it->second.selfNs) * 1e-3 / requests;
  };
  m.add("span.request_self_us", selfUs("request"), "us");
  m.add("span.dispatch_wait_us", selfUs("driver.dispatch_wait"), "us");
  m.add("span.layer_call_us",
        selfUs(sys.fleet ? "fleet.call" : "serve.call"), "us");
  const auto windowed = [](const PhaseResult& r, double q) {
    std::vector<double> perWindow;
    for (const auto& w : latencyWindows(r)) perWindow.push_back(quantile(w, q));
    return median(perWindow);
  };
  const double tracedP50 = windowed(run.timing, 0.5);
  const double tracedP99 = windowed(run.timing, 0.99);
  const double untracedP50 = windowed(untracedTiming, 0.5);
  const double untracedP99 = windowed(untracedTiming, 0.99);
  m.add("trace.query_p50_ms", tracedP50, "ms");
  m.add("trace.query_p99_ms", tracedP99, "ms");
  m.add("trace.overhead_p50_ms", tracedP50 - untracedP50, "ms");
  m.add("trace.overhead_p99_ms", tracedP99 - untracedP99, "ms");

  if (!opt.spansOut.empty() && !spans.writeCsv(opt.spansOut, 40'000)) {
    std::cerr << "cannot write spans to " << opt.spansOut << "\n";
  }
  const std::uint64_t attempted = untracedOutcome.queries +
                                  untracedOutcome.events + o.queries + o.events;
  const std::uint64_t failed =
      untracedOutcome.failedQueries + untracedOutcome.failedEvents +
      o.failedQueries + o.failedEvents + gate.mismatches;
  JsonObject info;
  info.integer("traced_requests", static_cast<std::int64_t>(lat.size()))
      .integer("untraced_requests",
               static_cast<std::int64_t>(untracedTiming.requests.size()))
      .integer("spans_recorded", [&] {
        std::int64_t n = 0;
        for (const auto& [name, t] : totals) n += static_cast<std::int64_t>(t.count);
        return n;
      }())
      .num("error_pct", 100.0 * ratio(failed, attempted))
      .integer("gate_checked", static_cast<std::int64_t>(gate.checked))
      .integer("gate_mismatches", static_cast<std::int64_t>(gate.mismatches))
      .integer("gate_stale_on_churned_epochs",
               static_cast<std::int64_t>(gate.stale));
  JsonObject record;
  record.boolean("correct", gate.mismatches == 0 && prov.valid)
      .integer("attempted", static_cast<std::int64_t>(attempted))
      .integer("failed", static_cast<std::int64_t>(failed))
      .raw("metrics", m.json())
      .raw("info", info.dump())
      .raw("provenance", provenanceJson(spec, prov, sys, true));
  std::cout << record.dump() << std::endl;
  return exitCode(gate, prov);
}

}  // namespace
}  // namespace openbench

int main(int argc, char** argv) {
  using namespace openbench;
  Options opt;
  if (!parseOptions(argc, argv, opt)) {
    std::cerr << "usage: openbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE]\n";
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : workloadSpecs()) {
    if (w.name == opt.workload) spec = &w;
  }
  if (spec == nullptr) {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  try {
    return opt.trace == 0 ? runEndToEnd(*spec, opt) : runTraced(*spec, opt);
  } catch (const std::exception& e) {
    std::cerr << "benchmark failed: " << e.what() << "\n";
    return 1;
  }
}
