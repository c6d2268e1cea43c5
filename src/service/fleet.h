// ServiceFleet: a sharded route-service frontend for meshes too large
// for one RouteService. The mesh is partitioned by a ShardLayout into
// grid x grid region shards, each backed by its own RouteService over the
// shard's LOCAL mesh (owned rectangle + halo): its own FaultSet slice,
// its own incremental labeler, its own epoch stream. The frontend
// classifies each query by endpoint ownership:
//
//   - intra-shard (both endpoints owned by one shard): delegated to that
//     shard's batch serve against one pinned snapshot. Because the halo
//     replicates the true fault state of everything the local mesh can
//     touch, any path the shard serves is valid in the global mesh; on
//     border-clear fault configurations (shardBorderClear) the answer is
//     bit-for-bit the single-service answer (DESIGN.md section 11.3).
//   - cross-shard: planned by the StitchPlanner (a BFS on the epoch-cached
//     healthy-border shard adjacency), then stitched from per-shard
//     segment chases. Every segment runs against its shard's pinned
//     epoch; crossing cells are healthy in the pinned epochs of BOTH
//     shards they join, so the stitched path is valid under the
//     per-segment epoch vector the result reports (section 11.4).
//
// Fault events route to every shard whose local rectangle holds the cell
// (owner + halo neighbors) through one channel: per-shard writer queues
// (submit*) drained by per-shard applier threads; drainWriters() waits
// for them to apply. Admission control watches those queues: when a
// shard's backlog exceeds maxWriterQueue, queries touching it are served
// from the (stale) current epoch with a kStale flag (Degrade) or refused
// with a kShed flag (Shed) — the fleet never blocks readers on a slow
// writer (section 11.5).
//
// Failure model (DESIGN.md section 13): each shard carries a supervised
// health state machine, Healthy -> Suspect -> Quarantined -> Rebuilding
// -> Healthy. An applier that throws quarantines its shard (the event
// goes back to the queue front); an applier whose heartbeat stalls past
// the watchdog timeout is declared Suspect, then abandoned and the shard
// quarantined. A quarantined shard keeps serving reads from its last
// good epoch — queries touching it carry kFleetFlagStale — while the
// supervisor rebuilds a fresh RouteService from the shard's
// authoritative applied-fault set and replays the queue on a new applier
// thread: the post-recovery state is exactly the state of a fleet that
// never failed, because the applied set plus the surviving queue IS the
// accepted-event sequence. Writer queues are optionally bounded
// (queueCapacity): submit* then reports Accepted/Rejected all-or-nothing
// across the covering shards, and submit*WithRetry layers exponential
// backoff with deterministic jitter on top. Batched serves accept a
// deadline; an expired serve returns partial results flagged
// kFleetFlagDeadline instead of wedging the reader on a stuck shard.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mesh/shard_layout.h"
#include "service/route_service.h"
#include "service/stitch_planner.h"

namespace meshrt {

/// What the frontend does with queries touching a shard whose writer
/// queue is deeper than maxWriterQueue.
enum class OverloadPolicy : std::uint8_t {
  /// Serve from the shard's current (stale) epoch, flagged kStale.
  Degrade = 0,
  /// Refuse: status NoRoute with the kShed flag set.
  Shed = 1,
};

constexpr std::string_view overloadPolicyName(OverloadPolicy p) {
  return p == OverloadPolicy::Degrade ? "degrade" : "shed";
}

/// Inverse of overloadPolicyName (bench/CLI parsing). Returns false on an
/// unknown name, leaving *out untouched.
inline bool parseOverloadPolicy(std::string_view name, OverloadPolicy* out) {
  if (name == overloadPolicyName(OverloadPolicy::Degrade)) {
    *out = OverloadPolicy::Degrade;
    return true;
  }
  if (name == overloadPolicyName(OverloadPolicy::Shed)) {
    *out = OverloadPolicy::Shed;
    return true;
  }
  return false;
}

/// Supervised per-shard health (exported as the "fleet.shard<k>.health"
/// gauge, numeric values below).
enum class ShardHealth : std::uint8_t {
  /// Applier live, heartbeat current. The steady state.
  Healthy = 0,
  /// Applier heartbeat stalled past stallTimeoutMs but not yet abandoned;
  /// clears back to Healthy when the apply completes.
  Suspect = 1,
  /// Applier dead (threw) or abandoned (stalled past 2x). Reads keep
  /// serving the last good epoch with kFleetFlagStale; the queue holds
  /// every unapplied event, starting with the one that failed.
  Quarantined = 2,
  /// The supervisor is constructing the replacement service from the
  /// shard's applied-fault set. Readers still serve the old service.
  Rebuilding = 3,
};

constexpr std::string_view shardHealthName(ShardHealth h) {
  switch (h) {
    case ShardHealth::Healthy:
      return "healthy";
    case ShardHealth::Suspect:
      return "suspect";
    case ShardHealth::Quarantined:
      return "quarantined";
    case ShardHealth::Rebuilding:
      return "rebuilding";
  }
  return "?";
}

/// Outcome of a bounded-queue submit.
enum class SubmitResult : std::uint8_t {
  Accepted = 0,
  /// Some covering shard's queue was at queueCapacity; NO shard was
  /// enqueued (all-or-nothing, so halo replicas can never desync).
  Rejected = 1,
};

/// Backoff schedule for submit*WithRetry: attempt n sleeps
/// uniform[delay/2, delay] where delay = min(baseDelayUs << n,
/// maxDelayUs), jitter drawn deterministically from `seed` — two
/// churners with different seeds never thundering-herd in lockstep, and
/// one churner replays identically.
struct SubmitRetryPolicy {
  std::uint32_t maxAttempts = 10;
  std::uint64_t baseDelayUs = 50;
  std::uint64_t maxDelayUs = 2000;
  /// Absolute telemetryNowNs() deadline; 0 = attempts-bounded only. The
  /// helper gives up (Rejected) rather than sleep past the deadline.
  std::uint64_t deadlineNs = 0;
  std::uint64_t seed = 1;
};

struct FleetConfig {
  /// Per-shard RouteService configuration (router key, per-shard pool
  /// threads, column budget, telemetry).
  ServiceConfig service;
  /// Shard grid side: the mesh splits into grid x grid shards.
  std::size_t grid = 2;
  /// Halo width replicated into neighboring shards. 2 is the default the
  /// differential suite certifies; 1 is the correctness minimum for
  /// crossing hops (the far cell of every crossing must be in-halo).
  Coord halo = 2;
  /// Writer-queue depth beyond which a shard counts as overloaded for
  /// ADMISSION (readers degrade or shed); 0 disables admission control.
  std::size_t maxWriterQueue = 0;
  OverloadPolicy overload = OverloadPolicy::Degrade;
  /// Hard bound on each shard's writer queue; submit* returns Rejected
  /// (all-or-nothing across covering shards) when any covering queue is
  /// full. 0 = unbounded (events are never rejected). The in-flight
  /// event does not count against the bound.
  std::size_t queueCapacity = 0;
  /// Applier heartbeat budget: one event applying longer than this marks
  /// the shard Suspect; longer than twice this and the applier is
  /// abandoned, the shard Quarantined.
  std::int64_t stallTimeoutMs = 2000;
  /// Supervisor scan cadence.
  std::int64_t supervisorPollMs = 25;
  /// Test seam: called by shard k's applier thread before each event is
  /// applied (a Gate here stalls exactly one shard's writer).
  std::function<void(std::size_t shard)> applyHook;
};

/// Per-query condition bits in FleetBatchResult::flags.
inline constexpr std::uint8_t kFleetFlagStale = 1;
inline constexpr std::uint8_t kFleetFlagShed = 2;
/// The serve deadline expired before this query was chased (status is
/// ServeStatus::Deadline — not a routing verdict).
inline constexpr std::uint8_t kFleetFlagDeadline = 4;
/// A shard serve threw (injected or real); this query's NoRoute is an
/// error verdict, isolated to the queries that needed the failing shard.
inline constexpr std::uint8_t kFleetFlagError = 8;

/// One stitch segment of a served path: shard `shard` chased the path
/// span starting at index `begin` (running to the next segment's begin,
/// or the path end for the last segment). Consecutive segments join at a
/// border crossing: the cell before a segment's begin and the cell at
/// its begin are 4-adjacent and owned by the two shards — the crossing
/// hop is validated by BOTH pinned epochs it joins.
struct FleetSegment {
  std::uint32_t shard = 0;
  std::uint32_t begin = 0;
};

/// One served fleet batch. status/hops/paths follow BatchResult
/// conventions (paths only when wantPaths, global coordinates, endpoints
/// included). shardEpochs[k] is the epoch shard k was pinned at for this
/// batch and `pinned[k]` keeps that snapshot alive for callers that
/// validate paths against it; every segment of every stitched path was
/// chased against its serving shard's pinned epoch. `services[k]` pins
/// the shard k service INSTANCE the batch was served by: a supervisor
/// rebuild can swap a shard's service mid-flight, and the pinned
/// snapshot's columns belong to the instance that compiled them.
struct FleetBatchResult {
  std::vector<ServeStatus> status;
  std::vector<std::int32_t> hops;
  std::vector<std::vector<Point>> paths;
  std::vector<std::uint8_t> flags;
  std::vector<std::uint64_t> shardEpochs;
  std::vector<SnapshotBox<ServiceSnapshot>::Handle> pinned;
  std::vector<std::shared_ptr<RouteService>> services;
  /// Index-aligned with paths; filled only when wantPaths. Intra-shard
  /// queries have one segment (the owner); stitched queries one per
  /// shard crossed. Empty for non-Delivered results.
  std::vector<std::vector<FleetSegment>> segments;

  std::size_t size() const { return status.size(); }
  bool delivered(std::size_t i) const {
    return status[i] == ServeStatus::Delivered;
  }
};

/// Thin value snapshot over the fleet's registry instruments (kept as the
/// stable accessor API; see ServiceFleet::counters()).
struct FleetCounters {
  std::uint64_t intraQueries = 0;
  std::uint64_t crossQueries = 0;
  std::uint64_t shedQueries = 0;
  std::uint64_t degradedQueries = 0;
  /// Waypoint candidates abandoned after a failed segment chase.
  std::uint64_t stitchRetries = 0;
  /// Shard-path replans after a border's candidates were exhausted.
  std::uint64_t replans = 0;
  std::uint64_t eventsApplied = 0;
  /// Per-shard segments of successfully stitched cross queries.
  std::uint64_t stitchSegments = 0;
  /// Healthy/Suspect -> Quarantined transitions (throw or stall).
  std::uint64_t quarantines = 0;
  /// Completed shard rebuilds (Rebuilding -> Healthy).
  std::uint64_t restarts = 0;
  /// Bounded-queue submits refused (whole events, not per-shard).
  std::uint64_t submitRejected = 0;
  /// Backoff sleeps taken by submit*WithRetry.
  std::uint64_t submitRetries = 0;
  /// Queries returned as ServeStatus::Deadline.
  std::uint64_t deadlineQueries = 0;
  /// Queries failed by a throwing shard serve (kFleetFlagError).
  std::uint64_t serveErrors = 0;
  /// Border scans by the stitch planner (lazy, per border-epoch pair).
  std::uint64_t borderBuilds = 0;
  /// Borders answered from the epoch-keyed cache without a scan.
  std::uint64_t borderReuses = 0;
  /// Shard paths served from the plan cache.
  std::uint64_t planCacheHits = 0;
  /// Shard paths BFS-computed (and cached).
  std::uint64_t planCacheMisses = 0;
  /// Plan-cache clears triggered by border-epoch movement.
  std::uint64_t planInvalidations = 0;
};

/// True when no faulty cell of `localFaults` (shard-local coordinates)
/// lies within `margin` cells of an ARTIFICIAL wall of the shard's local
/// rectangle. Under this certificate every fault component the shard
/// sees is complete (a global 8-connected component can only leave the
/// local rectangle through a wall ring cell), so shard-local label
/// distortion — the one mechanism by which a shard's answer can diverge
/// from the full-mesh answer — cannot originate. The differential suite
/// asserts bit-for-bit equality on certified shards and path validity
/// otherwise.
bool shardBorderClear(const ShardLayout& layout, std::size_t shard,
                      const FaultSet& localFaults, Coord margin = 1);

class ServiceFleet {
 public:
  /// Builds grid x grid shard services over slices of `initial`. Throws
  /// std::invalid_argument on an unknown router key (from RouteService).
  ServiceFleet(const FaultSet& initial, FleetConfig cfg = {});
  ~ServiceFleet();

  ServiceFleet(const ServiceFleet&) = delete;
  ServiceFleet& operator=(const ServiceFleet&) = delete;

  const ShardLayout& layout() const { return layout_; }
  const FleetConfig& config() const { return cfg_; }
  std::size_t shardCount() const { return layout_.shardCount(); }
  /// The shard's CURRENT service. Rebuilds swap the instance; callers
  /// that must outlive a possible swap should hold shardService(k)
  /// instead of this reference.
  RouteService& shard(std::size_t k) { return *shards_[k]->serviceRef(); }
  const RouteService& shard(std::size_t k) const {
    return *shards_[k]->serviceRef();
  }
  /// Owning reference to shard k's current service instance.
  std::shared_ptr<RouteService> shardService(std::size_t k) const {
    return shards_[k]->serviceRef();
  }

  /// Enqueues one global fault event on every covering shard's writer
  /// queue (owner + halo neighbors); the per-shard applier threads
  /// publish asynchronously, and drainWriters() waits for them. Never
  /// blocks. With queueCapacity > 0 a full covering queue rejects the
  /// whole event (no shard enqueued); unbounded queues always accept.
  SubmitResult submitAddFault(Point p);
  SubmitResult submitRemoveFault(Point p);

  /// submit* with the SubmitRetryPolicy backoff schedule layered on
  /// Rejected results. Returns the final verdict.
  SubmitResult submitAddFaultWithRetry(Point p,
                                       const SubmitRetryPolicy& policy = {});
  SubmitResult submitRemoveFaultWithRetry(
      Point p, const SubmitRetryPolicy& policy = {});

  /// Blocks until every shard's writer queue is empty, no event is
  /// mid-application, and every shard is Healthy. Returns false when
  /// `timeoutMs` (>= 0) expires first; -1 waits indefinitely.
  bool drainWriters(std::int64_t timeoutMs = -1);

  /// Mutex-sampled backlog (queued events + one mid-application). The
  /// continuously maintained "fleet.shard<k>.epoch_lag" gauge tracks the
  /// same quantity lock-free; tests assert they agree at quiescence.
  std::size_t writerQueueDepth(std::size_t k) const;
  /// True when admission control is on and shard k's backlog exceeds it.
  /// Reads the epoch-lag gauge, NOT a point sample of the queue: the
  /// admission decision and the exported gauge can never disagree (the
  /// PR-7 code sampled the mutexed queue only at admission time, so the
  /// exported depth could go stale against the decision path).
  bool overloaded(std::size_t k) const;

  /// Shard k's supervised health.
  ShardHealth shardHealth(std::size_t k) const;
  /// Message of the failure that last quarantined shard k ("" if never).
  std::string shardError(std::size_t k) const;
  /// Copy of shard k's authoritative applied-fault set (local coords):
  /// the state a rebuild reconstructs from. Chaos tests compare it
  /// bit-for-bit against an unchaosed fleet's.
  FaultSet shardAppliedFaults(std::size_t k) const;

  /// Serves a batch: intra-shard queries delegate to the owning shard's
  /// batch serve, cross-shard queries are stitched over the boundary
  /// waypoint graph. All shards are pinned once at entry; the result
  /// carries the epoch vector and the pinned handles. `deadlineNs`
  /// (telemetryNowNs() clock, 0 = none) bounds the batch: unserved
  /// queries come back ServeStatus::Deadline + kFleetFlagDeadline. A
  /// throwing shard serve fails only the queries that needed it
  /// (kFleetFlagError) — never the batch.
  FleetBatchResult serve(const std::vector<Query>& batch,
                         bool wantPaths = false,
                         std::uint64_t deadlineNs = 0);

  /// Precompiles every shard's columns (bench warm-up).
  void precompileAll();

  FleetCounters counters() const;

 private:
  struct WriterEvent {
    bool add;
    Point local;
    /// Enqueue timestamp; stamped only when queue-wait timing is on.
    std::uint64_t enqueueNs = 0;
  };
  struct Shard {
    explicit Shard(FaultSet initialLocal) : applied(std::move(initialLocal)) {}

    /// Current service; swapped by the supervisor's rebuild. Read and
    /// written under `mutex` (serviceRef() is the locked copy) — a
    /// rebuild can retire the instance, so holders keep the shared_ptr.
    std::shared_ptr<RouteService> service;
    /// Authoritative local fault state: every event successfully applied
    /// lands here under `mutex`. A rebuild reconstructs the service from
    /// this set; it is never derived from the (possibly dead) service.
    FaultSet applied;
    /// Writer queue + applier thread state (queue guarded by mutex).
    mutable std::mutex mutex;
    std::condition_variable wake;
    std::condition_variable idle;
    std::deque<WriterEvent> queue;
    /// The event popped for application. On failure or abandonment it is
    /// pushed back to the queue FRONT, so replay preserves order and no
    /// accepted event is ever lost.
    std::optional<WriterEvent> inflight;
    bool stop = false;
    ShardHealth health = ShardHealth::Healthy;
    /// Last applier/rebuild failure message (kept after recovery).
    std::string error;
    /// Applier thread generation. The supervisor bumps it to abandon a
    /// stalled applier: any applier whose spawn generation no longer
    /// matches must touch NO shard state and exit (it may still be
    /// mid-apply on the retired service instance it pinned).
    std::uint64_t generation = 0;
    /// Consecutive failed apply/rebuild cycles; paces rebuild backoff.
    std::uint64_t failures = 0;
    /// telemetryNowNs() before which the supervisor won't re-attempt a
    /// rebuild of this shard.
    std::uint64_t nextRebuildNs = 0;
    /// Heartbeat: telemetryNowNs() when the in-flight apply started,
    /// 0 when no apply is running. Written by the applier without the
    /// mutex (atomic), read by the watchdog.
    std::atomic<std::uint64_t> busySinceNs{0};
    std::thread applier;
    /// "fleet.shard<k>.*" gauges, updated under `mutex` on the same
    /// transitions the mutexed state takes, so the lock-free gauge reads
    /// and the mutex-sampled oracle agree exactly at quiescence.
    std::shared_ptr<Gauge> queueDepth;  ///< events sitting in `queue`
    std::shared_ptr<Gauge> epochLag;    ///< queue + mid-application event
    std::shared_ptr<Gauge> epoch;       ///< service epoch after last apply
    std::shared_ptr<Gauge> healthGauge;  ///< ShardHealth numeric value
    std::shared_ptr<Gauge> columnBytes;  ///< resident column bytes, sampled
                                         ///< at batch pin time
    /// Bumped (under `mutex`) before AND after every event that touches
    /// this shard's owned border ring, plus on rebuild swaps: the stitch
    /// planner's cache key. The double bump brackets the publish, so a
    /// steady-state sample always reflects post-event views; a mid-apply
    /// sample is a bounded, self-healing guidance race (stitch_planner.h).
    std::uint64_t borderEpoch = 0;

    std::shared_ptr<RouteService> serviceRef() const {
      std::lock_guard<std::mutex> guard(mutex);
      return service;
    }
  };

  void applierLoop(std::size_t k, std::uint64_t generation);
  void supervisorLoop();
  /// One watchdog scan of shard k; launches a rebuild when due.
  void superviseShard(std::size_t k, std::uint64_t nowNs);
  /// Quarantined -> Rebuilding -> Healthy (or back to Quarantined with
  /// backoff when construction fails). Supervisor thread only.
  void rebuildShard(std::size_t k);
  /// health transition + gauge, under the shard's mutex.
  static void setHealthLocked(Shard& shard, ShardHealth next);

  SubmitResult submit(Point p, bool add);
  SubmitResult submitWithRetry(Point p, bool add,
                               const SubmitRetryPolicy& policy);
  /// Failed segment chases of ONE served batch, keyed (shard, from,
  /// to) in global coordinates. Every segment in a batch runs against
  /// the same pinned epoch, so a failed chase is failed for every query
  /// that would repeat it — the memo turns the replan cascades of
  /// unreachable destinations from per-query into per-batch cost
  /// without changing a single result bit.
  using SegmentMemo =
      std::set<std::tuple<std::size_t, Coord, Coord, Coord, Coord>>;
  /// Serves one cross-shard query (index qi of `batch`) by planning and
  /// stitching; writes into `out`.
  void serveCross(StitchPlanner::Session& session,
                  const std::vector<Query>& batch, std::size_t qi,
                  bool wantPaths, std::uint64_t deadlineNs,
                  SegmentMemo& memo, FleetBatchResult& out);
  /// One segment chase inside shard k from global u to global v against
  /// the pinned handle in `out`.
  BatchResult serveSegment(std::size_t k, Point u, Point v, bool wantPaths,
                           std::uint64_t deadlineNs,
                           const FleetBatchResult& out);

  FleetConfig cfg_;
  ShardLayout layout_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Cross-shard planner; its epoch-keyed caches persist across batches
  /// and are invalidated by border-epoch bumps.
  std::unique_ptr<StitchPlanner> planner_;

  /// Fleet-wide teardown flag: cuts injected applier stalls short and
  /// stops the supervisor.
  std::atomic<bool> stopping_{false};
  std::thread supervisor_;
  std::mutex supervisorMutex_;
  std::condition_variable supervisorCv_;
  /// Abandoned applier threads (stall quarantines). They exit on their
  /// own once their stall/apply finishes (generation mismatch) and are
  /// joined at destruction. Guarded by retiredMutex_.
  std::mutex retiredMutex_;
  std::vector<std::thread> retired_;

  // "fleet.*" registry instruments (counters always live; the stage
  // histograms are null when cfg_.service.telemetry.enabled is off).
  std::shared_ptr<Counter> intraQueries_;
  std::shared_ptr<Counter> crossQueries_;
  std::shared_ptr<Counter> shedQueries_;
  std::shared_ptr<Counter> degradedQueries_;
  std::shared_ptr<Counter> stitchRetries_;
  std::shared_ptr<Counter> replans_;
  std::shared_ptr<Counter> eventsApplied_;
  std::shared_ptr<Counter> stitchSegments_;
  std::shared_ptr<Counter> quarantines_;
  std::shared_ptr<Counter> restarts_;
  std::shared_ptr<Counter> submitRejected_;
  std::shared_ptr<Counter> submitRetries_;
  std::shared_ptr<Counter> deadlineQueries_;
  std::shared_ptr<Counter> serveErrors_;
  std::shared_ptr<Counter> borderBuilds_;
  std::shared_ptr<Counter> borderReuses_;
  std::shared_ptr<Counter> planCacheHits_;
  std::shared_ptr<Counter> planCacheMisses_;
  std::shared_ptr<Counter> planInvalidations_;
  std::shared_ptr<Histogram> serveNs_;
  std::shared_ptr<Histogram> stitchNs_;
  std::shared_ptr<Histogram> queueWaitNs_;
  std::shared_ptr<Histogram> applyNs_;

  // Injection sites, cached once (single relaxed load when disarmed).
  Failpoint* fpApplierThrow_;  ///< "fleet.applier.throw": pre-apply
  Failpoint* fpApplierStall_;  ///< "fleet.applier.stall": pre-apply sleep
};

}  // namespace meshrt
