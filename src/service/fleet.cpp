#include "service/fleet.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/failpoint.h"
#include "common/rng.h"

namespace meshrt {

namespace {

/// Waypoints tried per border before the border is declared blocked and
/// the shard path replanned.
constexpr std::size_t kWaypointRetries = 3;

/// Crossing cells whose (x + y) is a multiple of this spacing are portal
/// anchors: candidate exits prefer an anchor over a non-anchor within the
/// same coarse distance band (2 * spacing) of the destination. Every
/// distinct exit cell a stitch uses costs a compiled column per epoch in
/// the shard ahead of it — and a patch of that column on every later
/// fault event — so steering traffic through a few portals per border
/// bounds both. Paths stay valid and at most one band longer.
constexpr Coord kPortalSpacing = 8;

/// Rebuild pacing after consecutive failures: the first quarantine
/// rebuilds at the next supervisor poll, repeat offenders back off
/// exponentially (a permanently poisoned event keeps its shard cycling
/// Quarantined <-> Rebuilding at a bounded, capped rate instead of
/// hot-looping service construction).
std::uint64_t rebuildBackoffNs(std::uint64_t failures) {
  if (failures <= 1) return 0;
  const std::uint64_t ms = std::min<std::uint64_t>(
      1000, 50ull << std::min<std::uint64_t>(failures - 2, 4));
  return ms * 1'000'000ull;
}

/// True when the (shard-local) event cell is a cell of shard k's OWNED
/// border ring — the only cells whose fault state the stitch planner's
/// border entries can depend on (every crossing endpoint is an owned
/// ring cell of its owner shard, and the planner's healthy predicate
/// consults only the owner's view). Halo-replica applications of a
/// neighbor's event return false: the owner's own bump covers the
/// border, so interior churn and halo echoes never invalidate plans.
bool touchesOwnedBorder(const ShardLayout& layout, std::size_t k,
                        Point local) {
  const Point g = layout.toGlobal(k, local);
  if (layout.owner(g) != k) return false;
  const Rect& r = layout.owned(k);
  return g.x == r.x0 || g.x == r.x1 || g.y == r.y0 || g.y == r.y1;
}

}  // namespace

bool shardBorderClear(const ShardLayout& layout, std::size_t shard,
                      const FaultSet& localFaults, Coord margin) {
  const Coord lw = localFaults.mesh().width();
  const Coord lh = localFaults.mesh().height();
  const bool wall[4] = {
      layout.artificialWall(shard, 0), layout.artificialWall(shard, 1),
      layout.artificialWall(shard, 2), layout.artificialWall(shard, 3)};
  if (!wall[0] && !wall[1] && !wall[2] && !wall[3]) return true;
  for (const Point f : localFaults.toVector()) {
    if (wall[0] && f.x < margin) return false;
    if (wall[1] && f.x > lw - 1 - margin) return false;
    if (wall[2] && f.y < margin) return false;
    if (wall[3] && f.y > lh - 1 - margin) return false;
  }
  return true;
}

ServiceFleet::ServiceFleet(const FaultSet& initial, FleetConfig cfg)
    : cfg_(std::move(cfg)), layout_(initial.mesh(), cfg_.grid, cfg_.halo) {
  const TelemetryConfig& telemetry = cfg_.service.telemetry;
  MetricsRegistry& reg = telemetry.resolve();
  intraQueries_ = reg.counter("fleet.queries_intra");
  crossQueries_ = reg.counter("fleet.queries_cross");
  shedQueries_ = reg.counter("fleet.queries_shed");
  degradedQueries_ = reg.counter("fleet.queries_degraded");
  stitchRetries_ = reg.counter("fleet.stitch_retries");
  replans_ = reg.counter("fleet.replans");
  eventsApplied_ = reg.counter("fleet.events_applied");
  stitchSegments_ = reg.counter("fleet.stitch_segments");
  quarantines_ = reg.counter("fleet.quarantines");
  restarts_ = reg.counter("fleet.restarts");
  submitRejected_ = reg.counter("fleet.submit_rejected");
  submitRetries_ = reg.counter("fleet.submit_retries");
  deadlineQueries_ = reg.counter("fleet.deadline_queries");
  serveErrors_ = reg.counter("fleet.serve_errors");
  borderBuilds_ = reg.counter("fleet.border_builds");
  borderReuses_ = reg.counter("fleet.border_reuses");
  planCacheHits_ = reg.counter("fleet.plan_cache_hits");
  planCacheMisses_ = reg.counter("fleet.plan_cache_misses");
  planInvalidations_ = reg.counter("fleet.plan_invalidations");
  planner_ = std::make_unique<StitchPlanner>(
      layout_, StitchPlanMode::Hierarchical,
      StitchPlannerCounters{borderBuilds_, borderReuses_, planCacheHits_,
                            planCacheMisses_, planInvalidations_});
  serveNs_ = telemetry.stageHistogram("fleet.serve_ns");
  stitchNs_ = telemetry.stageHistogram("fleet.stitch_ns");
  queueWaitNs_ = telemetry.stageHistogram("fleet.queue_wait_ns");
  applyNs_ = telemetry.stageHistogram("fleet.apply_ns");
  FailpointRegistry& failpoints = FailpointRegistry::global();
  fpApplierThrow_ = &failpoints.point("fleet.applier.throw");
  fpApplierStall_ = &failpoints.point("fleet.applier.stall");
  const std::vector<Point> faults = initial.toVector();
  shards_.reserve(layout_.shardCount());
  for (std::size_t k = 0; k < layout_.shardCount(); ++k) {
    FaultSet slice(layout_.localMesh(k));
    for (const Point p : faults) {
      if (layout_.local(k).contains(p)) slice.add(layout_.toLocal(k, p));
    }
    auto shard = std::make_unique<Shard>(std::move(slice));
    const std::string prefix = "fleet.shard" + std::to_string(k);
    shard->queueDepth = reg.gauge(prefix + ".queue_depth");
    shard->epochLag = reg.gauge(prefix + ".epoch_lag");
    shard->epoch = reg.gauge(prefix + ".epoch");
    shard->healthGauge = reg.gauge(prefix + ".health");
    shard->columnBytes = reg.gauge(prefix + ".column_bytes");
    shard->service = std::make_shared<RouteService>(shard->applied,
                                                    cfg_.service);
    shards_.push_back(std::move(shard));
  }
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    shards_[k]->applier = std::thread([this, k] { applierLoop(k, 0); });
  }
  supervisor_ = std::thread([this] { supervisorLoop(); });
}

ServiceFleet::~ServiceFleet() {
  stopping_.store(true, std::memory_order_relaxed);
  // Supervisor first: no rebuild may race the teardown below.
  {
    std::lock_guard<std::mutex> guard(supervisorMutex_);
  }
  supervisorCv_.notify_all();
  supervisor_.join();
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> guard(shard->mutex);
      shard->stop = true;
    }
    shard->wake.notify_all();
  }
  // Live appliers drain their queues before exiting; a quarantined
  // shard has no applier, so its queued events are dropped with the
  // fleet (they were never applied anywhere).
  for (auto& shard : shards_) {
    if (shard->applier.joinable()) shard->applier.join();
  }
  // Abandoned appliers exit on generation mismatch once their stall or
  // apply finishes (stopping_ cuts injected stalls to ~10ms).
  std::lock_guard<std::mutex> guard(retiredMutex_);
  for (std::thread& t : retired_) {
    if (t.joinable()) t.join();
  }
}

void ServiceFleet::setHealthLocked(Shard& shard, ShardHealth next) {
  shard.health = next;
  shard.healthGauge->set(static_cast<std::int64_t>(next));
}

void ServiceFleet::applierLoop(std::size_t k, std::uint64_t generation) {
  Shard& shard = *shards_[k];
  std::unique_lock<std::mutex> lock(shard.mutex);
  for (;;) {
    shard.wake.wait(lock, [&] {
      return shard.stop || generation != shard.generation ||
             !shard.queue.empty();
    });
    if (generation != shard.generation) return;  // abandoned: a successor owns the shard
    if (shard.queue.empty()) {
      if (shard.stop) return;  // queue drained before exit: no lost events
      continue;
    }
    const WriterEvent event = shard.queue.front();
    shard.queue.pop_front();
    shard.inflight = event;
    shard.queueDepth->sub(1);
    // Border-epoch double bump, part 1 of 2 (part 2 in the ok branch
    // below): planner entries cached before this apply must not claim
    // to describe views pinned after it. A failed/abandoned apply
    // leaves the epoch odd-bumped — conservative (one spurious
    // invalidation), and the replay bumps again.
    const bool border = touchesOwnedBorder(layout_, k, event.local);
    if (border) ++shard.borderEpoch;
    // Pin the service instance: a mid-apply abandonment lets the
    // supervisor swap shard.service, and this thread must keep its
    // (now retired) instance alive until the apply unwinds.
    const std::shared_ptr<RouteService> service = shard.service;
    lock.unlock();
    if (queueWaitNs_ && event.enqueueNs != 0) {
      queueWaitNs_->record(telemetryNowNs() - event.enqueueNs);
    }
    // The test-seam hook runs OUTSIDE the heartbeat window: gated-hook
    // tests park the applier indefinitely without tripping the watchdog.
    if (cfg_.applyHook) cfg_.applyHook(k);
    shard.busySinceNs.store(telemetryNowNs(), std::memory_order_relaxed);
    bool ok = true;
    std::string error;
    try {
      failpointMaybeStall(fpApplierStall_, &stopping_);
      failpointMaybeThrow(fpApplierThrow_);
      TraceSpan applySpan(applyNs_.get());
      if (event.add) {
        service->applyAddFault(event.local);
      } else {
        service->applyRemoveFault(event.local);
      }
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    } catch (...) {
      ok = false;
      error = "non-standard applier exception";
    }
    shard.busySinceNs.store(0, std::memory_order_relaxed);
    lock.lock();
    if (generation != shard.generation) {
      // Abandoned mid-apply: the supervisor already restored the event
      // to the queue and owns every piece of shard state. The apply (if
      // it succeeded) landed on the retired instance this thread pinned,
      // which the rebuild discards.
      return;
    }
    shard.inflight.reset();
    if (ok) {
      if (event.add) {
        shard.applied.add(event.local);
      } else {
        shard.applied.remove(event.local);
      }
      shard.failures = 0;
      if (shard.health == ShardHealth::Suspect) {
        setHealthLocked(shard, ShardHealth::Healthy);
      }
      if (border) ++shard.borderEpoch;  // bump part 2: post-publish
      eventsApplied_->add(1);
      shard.epoch->set(static_cast<std::int64_t>(service->epoch()));
      // The lag gauge mirrors queue + in-flight, so it drops only once the
      // event is fully applied — under the mutex, on the same transition
      // the writerQueueDepth() oracle observes.
      shard.epochLag->sub(1);
      if (shard.queue.empty()) shard.idle.notify_all();
    } else {
      // Peel the failure into quarantine: the event goes back to the
      // queue FRONT (replay preserves order; nothing accepted is lost),
      // the shard keeps serving its last good epoch, and this thread
      // exits — the supervisor respawns a successor after rebuild.
      shard.queue.push_front(event);
      shard.queueDepth->add(1);
      shard.error = std::move(error);
      shard.failures += 1;
      shard.nextRebuildNs = telemetryNowNs() + rebuildBackoffNs(shard.failures);
      setHealthLocked(shard, ShardHealth::Quarantined);
      quarantines_->add(1);
      shard.idle.notify_all();  // drainWriters re-evaluates
      return;
    }
  }
}

void ServiceFleet::supervisorLoop() {
  std::unique_lock<std::mutex> lock(supervisorMutex_);
  for (;;) {
    supervisorCv_.wait_for(
        lock, std::chrono::milliseconds(cfg_.supervisorPollMs),
        [&] { return stopping_.load(std::memory_order_relaxed); });
    if (stopping_.load(std::memory_order_relaxed)) return;
    lock.unlock();
    const std::uint64_t now = telemetryNowNs();
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      superviseShard(k, now);
    }
    lock.lock();
  }
}

void ServiceFleet::superviseShard(std::size_t k, std::uint64_t nowNs) {
  Shard& shard = *shards_[k];
  bool rebuild = false;
  {
    std::lock_guard<std::mutex> guard(shard.mutex);
    const std::uint64_t timeoutNs =
        static_cast<std::uint64_t>(cfg_.stallTimeoutMs) * 1'000'000ull;
    if (shard.health == ShardHealth::Healthy ||
        shard.health == ShardHealth::Suspect) {
      // busySinceNs re-read under the mutex: a nonzero value here means
      // the applier is strictly before its post-apply clear, so
      // abandoning it cannot race its bookkeeping (the generation bump
      // below voids that bookkeeping entirely).
      const std::uint64_t since =
          shard.busySinceNs.load(std::memory_order_relaxed);
      const std::uint64_t stalled =
          (since != 0 && nowNs > since) ? nowNs - since : 0;
      if (stalled > 2 * timeoutNs) {
        // Abandon the stalled applier: bump the generation (the zombie
        // must touch no shard state when it eventually unwinds), park
        // its thread handle for join-at-destruction, restore the
        // in-flight event, and quarantine.
        ++shard.generation;
        {
          std::lock_guard<std::mutex> retiredGuard(retiredMutex_);
          retired_.push_back(std::move(shard.applier));
        }
        shard.applier = std::thread();
        if (shard.inflight) {
          shard.queue.push_front(*shard.inflight);
          shard.inflight.reset();
          shard.queueDepth->add(1);
        }
        shard.busySinceNs.store(0, std::memory_order_relaxed);
        shard.error = "applier stalled past " +
                      std::to_string(2 * cfg_.stallTimeoutMs) +
                      "ms heartbeat budget";
        shard.failures += 1;
        shard.nextRebuildNs = nowNs;  // a stall is not the event's fault
        setHealthLocked(shard, ShardHealth::Quarantined);
        quarantines_->add(1);
        shard.idle.notify_all();
      } else if (stalled > timeoutNs) {
        if (shard.health == ShardHealth::Healthy) {
          setHealthLocked(shard, ShardHealth::Suspect);
        }
      } else if (shard.health == ShardHealth::Suspect && since == 0) {
        // Heartbeat cleared between polls without the applier itself
        // clearing Suspect (it only does so on apply success with the
        // matching generation).
        setHealthLocked(shard, ShardHealth::Healthy);
        shard.idle.notify_all();
      }
    }
    if (shard.health == ShardHealth::Quarantined &&
        nowNs >= shard.nextRebuildNs) {
      setHealthLocked(shard, ShardHealth::Rebuilding);
      rebuild = true;
    }
  }
  if (rebuild) rebuildShard(k);
}

void ServiceFleet::rebuildShard(std::size_t k) {
  Shard& shard = *shards_[k];
  FaultSet authoritative = [&] {
    std::lock_guard<std::mutex> guard(shard.mutex);
    return shard.applied;
  }();
  // Construct outside the shard mutex: readers keep serving the old
  // service and writers keep enqueuing while the replacement labels its
  // mesh. The ctor can itself fail (injected or real) — that re-enters
  // quarantine with backoff rather than killing the supervisor.
  std::shared_ptr<RouteService> fresh;
  try {
    fresh = std::make_shared<RouteService>(authoritative, cfg_.service);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> guard(shard.mutex);
    shard.error = std::string("rebuild failed: ") + e.what();
    shard.failures += 1;
    shard.nextRebuildNs = telemetryNowNs() + rebuildBackoffNs(shard.failures);
    setHealthLocked(shard, ShardHealth::Quarantined);
    return;
  }
  {
    std::lock_guard<std::mutex> guard(shard.mutex);
    // A throw-quarantined applier exited on its own; join its finished
    // thread here. (Stall-quarantined appliers were already moved to
    // retired_ when abandoned.)
    if (shard.applier.joinable()) shard.applier.join();
    shard.service = std::move(fresh);
    // A fresh instance publishes fresh views: planner entries keyed to
    // the retired service's epochs must not survive the swap.
    ++shard.borderEpoch;
    const std::uint64_t generation = ++shard.generation;
    shard.applier =
        std::thread([this, k, generation] { applierLoop(k, generation); });
    shard.epoch->set(static_cast<std::int64_t>(shard.service->epoch()));
    setHealthLocked(shard, ShardHealth::Healthy);
  }
  restarts_->add(1);
  shard.wake.notify_all();  // replay the queue (failed event first)
  shard.idle.notify_all();
}

SubmitResult ServiceFleet::submit(Point p, bool add) {
  const std::uint64_t now = queueWaitNs_ ? telemetryNowNs() : 0;
  const std::vector<std::size_t> covering = layout_.covering(p);
  // All-or-nothing admission across the covering shards: covering() is
  // ascending (deadlock-free multi-lock), and either every replica
  // enqueues or none does — a partial enqueue would silently desync the
  // halo replicas, which no later event could repair.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(covering.size());
  for (const std::size_t k : covering) {
    locks.emplace_back(shards_[k]->mutex);
  }
  if (cfg_.queueCapacity > 0) {
    for (const std::size_t k : covering) {
      if (shards_[k]->queue.size() >= cfg_.queueCapacity) {
        submitRejected_->add(1);
        return SubmitResult::Rejected;
      }
    }
  }
  for (std::size_t i = 0; i < covering.size(); ++i) {
    Shard& shard = *shards_[covering[i]];
    shard.queue.push_back({add, layout_.toLocal(covering[i], p), now});
    shard.queueDepth->add(1);
    shard.epochLag->add(1);
  }
  locks.clear();
  for (const std::size_t k : covering) shards_[k]->wake.notify_one();
  return SubmitResult::Accepted;
}

SubmitResult ServiceFleet::submitAddFault(Point p) { return submit(p, true); }
SubmitResult ServiceFleet::submitRemoveFault(Point p) {
  return submit(p, false);
}

SubmitResult ServiceFleet::submitWithRetry(Point p, bool add,
                                           const SubmitRetryPolicy& policy) {
  // Jitter stream keyed by (seed, cell): replays are deterministic, and
  // concurrent churners with distinct seeds decorrelate.
  std::uint64_t jitterState =
      policy.seed ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         p.x)) << 32) ^
      static_cast<std::uint32_t>(p.y);
  for (std::uint32_t attempt = 0;; ++attempt) {
    if (submit(p, add) == SubmitResult::Accepted) {
      return SubmitResult::Accepted;
    }
    if (attempt + 1 >= policy.maxAttempts) return SubmitResult::Rejected;
    const std::uint32_t shift = std::min<std::uint32_t>(attempt, 16);
    std::uint64_t delayUs =
        std::min(policy.maxDelayUs, policy.baseDelayUs << shift);
    if (delayUs > 0) {
      const std::uint64_t half = delayUs / 2;
      delayUs = delayUs - half + splitmix64(jitterState) % (half + 1);
    }
    if (policy.deadlineNs != 0 &&
        telemetryNowNs() + delayUs * 1000 >= policy.deadlineNs) {
      return SubmitResult::Rejected;  // the sleep would blow the deadline
    }
    submitRetries_->add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(delayUs));
  }
}

SubmitResult ServiceFleet::submitAddFaultWithRetry(
    Point p, const SubmitRetryPolicy& policy) {
  return submitWithRetry(p, true, policy);
}

SubmitResult ServiceFleet::submitRemoveFaultWithRetry(
    Point p, const SubmitRetryPolicy& policy) {
  return submitWithRetry(p, false, policy);
}

bool ServiceFleet::drainWriters(std::int64_t timeoutMs) {
  const auto start = std::chrono::steady_clock::now();
  const bool bounded = timeoutMs >= 0;
  const auto deadline = start + std::chrono::milliseconds(
                                    bounded ? timeoutMs : 0);
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mutex);
    for (;;) {
      if (shard->queue.empty() && !shard->inflight &&
          shard->health == ShardHealth::Healthy) {
        break;
      }
      if (bounded && std::chrono::steady_clock::now() >= deadline) {
        return false;
      }
      // Sliced waits: health transitions notify `idle`, but the slice
      // also bounds the window of any missed wakeup.
      shard->idle.wait_for(lock, std::chrono::milliseconds(10));
    }
  }
  return true;
}

std::size_t ServiceFleet::writerQueueDepth(std::size_t k) const {
  const Shard& shard = *shards_[k];
  std::lock_guard<std::mutex> guard(shard.mutex);
  return shard.queue.size() + (shard.inflight ? 1 : 0);
}

bool ServiceFleet::overloaded(std::size_t k) const {
  if (cfg_.maxWriterQueue == 0) return false;
  const std::int64_t lag = shards_[k]->epochLag->value();
  return lag > 0 &&
         static_cast<std::size_t>(lag) > cfg_.maxWriterQueue;
}

ShardHealth ServiceFleet::shardHealth(std::size_t k) const {
  std::lock_guard<std::mutex> guard(shards_[k]->mutex);
  return shards_[k]->health;
}

std::string ServiceFleet::shardError(std::size_t k) const {
  std::lock_guard<std::mutex> guard(shards_[k]->mutex);
  return shards_[k]->error;
}

FaultSet ServiceFleet::shardAppliedFaults(std::size_t k) const {
  std::lock_guard<std::mutex> guard(shards_[k]->mutex);
  return shards_[k]->applied;
}

void ServiceFleet::precompileAll() {
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    shards_[k]->serviceRef()->precompileAll();
  }
}

FleetCounters ServiceFleet::counters() const {
  FleetCounters c;
  c.intraQueries = intraQueries_->value();
  c.crossQueries = crossQueries_->value();
  c.shedQueries = shedQueries_->value();
  c.degradedQueries = degradedQueries_->value();
  c.stitchRetries = stitchRetries_->value();
  c.replans = replans_->value();
  c.eventsApplied = eventsApplied_->value();
  c.stitchSegments = stitchSegments_->value();
  c.quarantines = quarantines_->value();
  c.restarts = restarts_->value();
  c.submitRejected = submitRejected_->value();
  c.submitRetries = submitRetries_->value();
  c.deadlineQueries = deadlineQueries_->value();
  c.serveErrors = serveErrors_->value();
  c.borderBuilds = borderBuilds_->value();
  c.borderReuses = borderReuses_->value();
  c.planCacheHits = planCacheHits_->value();
  c.planCacheMisses = planCacheMisses_->value();
  c.planInvalidations = planInvalidations_->value();
  return c;
}

FleetBatchResult ServiceFleet::serve(const std::vector<Query>& batch,
                                     bool wantPaths,
                                     std::uint64_t deadlineNs) {
  TraceSpan serveSpan(serveNs_.get());
  const std::size_t count = shardCount();
  FleetBatchResult out;
  out.status.assign(batch.size(), ServeStatus::NoRoute);
  out.hops.assign(batch.size(), 0);
  out.flags.assign(batch.size(), 0);
  if (wantPaths) {
    out.paths.resize(batch.size());
    out.segments.resize(batch.size());
  }
  out.services.reserve(count);
  out.pinned.reserve(count);
  out.shardEpochs.reserve(count);
  // Pin the service INSTANCE and its snapshot per shard, and sample
  // health in the same locked read: a supervisor rebuild mid-batch then
  // swaps under us harmlessly — every chase of this batch runs on the
  // pinned instance's pinned epoch.
  std::vector<bool> unhealthy(count, false);
  std::vector<std::uint64_t> borderEpochs(count, 0);
  for (std::size_t k = 0; k < count; ++k) {
    Shard& shard = *shards_[k];
    {
      std::lock_guard<std::mutex> guard(shard.mutex);
      out.services.push_back(shard.service);
      unhealthy[k] = shard.health != ShardHealth::Healthy;
      // Pin INSIDE the lock so the border epoch sampled with it
      // describes this snapshot: an apply publishing between an
      // unlocked pin and the sample would let a stale planner entry
      // masquerade as current. (SnapshotBox has its own lock; nothing
      // acquires it before a shard mutex, so the nesting is safe.)
      out.pinned.push_back(shard.service->snapshot());
      borderEpochs[k] = shard.borderEpoch;
    }
    out.shardEpochs.push_back(out.pinned.back()->epoch());
    shard.columnBytes->set(static_cast<std::int64_t>(
        out.pinned.back()->residentColumnBytes()));
  }

  // Admission control is sampled once per batch: the per-query flags
  // describe the shard state the batch was admitted under, not a
  // per-query race.
  std::vector<bool> hot(count, false);
  if (cfg_.maxWriterQueue > 0) {
    for (std::size_t k = 0; k < count; ++k) hot[k] = overloaded(k);
  }
  const bool shedPolicy = cfg_.overload == OverloadPolicy::Shed;
  const auto pastDeadline = [deadlineNs] {
    return deadlineNs != 0 && telemetryNowNs() >= deadlineNs;
  };
  const auto expire = [&](std::uint32_t i) {
    out.status[i] = ServeStatus::Deadline;
    out.flags[i] |= kFleetFlagDeadline;
    deadlineQueries_->add(1);
  };

  std::vector<std::vector<std::uint32_t>> intra(count);
  std::vector<std::uint32_t> cross;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t ks = layout_.owner(batch[i].s);
    const std::size_t kd = layout_.owner(batch[i].d);
    if (ks == kd) {
      intra[ks].push_back(static_cast<std::uint32_t>(i));
    } else {
      cross.push_back(static_cast<std::uint32_t>(i));
    }
  }

  for (std::size_t k = 0; k < count; ++k) {
    if (intra[k].empty()) continue;
    intraQueries_->add(intra[k].size());
    if (hot[k] && shedPolicy) {
      for (const std::uint32_t i : intra[k]) out.flags[i] |= kFleetFlagShed;
      shedQueries_->add(intra[k].size());
      continue;
    }
    // A quarantined/rebuilding shard still answers — from the epoch this
    // batch pinned, which is by definition its last good one — but every
    // touching query is marked stale, exactly like admission degrade.
    const bool staleK = hot[k] || unhealthy[k];
    if (pastDeadline()) {
      for (const std::uint32_t i : intra[k]) expire(i);
      continue;
    }
    std::vector<Query> sub;
    sub.reserve(intra[k].size());
    for (const std::uint32_t i : intra[k]) {
      sub.push_back({layout_.toLocal(k, batch[i].s),
                     layout_.toLocal(k, batch[i].d)});
    }
    BatchResult r;
    try {
      r = out.services[k]->serveOn(out.pinned[k], sub, wantPaths,
                                   deadlineNs);
    } catch (const std::exception&) {
      // Isolate the blast radius to the queries that needed this shard:
      // an injected (or real) serve failure must not take the batch.
      for (const std::uint32_t i : intra[k]) {
        out.status[i] = ServeStatus::NoRoute;
        out.flags[i] |= kFleetFlagError;
      }
      serveErrors_->add(intra[k].size());
      continue;
    }
    for (std::size_t j = 0; j < sub.size(); ++j) {
      const std::uint32_t i = intra[k][j];
      out.status[i] = r.status[j];
      out.hops[i] = r.hops[j];
      if (r.status[j] == ServeStatus::Deadline) {
        out.flags[i] |= kFleetFlagDeadline;
        deadlineQueries_->add(1);
      }
      if (staleK) {
        out.flags[i] |= kFleetFlagStale;
        degradedQueries_->add(1);
      }
      if (wantPaths) {
        for (Point& p : r.paths[j]) p = layout_.toGlobal(k, p);
        out.paths[i] = std::move(r.paths[j]);
        if (out.status[i] == ServeStatus::Delivered) {
          out.segments[i] = {{static_cast<std::uint32_t>(k), 0}};
        }
      }
    }
  }

  if (!cross.empty()) {
    crossQueries_->add(cross.size());
    // The planner session binds the SAME pinned handles the segments
    // are served against — "healthy waypoint" and "chaseable endpoint"
    // agree within this batch by construction — plus the border epochs
    // sampled under the pin locks, which key the planner's caches.
    StitchPlanner::Session session = planner_->session(
        [&](Point p) {
          const std::size_t k = layout_.owner(p);
          return !out.pinned[k]->faults().isFaulty(layout_.toLocal(k, p));
        },
        std::move(borderEpochs));
    SegmentMemo memo;
    for (const std::uint32_t qi : cross) {
      const std::size_t ks = layout_.owner(batch[qi].s);
      const std::size_t kd = layout_.owner(batch[qi].d);
      if ((hot[ks] || hot[kd]) && shedPolicy) {
        out.flags[qi] |= kFleetFlagShed;
        shedQueries_->add(1);
        continue;
      }
      if (hot[ks] || hot[kd] || unhealthy[ks] || unhealthy[kd]) {
        out.flags[qi] |= kFleetFlagStale;
        degradedQueries_->add(1);
      }
      if (pastDeadline()) {
        expire(qi);
        continue;
      }
      TraceSpan stitchSpan(stitchNs_.get());
      try {
        serveCross(session, batch, qi, wantPaths, deadlineNs, memo, out);
      } catch (const std::exception&) {
        out.status[qi] = ServeStatus::NoRoute;
        out.flags[qi] |= kFleetFlagError;
        serveErrors_->add(1);
        continue;
      }
      if (out.status[qi] == ServeStatus::Deadline) {
        out.flags[qi] |= kFleetFlagDeadline;
        deadlineQueries_->add(1);
      }
    }
  }
  return out;
}

BatchResult ServiceFleet::serveSegment(std::size_t k, Point u, Point v,
                                       bool wantPaths,
                                       std::uint64_t deadlineNs,
                                       const FleetBatchResult& out) {
  const std::vector<Query> one{
      {layout_.toLocal(k, u), layout_.toLocal(k, v)}};
  return out.services[k]->serveOn(out.pinned[k], one, wantPaths,
                                  deadlineNs);
}

void ServiceFleet::serveCross(StitchPlanner::Session& session,
                              const std::vector<Query>& batch,
                              std::size_t qi, bool wantPaths,
                              std::uint64_t deadlineNs, SegmentMemo& memo,
                              FleetBatchResult& out) {
  const Query& q = batch[qi];
  const std::size_t ks = layout_.owner(q.s);
  const std::size_t kd = layout_.owner(q.d);
  const auto faultyIn = [&](std::size_t k, Point p) {
    return out.pinned[k]->faults().isFaulty(layout_.toLocal(k, p));
  };
  if (faultyIn(ks, q.s) || faultyIn(kd, q.d)) {
    out.status[qi] = ServeStatus::EndpointFaulty;
    if (wantPaths) out.paths[qi] = {q.s};
    return;
  }

  // Appends a segment path (shard-local coords) onto the stitched path.
  // Consecutive segments share exactly their junction cell (the previous
  // crossing's far cell is the next segment's head), so every append
  // after the first drops the head.
  const auto append = [&](std::vector<Point>& path, std::size_t k,
                          const std::vector<Point>& segment) {
    for (std::size_t i = path.empty() ? 0 : 1; i < segment.size(); ++i) {
      path.push_back(layout_.toGlobal(k, segment[i]));
    }
  };

  // Memoized segment chase: a (shard, from, to) chase that failed for
  // an earlier query of this batch fails identically here (same pinned
  // epoch), so skip the serve. Deadline expiries are NOT memoized —
  // they say nothing about the epoch, only about the clock.
  bool deadlined = false;
  const auto chase = [&](std::size_t k, Point u, Point v,
                         BatchResult& r) -> bool {
    const auto key = std::make_tuple(k, u.x, u.y, v.x, v.y);
    if (memo.contains(key)) return false;
    r = serveSegment(k, u, v, wantPaths, deadlineNs, out);
    if (r.status[0] == ServeStatus::Delivered) return true;
    if (r.status[0] == ServeStatus::Deadline) {
      deadlined = true;
      return false;
    }
    memo.insert(key);
    return false;
  };

  std::vector<std::pair<std::size_t, std::size_t>> blocked;
  const std::size_t maxReplans = 1 + 2 * layout_.shardCount();
  for (std::size_t attempt = 0; attempt < maxReplans; ++attempt) {
    if (attempt > 0) replans_->add(1);
    const std::vector<std::size_t> plan =
        session.shardPath(ks, kd, blocked.empty() ? nullptr : &blocked);
    if (plan.empty()) {
      out.status[qi] = ServeStatus::NoRoute;
      return;
    }

    Point cur = q.s;
    std::int32_t hops = 0;
    std::vector<Point> path;
    std::vector<FleetSegment> segs;
    // Start of the segment about to be appended: the junction cell the
    // previous crossing pushed (or 0 for the first segment).
    const auto segmentStart = [&] {
      return static_cast<std::uint32_t>(path.empty() ? 0 : path.size() - 1);
    };
    bool stitched = true;
    bool blockable = false;
    std::pair<std::size_t, std::size_t> failedBorder{};
    for (std::size_t leg = 0; leg < plan.size(); ++leg) {
      const std::size_t k = plan[leg];
      if (leg + 1 == plan.size()) {
        BatchResult r;
        if (!chase(k, cur, q.d, r)) {
          if (deadlined) {
            out.status[qi] = ServeStatus::Deadline;
            return;
          }
          // The entry cell chosen at the previous border may be in a
          // region the destination can't reach locally: retry around.
          stitched = false;
          blockable = plan.size() >= 2;
          if (blockable) {
            failedBorder = {std::min(plan[leg - 1], k),
                            std::max(plan[leg - 1], k)};
          }
          break;
        }
        hops += r.hops[0];
        if (wantPaths) {
          segs.push_back({static_cast<std::uint32_t>(k), segmentStart()});
          append(path, k, r.paths[0]);
        }
        break;
      }
      const std::size_t kn = plan[leg + 1];
      const std::vector<StitchPlanner::Waypoint>& candidates =
          session.crossings(k, kn);
      const auto cellIn = [&](const StitchPlanner::Waypoint& w) {
        return k == w.shardA ? w.a : w.b;
      };
      const auto cellAcross = [&](const StitchPlanner::Waypoint& w) {
        return k == w.shardA ? w.b : w.a;
      };
      // Candidate order is keyed to the DESTINATION only, never to
      // `cur`: every query bound for the same destination tries the
      // same waypoint sequence at this border, so the exit-cell columns
      // compile once per epoch instead of once per query (pooled
      // popular destinations are the serving-path common case; a
      // cur-keyed order costs a column compile per distinct source
      // position). Within a coarse distance band, portal anchors sort
      // first (kPortalSpacing): fewer distinct exit cells means fewer
      // waypoint columns to compile and patch per epoch. The positional
      // tie-break is crossing-list order, the order the
      // BoundaryWaypointGraph oracle indexes a border in.
      const auto nonAnchor = [&](std::size_t wi) {
        const Point p = cellIn(candidates[wi]);
        return (p.x + p.y) % kPortalSpacing != 0;
      };
      constexpr auto band = static_cast<Distance>(2 * kPortalSpacing);
      // The planner probes each crossing cell in its owner's pinned view
      // only. Mid-apply, the other side's halo replica can still
      // disagree (a queued event has reached one covering shard but not
      // the other), and the crossing hop must be healthy in both epochs
      // it joins — so a candidate either side still sees faulty is
      // skipped before it can take a retry slot.
      std::vector<std::size_t> order;
      order.reserve(candidates.size());
      for (std::size_t wi = 0; wi < candidates.size(); ++wi) {
        if (faultyIn(kn, cellIn(candidates[wi])) ||
            faultyIn(k, cellAcross(candidates[wi]))) {
          continue;
        }
        order.push_back(wi);
      }
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  const Distance sa = manhattan(cellAcross(candidates[a]), q.d);
                  const Distance sb = manhattan(cellAcross(candidates[b]), q.d);
                  if (sa / band != sb / band) return sa / band < sb / band;
                  const bool na = nonAnchor(a);
                  const bool nb = nonAnchor(b);
                  if (na != nb) return nb;
                  return sa != sb ? sa < sb : a < b;
                });
      if (order.size() > kWaypointRetries) order.resize(kWaypointRetries);
      bool crossed = false;
      for (const std::size_t wi : order) {
        const StitchPlanner::Waypoint& w = candidates[wi];
        const Point exit = cellIn(w);
        const Point entry = cellAcross(w);
        BatchResult r;
        if (!chase(k, cur, exit, r)) {
          if (deadlined) {
            out.status[qi] = ServeStatus::Deadline;
            return;
          }
          stitchRetries_->add(1);
          continue;
        }
        hops += r.hops[0] + 1;  // +1: the crossing hop exit -> entry
        if (wantPaths) {
          segs.push_back({static_cast<std::uint32_t>(k), segmentStart()});
          append(path, k, r.paths[0]);
          path.push_back(entry);
        }
        cur = entry;
        crossed = true;
        break;
      }
      if (!crossed) {
        stitched = false;
        blockable = true;
        failedBorder = {std::min(k, kn), std::max(k, kn)};
        break;
      }
    }
    if (stitched) {
      out.status[qi] = ServeStatus::Delivered;
      out.hops[qi] = hops;
      stitchSegments_->add(plan.size());
      if (wantPaths) {
        out.paths[qi] = std::move(path);
        out.segments[qi] = std::move(segs);
      }
      return;
    }
    if (!blockable) break;
    blocked.push_back(failedBorder);
  }
  out.status[qi] = ServeStatus::NoRoute;
}

}  // namespace meshrt
