#include "service/route_service.h"

#include <algorithm>
#include <numeric>

#include "route/batch_chase.h"

namespace meshrt {

namespace {

/// Pool instruments for one service's worker pool (the pool is built in
/// the member-init list, so this runs before the ctor body).
PoolTelemetry servicePoolTelemetry(const TelemetryConfig& telemetry) {
  MetricsRegistry& reg = telemetry.resolve();
  PoolTelemetry pt;
  pt.jobsExecuted = reg.counter("pool.jobs_executed");
  pt.queueDepth = reg.gauge("pool.queue_depth");
  pt.waitStall = telemetry.stageHistogram("pool.wait_stall_ns");
  return pt;
}

/// A chaseable query of a serve call and its destination group.
struct Lane {
  std::uint32_t query;
  std::uint32_t group;
};

/// serveOn's working arrays: one set per calling thread, reused by every
/// call, so a batch pays for its queries rather than for allocations and
/// grouping never allocates or clears anything sized by the mesh. They
/// keep the capacity of the largest mesh (4 bytes a node) and batch
/// (about 21 bytes a query) the thread has served. serveOn never
/// re-enters on one thread — its pool waits run only its own compile and
/// slice jobs — so one set per thread suffices.
struct ServeArrays {
  /// NodeId -> group + 1, or 0 for a destination this call has not seen;
  /// all zero between calls.
  std::vector<std::uint32_t> groupSlot;
  std::vector<NodeId> dests;              ///< group -> destination id
  std::vector<Lane> lanes;                ///< chaseable queries, batch order
  std::vector<std::uint32_t> groupStart;  ///< group -> first grouped lane
  std::vector<std::uint32_t> queryOf;     ///< grouped lane -> batch index
  std::vector<NodeId> srcIds;             ///< grouped source ids
  std::vector<ServeStatus> status;        ///< grouped lockstep results
  std::vector<std::int32_t> hops;
};

/// One serve call's hold on this thread's ServeArrays. The destructor
/// zeroes the group slots the call set, on every exit (the deadline
/// return and an exception out of the compile included).
class ServeScratch {
 public:
  explicit ServeScratch(NodeId nodeCount) : a(threadArrays()) {
    if (a.groupSlot.size() < static_cast<std::size_t>(nodeCount)) {
      a.groupSlot.resize(static_cast<std::size_t>(nodeCount), 0);
    }
    a.dests.clear();
    a.lanes.clear();
  }
  ServeScratch(const ServeScratch&) = delete;
  ServeScratch& operator=(const ServeScratch&) = delete;
  ~ServeScratch() {
    for (const NodeId d : a.dests) {
      a.groupSlot[static_cast<std::size_t>(d)] = 0;
    }
  }

  /// Group of destination `d`, opening the next one on first sight.
  std::uint32_t groupOf(NodeId d) {
    std::uint32_t& slot = a.groupSlot[static_cast<std::size_t>(d)];
    if (slot == 0) {
      a.dests.push_back(d);
      slot = static_cast<std::uint32_t>(a.dests.size());
    }
    return slot - 1;
  }

  ServeArrays& a;

 private:
  static ServeArrays& threadArrays() {
    thread_local ServeArrays arrays;
    return arrays;
  }
};

}  // namespace

RouteService::RouteService(const FaultSet& initial, ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      model_(initial),
      cachePolicy_(cfg_.columnBudgetBytes, model_.mesh().nodeCount()),
      pool_(cfg_.threads, servicePoolTelemetry(cfg_.telemetry)) {
  // at() throws on an unknown key.
  const std::vector<InfoModel> knowledgeModels =
      RouterRegistry::global().at(cfg_.routerKey).knowledge;
  MetricsRegistry& reg = cfg_.telemetry.resolve();
  columnsCompiled_ = reg.counter("service.columns_compiled");
  columnsPatched_ = reg.counter("service.columns_patched");
  entriesPatched_ = reg.counter("service.entries_patched");
  columnsDropped_ = reg.counter("service.columns_dropped");
  snapshotsPublished_ = reg.counter("service.snapshots_published");
  queriesServed_ = reg.counter("service.queries_served");
  chasesDiverged_ = reg.counter("service.chases_diverged");
  columnsEvicted_ = reg.counter("service.columns.evicted");
  columnsRecompiled_ = reg.counter("service.columns.recompiled");
  columnsResident_ = reg.gauge("service.columns.resident");
  columnBytes_ = reg.gauge("service.column_bytes");
  serveClassifyNs_ = cfg_.telemetry.stageHistogram("serve.classify_ns");
  serveCompileNs_ = cfg_.telemetry.stageHistogram("serve.compile_ns");
  serveChaseNs_ = cfg_.telemetry.stageHistogram("serve.chase_ns");
  publishLabelPatchNs_ =
      cfg_.telemetry.stageHistogram("publish.label_patch_ns");
  publishColumnPatchNs_ =
      cfg_.telemetry.stageHistogram("publish.column_patch_ns");
  publishEpochSwapNs_ =
      cfg_.telemetry.stageHistogram("publish.epoch_swap_ns");
  FailpointRegistry& failpoints = FailpointRegistry::global();
  fpServe_ = &failpoints.point("service.serve.fail");
  fpCompile_ = &failpoints.point("service.compile.fail");
  fpPublish_ = &failpoints.point("service.publish.fail");
  model_.setTelemetry(LabelerTelemetry{reg.counter("labeler.cells_relabeled"),
                                       reg.counter("labeler.mccs_retired"),
                                       reg.counter("labeler.mccs_built")});
  // Warm-up: materialize every quadrant now so epoch clones share fully
  // built analyses (cloneFor would otherwise label absent quadrants from
  // scratch) and no sharded compile pays first-touch latency.
  model_.analysis().materializeAll();
  // Capture exactly the knowledge the router reads, so compile jobs never
  // rebuild quadrant knowledge per router.
  if (!knowledgeModels.empty()) {
    knowledge_ = std::make_unique<KnowledgeBundle>(model_.analysis(),
                                                   knowledgeModels);
  }
  box_.publish(std::make_unique<const ServiceSnapshot>(0, model_,
                                                       knowledge_.get()));
  snapshotsPublished_->add(1);
}

std::uint64_t RouteService::epoch() const {
  const auto snap = box_.acquire();
  return snap->epoch();
}

std::uint64_t RouteService::applyAddFault(Point p) {
  std::lock_guard<std::mutex> lock(writerMutex_);
  TraceSpan span(publishLabelPatchNs_.get());
  const FaultEvent event = model_.addFaultEvent(p);
  span.stop();
  return applyEvent(event);
}

std::uint64_t RouteService::applyRemoveFault(Point p) {
  std::lock_guard<std::mutex> lock(writerMutex_);
  TraceSpan span(publishLabelPatchNs_.get());
  const FaultEvent event = model_.removeFaultEvent(p);
  span.stop();
  return applyEvent(event);
}

std::uint64_t RouteService::applyEvent(const FaultEvent& event) {
  const auto current = box_.acquire();
  if (!event.applied) return current->epoch();
  // Fold this event's footprint into the pending set BEFORE anything can
  // throw: if the epoch build below aborts (a patch job of OUR task group
  // can fail — other callers' errors stay in their own groups), model_ is
  // already ahead of the published snapshot, and the next successful
  // publish must migrate columns against the union of every unpublished
  // footprint, or entries whose chases cross the lost event's cells would
  // never be recomputed.
  pendingChanged_.insert(pendingChanged_.end(), event.changedWorld.begin(),
                         event.changedWorld.end());
  pendingChanged_.push_back(event.fault);
  // "service.publish.fail" fires after the fold on purpose: the injected
  // abort exercises exactly the footprint-retention path above (the next
  // successful publish must migrate against this event's mask).
  failpointMaybeThrow(fpPublish_);

  if (knowledge_) knowledge_->sync();
  // epoch_swap covers the two non-contiguous capture/publish segments, so
  // it accumulates manually instead of through a TraceSpan.
  const bool timeSwap = publishEpochSwapNs_ != nullptr;
  std::uint64_t swapNs = 0;
  std::uint64_t swapT0 = timeSwap ? telemetryNowNs() : 0;
  // The capture shares COW pages with the writer's state AND inherits the
  // previous epoch's column table (another page-table copy), so building
  // the snapshot is O(pages), not O(mesh).
  auto next = std::make_unique<ServiceSnapshot>(
      current->epoch() + 1, model_, knowledge_.get(), current.get());
  if (timeSwap) swapNs += telemetryNowNs() - swapT0;

  TraceSpan columnPatchSpan(publishColumnPatchNs_.get());
  // Migrate inherited columns under the delta rule (see header). The
  // masked set holds every label-changed cell of every event since the
  // last publish, the toggled nodes included; an entry whose chase
  // trajectory misses it cannot route into any new fault, so its byte
  // stays correct verbatim.
  std::vector<NodeId> masked;
  masked.reserve(pendingChanged_.size());
  for (Point p : pendingChanged_) masked.push_back(mesh().id(p));
  std::sort(masked.begin(), masked.end());
  masked.erase(std::unique(masked.begin(), masked.end()), masked.end());

  const std::vector<NodeId> present = next->presentColumns();
  std::vector<std::shared_ptr<const PackedRouteColumn>> inherited =
      next->pinColumns(present);
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> entries{0};
  ServiceSnapshot& snap = *next;
  // One pass, one router per chunk job: a column whose destination died
  // is dropped; every other is REPLACED by a successor with its upstream
  // set recomputed. That set always holds the masked cells themselves, so
  // no live column stands untouched. chaseUpstream is reverse BFS from
  // the masked cells: O(delta) per column, not O(mesh).
  forEachWithChunkRouter(snap, present.size(), [&](Router& router,
                                                   std::size_t k) {
    const NodeId id = present[k];
    if (snap.faults().isFaulty(snap.mesh().point(id))) {
      snap.dropColumn(id);
      dropped.fetch_add(1);
      return;
    }
    const std::vector<NodeId> cells =
        chaseUpstream(*inherited[k], snap.mesh(), masked);
    entries.fetch_add(cells.size());
    snap.replaceColumn(id, std::make_shared<const PackedRouteColumn>(
                               inherited[k]->patched(router, snap.faults(),
                                                     cells)));
  });
  columnPatchSpan.stop();
  const std::uint64_t drops = dropped.load();
  if (present.size() != drops) columnsPatched_->add(present.size() - drops);
  if (entries.load() != 0) entriesPatched_->add(entries.load());
  if (drops != 0) columnsDropped_->add(drops);

  // Budget the successor BEFORE it publishes: patched columns are brand
  // new bytes (their pages detached from the predecessor), so an epoch
  // under churn is exactly where an unbounded table would creep. The
  // inherited pins go first, or the sweep would skip every slot they hold.
  inherited.clear();
  maybeEnforceBudget(*next);

  const std::uint64_t epoch = next->epoch();
  if (timeSwap) swapT0 = telemetryNowNs();
  box_.publish(std::unique_ptr<const ServiceSnapshot>(std::move(next)));
  if (timeSwap) {
    publishEpochSwapNs_->record(swapNs + (telemetryNowNs() - swapT0));
  }
  pendingChanged_.clear();
  snapshotsPublished_->add(1);
  return epoch;
}

void RouteService::forEachWithChunkRouter(
    const ServiceSnapshot& snap, std::size_t count,
    const std::function<void(Router&, std::size_t)>& body) {
  if (count == 0) return;
  // A handful of items per job: enough to amortize router construction,
  // small enough to load-balance. The group scopes both the wait and any
  // exception to THIS caller: concurrent batches and the writer neither
  // throttle us nor see our errors.
  TaskGroup group(pool_);
  const std::size_t jobs =
      std::min(count, std::max<std::size_t>(1, pool_.threadCount()) * 4);
  const std::size_t chunk = (count + jobs - 1) / jobs;
  for (std::size_t j = 0; j < jobs; ++j) {
    const std::size_t begin = j * chunk;
    const std::size_t end = std::min(count, begin + chunk);
    if (begin >= end) break;
    group.submit([this, &snap, &body, begin, end] {
      // "service.compile.fail" fires before the router exists, modeling a
      // registry factory that blows up mid-compile; the error belongs to
      // THIS caller's group only (concurrent batches are unaffected).
      failpointMaybeThrow(fpCompile_);
      const auto router =
          RouterRegistry::global().create(cfg_.routerKey, snap.context());
      for (std::size_t i = begin; i < end; ++i) body(*router, i);
    });
  }
  group.wait();
}

std::vector<std::shared_ptr<const PackedRouteColumn>>
RouteService::compileColumns(const ServiceSnapshot& snap,
                             const std::vector<NodeId>& dests) {
  std::vector<std::shared_ptr<const PackedRouteColumn>> pins(dests.size());
  forEachWithChunkRouter(snap, dests.size(), [&](Router& router,
                                                 std::size_t i) {
    const Point dest = snap.mesh().point(dests[i]);
    pins[i] = snap.installColumn(
        dests[i], std::make_shared<const PackedRouteColumn>(
                      compilePackedRouteColumn(router, snap.faults(), dest)));
    columnsCompiled_->add(1);
    // A compile that refills an evicted slot is the budget's extra work;
    // fetch_and hands the bit to exactly one concurrent compiler.
    const auto prev =
        cachePolicy_.state[static_cast<std::size_t>(dests[i])].fetch_and(
            static_cast<std::uint8_t>(~ColumnCachePolicy::kEvictedBit),
            std::memory_order_relaxed);
    if (prev & ColumnCachePolicy::kEvictedBit) columnsRecompiled_->add(1);
  });
  return pins;
}

std::vector<std::shared_ptr<const PackedRouteColumn>>
RouteService::pinOrCompile(const ServiceSnapshot& snap,
                           const std::vector<NodeId>& dests) {
  auto pins = snap.pinColumns(dests);
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < dests.size(); ++i) {
    if (!pins[i]) missing.push_back(i);
  }
  if (!missing.empty()) {
    // Ascending ids: a deterministic compile order whatever the batch's.
    std::sort(missing.begin(), missing.end(),
              [&](std::size_t a, std::size_t b) {
                return dests[a] < dests[b];
              });
    std::vector<NodeId> ids;
    ids.reserve(missing.size());
    for (const std::size_t i : missing) ids.push_back(dests[i]);
    auto compiled = compileColumns(snap, ids);
    for (std::size_t j = 0; j < missing.size(); ++j) {
      pins[missing[j]] = std::move(compiled[j]);
    }
  }
  if (cachePolicy_.active()) {
    for (NodeId d : dests) cachePolicy_.touch(d);
  }
  return pins;
}

void RouteService::maybeEnforceBudget(const ServiceSnapshot& snap) {
  const ColumnEvictStats stats = snap.enforceColumnBudget(cachePolicy_);
  if (stats.evicted != 0) columnsEvicted_->add(stats.evicted);
  columnsResident_->set(static_cast<std::int64_t>(stats.residentCount));
  columnBytes_->set(static_cast<std::int64_t>(stats.residentBytes));
}

BatchResult RouteService::serve(const std::vector<Query>& batch,
                                bool wantPaths, std::uint64_t deadlineNs) {
  return serveOn(box_.acquire(), batch, wantPaths, deadlineNs);
}

BatchResult RouteService::serveOn(
    const SnapshotBox<ServiceSnapshot>::Handle& snap,
    const std::vector<Query>& batch, bool wantPaths,
    std::uint64_t deadlineNs) {
  failpointMaybeThrow(fpServe_);
  const Mesh2D& m = snap->mesh();
  const FaultSet& faults = snap->faults();
  // Deadline probe: free when no deadline was given (no clock read).
  const auto pastDeadline = [deadlineNs] {
    return deadlineNs != 0 && telemetryNowNs() >= deadlineNs;
  };

  BatchResult out;
  out.epoch = snap->epoch();
  out.status.assign(batch.size(), ServeStatus::NoRoute);
  out.hops.assign(batch.size(), 0);
  if (wantPaths) out.paths.resize(batch.size());

  // Classify: retire the specials (faulty endpoint, s == d) into `out`
  // right away and give every chaseable query its destination's group,
  // so no later pass repeats the fault lookups.
  TraceSpan classifySpan(serveClassifyNs_.get());
  ServeScratch scratch(m.nodeCount());
  ServeArrays& a = scratch.a;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Query& q = batch[i];
    if (faults.isFaulty(q.s) || faults.isFaulty(q.d)) {
      out.status[i] = ServeStatus::EndpointFaulty;
    } else if (q.s == q.d) {
      out.status[i] = ServeStatus::Delivered;
    } else {
      a.lanes.push_back(
          {static_cast<std::uint32_t>(i), scratch.groupOf(m.id(q.d))});
      continue;
    }
    if (wantPaths) out.paths[i].push_back(q.s);
  }
  classifySpan.stop();
  // Deadline gate ahead of the compile (the serve stage with unbounded
  // single-step cost). Classified verdicts stand; every chaseable query
  // reports Deadline.
  if (pastDeadline()) {
    for (const Lane& lane : a.lanes) {
      out.status[lane.query] = ServeStatus::Deadline;
    }
    queriesServed_->add(batch.size());
    return out;
  }
  // Pin owning handles once, one per group; the chase then runs
  // lock-free against the pins (plus the snapshot handle). Under a
  // column budget a sweep can null a slot mid-batch, but never reclaim
  // a column this batch holds. pinOrCompile waits on OUR task group
  // only, and its exceptions are ours alone — after it returns, every
  // group's column is pinned (a compile hands back the pin it installed),
  // so a chase can never see a null column.
  std::vector<std::shared_ptr<const PackedRouteColumn>> pinned;
  {
    TraceSpan compileSpan(serveCompileNs_.get());
    pinned = pinOrCompile(*snap, a.dests);
  }

  // Group: counting sort of the chaseable queries by destination group,
  // so each group chases ONE packed column — one gather base,
  // L1-resident at serving meshes. Counts prefix-sum to group ends;
  // filling back to front keeps each group in batch order and leaves
  // groupStart holding the starts (groupStart[k] == n).
  TraceSpan chaseSpan(serveChaseNs_.get());
  const std::size_t n = a.lanes.size();
  a.groupStart.assign(a.dests.size() + 1, 0);
  for (const Lane& lane : a.lanes) ++a.groupStart[lane.group];
  std::partial_sum(a.groupStart.begin(), a.groupStart.end(),
                   a.groupStart.begin());
  a.queryOf.resize(n);
  a.srcIds.resize(wantPaths ? 0 : n);
  for (auto lane = a.lanes.rbegin(); lane != a.lanes.rend(); ++lane) {
    const std::uint32_t pos = --a.groupStart[lane->group];
    a.queryOf[pos] = lane->query;
    if (!wantPaths) a.srcIds[pos] = m.id(batch[lane->query].s);
  }

  // Chase: the grouped layout splits into kChunk-lane slices, the unit
  // of pool work. Each group piece inside a slice chases its own column
  // — the lockstep engine at the column's hop bound for status/hops, the
  // per-query scalar chase at the nodeCount bound for paths (so a
  // Diverged chase reports its full attempted prefix) — and the slice
  // then scatters its disjoint result range back to batch order, which
  // keeps results deterministic for any thread count.
  a.status.resize(wantPaths ? 0 : n);
  a.hops.assign(wantPaths ? 0 : n, 0);
  const auto pathBound = static_cast<std::size_t>(m.nodeCount());
  std::atomic<std::uint64_t> diverged{0};
  const auto chaseSlice = [&](std::size_t slice) {
    const auto begin = static_cast<std::uint32_t>(slice * kChunk);
    const auto end = static_cast<std::uint32_t>(std::min(n, begin + kChunk));
    // Deadline at slice granularity: an expired slice retires whole as
    // Deadline without touching a column, so the overshoot past the
    // deadline is bounded by one slice's chase.
    if (pastDeadline()) {
      for (std::uint32_t p = begin; p < end; ++p) {
        out.status[a.queryOf[p]] = ServeStatus::Deadline;
      }
      return;
    }
    std::uint64_t localDiverged = 0;
    auto g = static_cast<std::size_t>(
        std::upper_bound(a.groupStart.begin(), a.groupStart.end(), begin) -
        a.groupStart.begin() - 1);
    for (std::uint32_t lo = begin; lo < end; ++g) {
      const std::uint32_t hi = std::min(end, a.groupStart[g + 1]);
      const PackedRouteColumn& column = *pinned[g];
      if (wantPaths) {
        for (std::uint32_t p = lo; p < hi; ++p) {
          const std::uint32_t qi = a.queryOf[p];
          ServedRoute res = chaseColumn(column, m, batch[qi].s, pathBound,
                                        /*wantPath=*/true);
          out.status[qi] = res.status;
          if (res.status == ServeStatus::Delivered) {
            out.hops[qi] = static_cast<std::int32_t>(res.hops);
          }
          out.paths[qi] = std::move(res.path);
          if (res.status == ServeStatus::Diverged) ++localDiverged;
        }
      } else {
        chaseBatch(column, a.srcIds.data() + lo, hi - lo, column.hopBound(),
                   a.status.data() + lo, a.hops.data() + lo);
      }
      lo = hi;
    }
    if (!wantPaths) {
      for (std::uint32_t p = begin; p < end; ++p) {
        const std::uint32_t qi = a.queryOf[p];
        out.status[qi] = a.status[p];
        out.hops[qi] = a.hops[p];
        if (a.status[p] == ServeStatus::Diverged) ++localDiverged;
      }
    }
    if (localDiverged != 0) diverged.fetch_add(localDiverged);
  };
  // A one-slice batch chases on the calling thread: no TaskGroup, no
  // worker wake-up. Only larger batches fan their slices out.
  const std::size_t slices = (n + kChunk - 1) / kChunk;
  if (slices == 1) {
    chaseSlice(0);
  } else {
    parallelFor(pool_, slices, chaseSlice);
  }
  chaseSpan.stop();
  queriesServed_->add(batch.size());
  if (diverged.load() != 0) chasesDiverged_->add(diverged.load());
  pinned.clear();  // release the pins, or the sweep must skip them
  maybeEnforceBudget(*snap);
  return out;
}

void RouteService::precompileAll() {
  const auto snap = box_.acquire();
  std::vector<NodeId> missing;
  for (NodeId id = 0; id < snap->mesh().nodeCount(); ++id) {
    if (snap->faults().isHealthy(snap->mesh().point(id)) &&
        snap->column(id) == nullptr) {
      missing.push_back(id);
    }
  }
  compileColumns(*snap, missing);  // the returned pins drop here
  maybeEnforceBudget(*snap);
}

ServiceCounters RouteService::counters() const {
  ServiceCounters c;
  c.columnsCompiled = columnsCompiled_->value();
  c.columnsPatched = columnsPatched_->value();
  c.entriesPatched = entriesPatched_->value();
  c.columnsDropped = columnsDropped_->value();
  c.snapshotsPublished = snapshotsPublished_->value();
  c.queriesServed = queriesServed_->value();
  c.chasesDiverged = chasesDiverged_->value();
  c.columnsEvicted = columnsEvicted_->value();
  c.columnsRecompiled = columnsRecompiled_->value();
  return c;
}

ColumnFootprint RouteService::columnFootprint() const {
  const auto snap = box_.acquire();
  return ColumnFootprint{snap->residentColumnBytes(),
                         snap->residentColumnCount()};
}

}  // namespace meshrt
