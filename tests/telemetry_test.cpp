// Tests for the metrics registry and its instruments
// (src/common/telemetry.h).
//
// The key contracts:
//  - histogram quantiles track a sorted-vector nearest-rank oracle to
//    within the geometry's promised 1/16 relative error;
//  - sharded counters lose nothing under concurrent increments (the
//    sum is exact, not approximate);
//  - a snapshot taken against live writers is never torn: the bucket
//    total never undershoots the count, and aggregate counts never go
//    backwards;
//  - histogram state and merges are exact integers, so threads=1 and
//    threads=N recordings of the same multiset agree bit-for-bit and
//    any merge tree gives one answer;
//  - the registry aggregates same-name instruments and retains them
//    past owner destruction (aggregate counters stay monotonic);
//  - RouteService / ServiceFleet surface their instruments through a
//    (private, per-test) registry, stage histograms appear only when
//    telemetry is enabled, and the fleet's per-shard epoch-lag gauge
//    agrees with the mutex-sampled writerQueueDepth oracle exactly at
//    the points the admission path reads it — the staleness fix under
//    test.
//
// Suites are named Telemetry* so the TSan/ASan CI filters pick them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "fault/injectors.h"
#include "noc/network.h"
#include "noc/traffic.h"
#include "route/ecube.h"
#include "service/fleet.h"
#include "service/route_service.h"

namespace meshrt {
namespace {

// ------------------------------------------------- histogram geometry

TEST(TelemetryHistogram, BucketGeometryCoversValuesExactly) {
  // Every value lands in a bucket whose [low, low + width) range holds
  // it, indices are monotone in the value, and the sub-32 region is
  // exact (width 1).
  std::uint32_t lastIndex = 0;
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{31}, std::uint64_t{32},
                          std::uint64_t{33}, std::uint64_t{100},
                          std::uint64_t{1000}, std::uint64_t{123456},
                          std::uint64_t{1} << 30, std::uint64_t{1} << 39}) {
    const std::uint32_t index = histogramBucketIndex(v);
    ASSERT_LT(index, kHistogramBuckets);
    EXPECT_LE(histogramBucketLow(index), v);
    EXPECT_LT(v, histogramBucketLow(index) + histogramBucketWidth(index));
    EXPECT_GE(index, lastIndex);
    lastIndex = index;
    if (v < 32) {
      EXPECT_EQ(histogramBucketWidth(index), 1u);
    }
  }
  // Overflow clamps instead of indexing out of range.
  EXPECT_EQ(histogramBucketIndex(~std::uint64_t{0}), kHistogramBuckets - 1);
}

TEST(TelemetryHistogram, QuantilesTrackSortedVectorOracle) {
  Rng rng(42);
  Histogram hist;
  std::vector<std::uint64_t> reference;
  // Mix exact-region values with a long tail across several octaves.
  for (std::size_t i = 0; i < 20000; ++i) {
    const std::uint64_t v = (i % 3 == 0) ? rng.below(32)
                                         : rng.below(5'000'000);
    hist.record(v);
    reference.push_back(v);
  }
  std::sort(reference.begin(), reference.end());
  const HistogramStats stats = hist.stats();
  ASSERT_EQ(stats.count, reference.size());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(reference.size() - 1) + 0.5);
    const std::uint64_t oracle = reference[rank];
    const std::uint64_t est = stats.quantile(q);
    // Geometry promise: representative within one sub-bucket (1/16) of
    // the true value; +1 absorbs the exact-region rounding.
    EXPECT_LE(est, oracle + oracle / 16 + 1) << "q=" << q;
    EXPECT_GE(est + oracle / 16 + 1, oracle) << "q=" << q;
  }
  EXPECT_EQ(stats.quantile(0.0), stats.min);
  EXPECT_EQ(stats.quantile(1.0), stats.max);
  EXPECT_EQ(stats.bucketTotal(), stats.count);
}

// ------------------------------------------------- concurrent exactness

TEST(TelemetryCounter, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(TelemetryGauge, ConcurrentDeltasBalanceExactly) {
  Gauge gauge;
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&gauge, t] {
      for (std::uint64_t i = 0; i < 50000; ++i) {
        gauge.add(static_cast<std::int64_t>(t) + 1);
        gauge.sub(static_cast<std::int64_t>(t));
      }
    });
  }
  for (auto& w : workers) w.join();
  // Each iteration nets +1 regardless of thread id.
  EXPECT_EQ(gauge.value(), static_cast<std::int64_t>(kThreads * 50000));
}

TEST(TelemetrySnapshot, NeverTornAgainstLiveWriters) {
  // Writers hammer one histogram while the main thread snapshots it:
  // every snapshot must satisfy bucketTotal >= count (bucket lands
  // before count in record()), counts must never go backwards, and the
  // final quiescent snapshot must balance exactly.
  Histogram hist;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < 4; ++t) {
    writers.emplace_back([&hist, &stop, t] {
      Rng rng(900 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        hist.record(rng.below(100000));
      }
    });
  }
  std::uint64_t lastCount = 0;
  for (int i = 0; i < 200; ++i) {
    const HistogramStats stats = hist.stats();
    EXPECT_GE(stats.bucketTotal(), stats.count);
    EXPECT_GE(stats.count, lastCount);
    if (stats.count > 0) {
      EXPECT_LE(stats.min, stats.max);
      EXPECT_GE(stats.sum, stats.count * stats.min);
    }
    lastCount = stats.count;
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  const HistogramStats quiesced = hist.stats();
  EXPECT_EQ(quiesced.bucketTotal(), quiesced.count);
}

// ------------------------------------------------- exact merge algebra

TEST(TelemetryMerge, ThreadCountInvariantRecording) {
  // The same multiset of values recorded by 1 thread and by 4 threads
  // (disjoint partition) yields bit-identical stats — the histogram is
  // exact integer state, so sharding cannot perturb it.
  std::vector<std::uint64_t> values;
  Rng rng(77);
  for (std::size_t i = 0; i < 40000; ++i) values.push_back(rng.below(1 << 20));

  Histogram serial;
  for (std::uint64_t v : values) serial.record(v);

  Histogram parallel;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&parallel, &values, t] {
      for (std::size_t i = t; i < values.size(); i += 4) {
        parallel.record(values[i]);
      }
    });
  }
  for (auto& w : workers) w.join();

  const HistogramStats a = serial.stats();
  const HistogramStats b = parallel.stats();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(TelemetryMerge, MergeIsAssociativeAndCommutative) {
  const auto fill = [](std::uint64_t seed, std::size_t n) {
    Histogram h;
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) h.record(rng.below(1 << 18));
    return h.stats();
  };
  const HistogramStats a = fill(1, 1000);
  const HistogramStats b = fill(2, 3000);
  const HistogramStats c = fill(3, 500);

  HistogramStats leftFold = a;
  leftFold.merge(b);
  leftFold.merge(c);
  HistogramStats rightFold = b;
  rightFold.merge(c);
  HistogramStats viaRight = a;
  viaRight.merge(rightFold);
  HistogramStats reversed = c;
  reversed.merge(b);
  reversed.merge(a);

  for (const HistogramStats* s : {&viaRight, &reversed}) {
    EXPECT_EQ(leftFold.count, s->count);
    EXPECT_EQ(leftFold.sum, s->sum);
    EXPECT_EQ(leftFold.min, s->min);
    EXPECT_EQ(leftFold.max, s->max);
    EXPECT_EQ(leftFold.buckets, s->buckets);
  }
  // Merging an empty histogram is the identity.
  HistogramStats withEmpty = leftFold;
  withEmpty.merge(HistogramStats{});
  EXPECT_EQ(withEmpty.buckets, leftFold.buckets);
  EXPECT_EQ(withEmpty.min, leftFold.min);
  EXPECT_EQ(withEmpty.count, leftFold.count);
}

// ------------------------------------------------- registry semantics

TEST(TelemetryRegistry, AggregatesSameNameAndRetainsRetiredOwners) {
  MetricsRegistry registry;
  const auto a = registry.counter("x.events");
  a->add(7);
  {
    // Second owner of the same name: the registry keeps its counts
    // after the owner drops its handle (monotonic aggregates).
    const auto b = registry.counter("x.events");
    b->add(5);
  }
  registry.gauge("x.level")->add(3);
  registry.histogram("x.ns")->record(100);
  registry.histogram("x.ns")->record(200);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_NE(snap.counter("x.events"), nullptr);
  EXPECT_EQ(*snap.counter("x.events"), 12u);
  ASSERT_NE(snap.gauge("x.level"), nullptr);
  EXPECT_EQ(*snap.gauge("x.level"), 3);
  ASSERT_NE(snap.histogram("x.ns"), nullptr);
  EXPECT_EQ(snap.histogram("x.ns")->count, 2u);
  EXPECT_EQ(snap.histogram("x.ns")->sum, 300u);
  EXPECT_GT(snap.unixMs, 0);
  EXPECT_EQ(snap.counter("no.such"), nullptr);
}

TEST(TelemetryRegistry, JsonExportRoundTripsTheSchemaShape) {
  MetricsRegistry registry;
  registry.counter("a.count")->add(2);
  registry.gauge("a.depth")->add(-4);
  registry.histogram("a.ns")->record(50);
  std::ostringstream pretty;
  std::ostringstream compact;
  registry.snapshot().writeJson(pretty, /*pretty=*/true);
  registry.snapshot().writeJson(compact, /*pretty=*/false);
  EXPECT_NE(pretty.str().find("\"schema\": \"meshrt.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(pretty.str().find("\"a.depth\": -4"), std::string::npos);
  // Compact mode is single-line JSONL: exactly one trailing newline.
  EXPECT_EQ(compact.str().find('\n'), compact.str().size() - 1);
  EXPECT_NE(compact.str().find("meshrt.metrics.v1"), std::string::npos);
}

TEST(TelemetryTraceSpan, NullHistogramIsInert) {
  TraceSpan inert(static_cast<Histogram*>(nullptr));
  inert.stop();  // no-op, no crash
  Histogram hist;
  {
    TraceSpan span(&hist);
    span.stop();
    span.stop();  // second stop records nothing
  }
  EXPECT_EQ(hist.stats().count, 1u);
}

// ------------------------------------------------- service wiring

TEST(TelemetryService, InstrumentsMatchAccessorCountersAndStagesFill) {
  const Mesh2D mesh = Mesh2D::square(16);
  Rng rng(15);
  const FaultSet faults = injectUniform(mesh, 12, rng);

  MetricsRegistry registry;
  ServiceConfig cfg;
  cfg.routerKey = "ecube";
  cfg.threads = 2;
  cfg.telemetry.enabled = true;
  cfg.telemetry.registry = &registry;
  RouteService service(faults, cfg);

  std::vector<Query> batch;
  for (std::size_t i = 0; i < 64; ++i) {
    batch.push_back({randomHealthy(faults, rng), randomHealthy(faults, rng)});
  }
  service.serve(batch);
  service.applyAddFault(randomHealthy(faults, rng));

  const ServiceCounters counters = service.counters();
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_NE(snap.counter("service.queries_served"), nullptr);
  EXPECT_EQ(*snap.counter("service.queries_served"), counters.queriesServed);
  EXPECT_EQ(counters.queriesServed, batch.size());
  ASSERT_NE(snap.counter("service.snapshots_published"), nullptr);
  EXPECT_EQ(*snap.counter("service.snapshots_published"),
            counters.snapshotsPublished);
  ASSERT_NE(snap.counter("service.columns_compiled"), nullptr);
  EXPECT_EQ(*snap.counter("service.columns_compiled"),
            counters.columnsCompiled);
  // The labeler's relabel work from the applied fault flows through.
  ASSERT_NE(snap.counter("labeler.cells_relabeled"), nullptr);
  // Stage histograms saw the serve and the publish.
  for (const char* stage : {"serve.classify_ns", "serve.chase_ns",
                            "publish.label_patch_ns",
                            "publish.epoch_swap_ns"}) {
    const HistogramStats* stats = snap.histogram(stage);
    ASSERT_NE(stats, nullptr) << stage;
    EXPECT_GT(stats->count, 0u) << stage;
    EXPECT_EQ(stats->bucketTotal(), stats->count) << stage;
  }
  ASSERT_NE(snap.counter("pool.jobs_executed"), nullptr);
}

TEST(TelemetryService, DisabledKeepsCountersButDropsStageHistograms) {
  const Mesh2D mesh = Mesh2D::square(16);
  Rng rng(16);
  const FaultSet faults = injectUniform(mesh, 10, rng);

  MetricsRegistry registry;
  ServiceConfig cfg;
  cfg.routerKey = "ecube";
  cfg.telemetry.enabled = false;  // the MESHRT_TELEMETRY=off mode
  cfg.telemetry.registry = &registry;
  RouteService service(faults, cfg);
  std::vector<Query> batch{{randomHealthy(faults, rng),
                            randomHealthy(faults, rng)}};
  service.serve(batch);
  service.applyAddFault(randomHealthy(faults, rng));

  const MetricsSnapshot snap = registry.snapshot();
  // Counters stay live (they back counters() and admission control)...
  ASSERT_NE(snap.counter("service.queries_served"), nullptr);
  EXPECT_EQ(*snap.counter("service.queries_served"), 1u);
  // ...but no stage histogram was minted, so no clock ran on the hot
  // path — the A/B axis really removes the instrumentation cost.
  EXPECT_TRUE(snap.histograms.empty());
}

// ------------------------------------------------- fleet gauge oracle

/// Gate for stalling shard appliers via FleetConfig::applyHook.
struct ApplierGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  int arrived = 0;

  void block() {
    std::unique_lock<std::mutex> lock(mutex);
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
  }
  bool awaitArrival() {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [this] { return arrived > 0; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex);
    open = true;
    cv.notify_all();
  }
};

TEST(TelemetryFleet, EpochLagGaugeMatchesWriterQueueOracle) {
  // The admission fix under test: overloaded() reads the continuously
  // maintained epoch-lag gauge, and that gauge must agree with the
  // mutex-sampled writerQueueDepth oracle both mid-backlog (applier
  // gated while holding one event) and at quiescence.
  const Mesh2D mesh = Mesh2D::square(32);
  const FaultSet faults(mesh);

  MetricsRegistry registry;
  FleetConfig cfg;
  cfg.service.routerKey = "ecube";
  cfg.service.threads = 1;
  cfg.service.telemetry.registry = &registry;
  cfg.grid = 2;
  cfg.halo = 2;
  cfg.maxWriterQueue = 2;
  cfg.overload = OverloadPolicy::Shed;
  ApplierGate gate;
  cfg.applyHook = [&gate](std::size_t shard) {
    if (shard == 0) gate.block();
  };
  ServiceFleet fleet(faults, cfg);

  // Four events on cells deep inside shard 0's owned rect (outside
  // every neighbor's halo), so only shard 0's queue moves. The applier
  // dequeues the first and stalls in the gate: 3 queued + 1 busy.
  const std::vector<Point> cells{{4, 4}, {5, 5}, {6, 6}, {7, 7}};
  for (const Point& p : cells) fleet.submitAddFault(p);
  ASSERT_TRUE(gate.awaitArrival());

  EXPECT_EQ(fleet.writerQueueDepth(0), 4u);
  MetricsSnapshot snap = registry.snapshot();
  ASSERT_NE(snap.gauge("fleet.shard0.epoch_lag"), nullptr);
  EXPECT_EQ(*snap.gauge("fleet.shard0.epoch_lag"), 4);
  ASSERT_NE(snap.gauge("fleet.shard0.queue_depth"), nullptr);
  EXPECT_EQ(*snap.gauge("fleet.shard0.queue_depth"), 3);
  // Admission control sees the backlog (4 > maxWriterQueue=2) and
  // sheds queries touching shard 0 while it stands.
  EXPECT_TRUE(fleet.overloaded(0));
  EXPECT_FALSE(fleet.overloaded(1));
  const std::vector<Query> probe{{{3, 3}, {9, 9}}};
  const FleetBatchResult result = fleet.serve(probe);
  EXPECT_EQ(result.flags[0] & kFleetFlagShed, kFleetFlagShed);

  gate.release();
  fleet.drainWriters();

  EXPECT_EQ(fleet.writerQueueDepth(0), 0u);
  EXPECT_FALSE(fleet.overloaded(0));
  snap = registry.snapshot();
  EXPECT_EQ(*snap.gauge("fleet.shard0.epoch_lag"), 0);
  EXPECT_EQ(*snap.gauge("fleet.shard0.queue_depth"), 0);
  ASSERT_NE(snap.gauge("fleet.shard0.epoch"), nullptr);
  EXPECT_EQ(*snap.gauge("fleet.shard0.epoch"),
            static_cast<std::int64_t>(fleet.shard(0).epoch()));
  ASSERT_NE(snap.counter("fleet.events_applied"), nullptr);
  EXPECT_EQ(*snap.counter("fleet.events_applied"),
            fleet.counters().eventsApplied);
}

TEST(TelemetryFleet, ServeFillsFleetInstruments) {
  const Mesh2D mesh = Mesh2D::square(32);
  Rng rng(33);
  const FaultSet faults = injectUniform(mesh, 20, rng);

  MetricsRegistry registry;
  FleetConfig cfg;
  cfg.service.routerKey = "ecube";
  cfg.service.threads = 1;
  cfg.service.telemetry.enabled = true;
  cfg.service.telemetry.registry = &registry;
  cfg.grid = 2;
  ServiceFleet fleet(faults, cfg);

  // Intra batch in shard 0 plus a guaranteed cross-shard query.
  std::vector<Query> batch{{{2, 2}, {10, 10}}, {{3, 3}, {28, 28}}};
  const FleetBatchResult result = fleet.serve(batch);
  ASSERT_EQ(result.size(), batch.size());

  const FleetCounters counters = fleet.counters();
  EXPECT_EQ(counters.intraQueries, 1u);
  EXPECT_EQ(counters.crossQueries, 1u);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(*snap.counter("fleet.queries_intra"), counters.intraQueries);
  EXPECT_EQ(*snap.counter("fleet.queries_cross"), counters.crossQueries);
  if (result.delivered(1)) {
    EXPECT_GE(counters.stitchSegments, 2u);
    EXPECT_EQ(*snap.counter("fleet.stitch_segments"),
              counters.stitchSegments);
  }
  const HistogramStats* serve = snap.histogram("fleet.serve_ns");
  ASSERT_NE(serve, nullptr);
  EXPECT_EQ(serve->count, 1u);
  ASSERT_NE(snap.histogram("fleet.stitch_ns"), nullptr);
  EXPECT_EQ(snap.histogram("fleet.stitch_ns")->count, 1u);
}

// ------------------------------------------------- noc flit ledger

TEST(TelemetryNoc, FlitLedgerBalancesOnDrainAndAfterKills) {
  const Mesh2D mesh = Mesh2D::square(8);
  FaultSet faults(mesh);
  EcubeRouter router(faults);

  MetricsRegistry registry;
  NocConfig cfg;
  cfg.packetLength = 4;
  cfg.telemetry.flitsInjected = registry.counter("noc.flits_injected");
  cfg.telemetry.flitsDelivered = registry.counter("noc.flits_delivered");
  cfg.telemetry.flitsKilled = registry.counter("noc.flits_killed");
  NocNetwork net(faults, router, cfg);

  Rng rng(8);
  TrafficGenerator gen(mesh, TrafficPattern::UniformRandom, 0.05, rng);
  std::size_t packets = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (auto [s, d] : gen.tick()) {
      if (net.inject(s, d)) ++packets;
    }
    net.step();
  }
  // Mid-flight kill: victims move from the in-flight column of the
  // ledger to flits_killed, never vanishing. Packets stranded behind
  // the dead node are taken by deadlock recovery during the drain.
  net.failNode({4, 4});
  ASSERT_TRUE(net.drain());

  const MetricsSnapshot snap = registry.snapshot();
  const std::uint64_t injected = *snap.counter("noc.flits_injected");
  const std::uint64_t delivered = *snap.counter("noc.flits_delivered");
  const std::uint64_t killed = *snap.counter("noc.flits_killed");
  EXPECT_EQ(injected, packets * cfg.packetLength);
  EXPECT_EQ(killed, net.killedPackets() * cfg.packetLength);
  // Every injected flit is accounted for: ejected, killed by the node
  // failure, or removed with a recovery-aborted packet.
  EXPECT_EQ(injected, delivered + killed +
                          net.recoveredPackets() * cfg.packetLength);
}

}  // namespace
}  // namespace meshrt
