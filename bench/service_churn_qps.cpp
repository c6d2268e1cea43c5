// Overlapped route-service throughput: N reader threads each serving
// their own batches concurrently — against one RouteService and one
// shared worker pool — while a churn writer applies fault events the
// whole time. The headline is aggregate QPS across all readers: this is
// the scenario the per-batch TaskGroup executor exists for (a global
// pool barrier makes every batch wait for every other batch's jobs and
// the writer's patch jobs; per-group waits let them interleave).
//
// The writer side is instrumented too: every applyAdd/RemoveFault call
// is timed and the p50/p99 publish latencies are reported per row —
// this is the number the copy-on-write paged storage exists for (see
// DESIGN.md section 9).
//
//   ./service_churn_qps --meshes 64 --readers 4 --threads 4
//   ./service_churn_qps --meshes 256,512 --readers 0 --writers 1
//       --events 200                     # writer-only publish latency
//   ./service_churn_qps --smoke          # seconds-fast CI configuration
//
// The writers=0 row measures pure serve/serve overlap; the writers=1 row
// adds continuous fault churn (epoch builds + column patches) under the
// readers. --readers 0 flips to the writer-only mode: no serving, each
// writer applies a fixed --events share — the cleanest view of the
// storage layer's publish cost, since no column patches or reader
// contention blur the percentiles. Compare against bench/service_qps.cpp
// for the single-caller static path. See docs/REPRODUCING.md.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <thread>

#include "common/cli.h"
#include "common/rng.h"
#include "fault/injectors.h"
#include "harness/bench_main.h"
#include "service/route_service.h"

namespace {

using namespace meshrt;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile (q in [0, 100]) of SORTED samples; 0 when
/// empty.
double percentileUs(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace meshrt;
  CliFlags flags;
  flags.define("meshes", "64", "comma-separated mesh side lengths");
  flags.define("fault-rate", "0.10", "initial fault fraction of nodes");
  flags.define("router", "rb2", "registry key the tables compile");
  flags.define("threads", "4", "service worker threads (0 = all cores)");
  flags.define("readers", "4",
               "concurrent reader threads (one batch each); 0 = writer-only "
               "publish-latency mode (needs --writers >= 1)");
  flags.define("events", "200",
               "fault events per row in the writer-only mode (--readers 0)");
  flags.define("writers", "0,1",
               "comma-separated churn-writer counts per row (0 = overlap "
               "only, 1 = overlap + live fault churn)");
  flags.define("queries", "20000", "queries per served batch");
  flags.define("dests", "64", "distinct destinations in the shared pool");
  flags.define("rounds", "8", "measured batches per reader");
  flags.define("seed", "2007", "master random seed");
  flags.define("smoke", "false",
               "tiny configuration (16x16, 2 readers) for CI smoke runs");
  flags.define("format", "table", "output format: table, csv or json");
  flags.define("out", "",
               "also write the result to this file (.csv/.json pick the "
               "format by extension)");
  defineMetricsFlags(flags);
  if (!flags.parse(argc, argv)) return 1;

  const bool smoke = flags.boolean("smoke");
  std::vector<std::size_t> meshes;
  for (const std::string& item :
       splitCommaList(smoke ? "16" : flags.str("meshes"))) {
    meshes.push_back(parseCount(item, "meshes"));
  }
  std::vector<std::size_t> writerCounts;
  for (const std::string& item : splitCommaList(flags.str("writers"))) {
    writerCounts.push_back(parseCount(item, "writers"));
  }
  const std::size_t readers =
      smoke ? 2 : static_cast<std::size_t>(flags.integer("readers"));
  const std::size_t queries =
      smoke ? 2000 : static_cast<std::size_t>(flags.integer("queries"));
  const std::size_t destCount =
      smoke ? 12 : static_cast<std::size_t>(flags.integer("dests"));
  const std::size_t rounds =
      smoke ? 3 : static_cast<std::size_t>(flags.integer("rounds"));
  const double faultRate = flags.real("fault-rate");
  const std::string routerKey = flags.str("router");
  const auto threads = static_cast<std::size_t>(flags.integer("threads"));
  const auto seed = static_cast<std::uint64_t>(flags.integer("seed"));
  const auto eventTarget =
      static_cast<std::size_t>(flags.integer("events"));
  if (!RouterRegistry::global().contains(routerKey)) {
    std::cerr << "unknown --router '" << routerKey << "'\n";
    return 1;
  }
  if (rounds == 0 || queries == 0) {
    std::cerr << "--rounds and --queries must be positive\n";
    return 1;
  }
  if (readers == 0) {
    if (eventTarget == 0) {
      std::cerr << "--events must be positive with --readers 0\n";
      return 1;
    }
    for (std::size_t writerCount : writerCounts) {
      if (writerCount == 0) {
        std::cerr << "--readers 0 (writer-only mode) needs --writers >= 1\n";
        return 1;
      }
    }
  }

  if (wantsBanner(flags)) {
    std::cout << "Overlapped route-service QPS: " << readers
              << " concurrent readers x " << rounds << " batches x "
              << queries << " queries, router " << routerKey
              << ", threads=" << threads
              << "\n(agg_qps = total served queries / wall time while all "
                 "readers and the churn writer overlap)\n\n";
  }

  // Periodic JSONL metrics dump (inert unless --metrics-out AND
  // --metrics-every are set); the final snapshot lands after the table.
  MetricsDumper metricsDumper(
      flags.str("metrics-out"),
      static_cast<std::uint64_t>(flags.integer("metrics-every")));

  Table table({"mesh", "readers", "writers", "agg_qps", "reader_qps",
               "events", "events/s", "pub_p50_us", "pub_p99_us",
               "delivered"});
  for (std::size_t meshSize : meshes) {
    const Mesh2D mesh = Mesh2D::square(static_cast<Coord>(meshSize));
    Rng rng = Rng::forStream(seed, meshSize);
    const auto faultCount = static_cast<std::size_t>(
        static_cast<double>(mesh.nodeCount()) * faultRate);
    const FaultSet faults = injectUniform(mesh, faultCount, rng);

    // A shared destination pool (traffic concentrates on popular
    // endpoints); each reader draws its own sources.
    std::vector<Point> destPool;
    for (std::size_t i = 0; i < destCount; ++i) {
      destPool.push_back(randomHealthy(faults, rng));
    }
    std::vector<std::vector<Query>> batches(readers);
    for (std::size_t r = 0; r < readers; ++r) {
      Rng readerRng = Rng::forStream(seed ^ 0xBEEF, meshSize * 131 + r);
      batches[r].reserve(queries);
      for (std::size_t i = 0; i < queries; ++i) {
        batches[r].push_back(
            {randomHealthy(faults, readerRng), destPool[i % destPool.size()]});
      }
    }

    for (std::size_t writers : writerCounts) {
      ServiceConfig cfg;
      cfg.routerKey = routerKey;
      cfg.threads = threads;
      RouteService service(faults, cfg);

      // Warm-up: compile the destination columns once, off the clock
      // (the writer-only mode serves nothing and compiles nothing — it
      // measures the pure epoch-publish cost).
      if (readers > 0) service.serve(batches.front(), /*wantPaths=*/false);

      std::atomic<bool> readersDone{false};
      std::atomic<std::uint64_t> delivered{0};
      std::atomic<std::uint64_t> events{0};
      const std::size_t eventShare =
          readers == 0 ? (eventTarget + writers - 1) / writers : 0;

      std::vector<std::thread> churners;
      std::vector<std::vector<double>> publishUs(writers);
      churners.reserve(writers);
      const auto writerStart = Clock::now();
      for (std::size_t w = 0; w < writers; ++w) {
        churners.emplace_back([&, w] {
          Rng churnRng =
              Rng::forStream(seed ^ 0xC0FFEE, meshSize * 31 + w);
          std::size_t applied = 0;
          while (readers == 0
                     ? applied < eventShare
                     : !readersDone.load(std::memory_order_relaxed)) {
            const Point p{
                static_cast<Coord>(churnRng.below(
                    static_cast<std::uint64_t>(mesh.width()))),
                static_cast<Coord>(churnRng.below(
                    static_cast<std::uint64_t>(mesh.height())))};
            // Repair standing faults, fail healthy nodes: density hovers.
            const auto eventStart = Clock::now();
            if (service.snapshot()->faults().isFaulty(p)) {
              service.applyRemoveFault(p);
            } else {
              service.applyAddFault(p);
            }
            publishUs[w].push_back(secondsSince(eventStart) * 1e6);
            ++applied;
            events.fetch_add(1, std::memory_order_relaxed);
            if (readers > 0) std::this_thread::yield();
          }
        });
      }

      double seconds = 0.0;
      std::uint64_t eventsInWindow = 0;
      if (readers == 0) {
        for (auto& t : churners) t.join();
        seconds = secondsSince(writerStart);
        eventsInWindow = events.load();
      } else {
        const auto start = Clock::now();
        std::vector<std::thread> serving;
        serving.reserve(readers);
        for (std::size_t r = 0; r < readers; ++r) {
          serving.emplace_back([&, r] {
            std::uint64_t ok = 0;
            for (std::size_t round = 0; round < rounds; ++round) {
              const BatchResult result =
                  service.serve(batches[r], /*wantPaths=*/false);
              for (std::size_t i = 0; i < result.size(); ++i) {
                ok += result.delivered(i) ? 1 : 0;
              }
            }
            delivered.fetch_add(ok, std::memory_order_relaxed);
          });
        }
        for (auto& t : serving) t.join();
        seconds = secondsSince(start);
        // Snapshot the event count inside the measured window: the writer
        // may complete more events between the readers draining and it
        // observing the stop flag, and those must not inflate events/s.
        eventsInWindow = events.load();
        readersDone.store(true);
        for (auto& t : churners) t.join();
      }

      std::vector<double> allPublishUs;
      for (const auto& perWriter : publishUs) {
        allPublishUs.insert(allPublishUs.end(), perWriter.begin(),
                            perWriter.end());
      }
      std::sort(allPublishUs.begin(), allPublishUs.end());

      const auto total =
          static_cast<double>(queries * rounds * readers);
      Table& row = table.row();
      row.cell(static_cast<std::int64_t>(meshSize));
      row.cell(static_cast<std::int64_t>(readers));
      row.cell(static_cast<std::int64_t>(writers));
      row.cell(total / seconds, 0);
      row.cell(readers == 0 ? 0.0
                            : total / seconds / static_cast<double>(readers),
               0);
      row.cell(static_cast<std::int64_t>(eventsInWindow));
      row.cell(static_cast<double>(eventsInWindow) / seconds, 1);
      row.cell(percentileUs(allPublishUs, 50.0), 1);
      row.cell(percentileUs(allPublishUs, 99.0), 1);
      row.cell(readers == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(delivered.load()) / total,
               2);
    }
  }
  metricsDumper.stop();
  emitResult(table, flags);
  emitMetricsSnapshot(flags);
  return 0;
}
