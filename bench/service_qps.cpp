// Route-query service throughput: batched queries/sec served from
// compiled next-hop tables (RouteService) vs the naive
// construct-router-per-query baseline, across mesh sizes and fault churn
// rates. The static rows measure steady-state serving; the dynamic rows
// interleave add/remove fault events between batches, so their QPS
// includes the epoch builds and entry patches the churn forces (and the
// patch counters show how little of each column an event recomputes).
//
//   ./service_qps --meshes 32,64 --threads 8 --churn 0,4
//   ./service_qps --smoke              # seconds-fast CI configuration
//
// The headline check: at 8 threads on a 64x64 mesh the table path must
// beat the naive path by >= 10x (see docs/REPRODUCING.md).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "common/cli.h"
#include "common/failpoint.h"
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

}  // namespace

int main(int argc, char** argv) {
  using namespace meshrt;
  CliFlags flags;
  flags.define("meshes", "64", "comma-separated mesh side lengths");
  flags.define("fault-rate", "0.10", "initial fault fraction of nodes");
  flags.define("router", "rb2", "registry key the tables compile");
  flags.define("threads", "0", "service worker threads (0 = all cores)");
  flags.define("queries", "100000", "queries per measured batch");
  flags.define("dests", "64", "distinct destinations in the batch");
  flags.define("batches", "5", "measured batches per row");
  flags.define("telemetry-ab", "0",
               "in-process telemetry A/B: run two services per row (stage "
               "histograms explicitly on vs off), alternate this many "
               "timed batch pairs milliseconds apart, and report the "
               "median per-pair overhead (0 = normal rows). Robust where "
               "a two-process env-var A/B drowns in machine noise");
  flags.define("failpoint-ab", "0",
               "in-process failpoint A/B: alternate this many timed batch "
               "pairs on ONE service — service.serve.fail armed at p:0 "
               "(never fires, but every serve pays the armed evaluation) "
               "vs fully disarmed (one relaxed load) — and report the "
               "median per-pair overhead (0 = normal rows). Guards the "
               "compiled-in-failpoints contract the same way "
               "--telemetry-ab guards the telemetry budget");
  flags.define("churn", "0,4",
               "comma-separated fault events applied between batches "
               "(0 = static serving)");
  flags.define("naive-queries", "20000",
               "queries timed for the construct-router-per-query baseline");
  flags.define("seed", "2007", "master random seed");
  flags.define("smoke", "false",
               "tiny configuration (16x16, 2k queries) for CI smoke runs");
  flags.define("format", "table", "output format: table, csv or json");
  flags.define("out", "",
               "also write the result to this file (.csv/.json pick the "
               "format by extension)");
  defineMetricsFlags(flags);
  if (!flags.parse(argc, argv)) return 1;

  const bool smoke = flags.boolean("smoke");
  std::vector<std::size_t> meshes;
  for (const std::string& item : splitCommaList(
           smoke ? "16" : flags.str("meshes"))) {
    meshes.push_back(parseCount(item, "meshes"));
  }
  std::vector<std::size_t> churnLevels;
  for (const std::string& item : splitCommaList(
           smoke ? "0,2" : flags.str("churn"))) {
    churnLevels.push_back(parseCount(item, "churn"));
  }
  const std::size_t queries =
      smoke ? 2000 : static_cast<std::size_t>(flags.integer("queries"));
  const std::size_t destCount =
      smoke ? 12 : static_cast<std::size_t>(flags.integer("dests"));
  const std::size_t batches =
      smoke ? 2 : static_cast<std::size_t>(flags.integer("batches"));
  const std::size_t naiveQueries = std::min(
      queries, smoke ? std::size_t{500}
                     : static_cast<std::size_t>(
                           flags.integer("naive-queries")));
  const double faultRate = flags.real("fault-rate");
  const std::string routerKey = flags.str("router");
  const auto abPairs =
      static_cast<std::size_t>(flags.integer("telemetry-ab"));
  const auto fpPairs =
      static_cast<std::size_t>(flags.integer("failpoint-ab"));
  const auto threads = static_cast<std::size_t>(flags.integer("threads"));
  const auto seed = static_cast<std::uint64_t>(flags.integer("seed"));
  if (!RouterRegistry::global().contains(routerKey)) {
    std::cerr << "unknown --router '" << routerKey << "'\n";
    return 1;
  }
  if (abPairs > 0 && fpPairs > 0) {
    std::cerr << "--telemetry-ab and --failpoint-ab are mutually "
                 "exclusive (one A/B per run)\n";
    return 1;
  }

  if (wantsBanner(flags)) {
    std::cout << "Route-service QPS: compiled tables vs "
                 "construct-router-per-query, router "
              << routerKey << ", " << queries << " queries x " << batches
              << " batches, " << destCount << " destinations, threads="
              << threads << "\n(compile = table build for the batch's "
                            "destinations; patched = columns patched "
                            "under churn)\n\n";
  }

  // Periodic JSONL metrics dump (inert unless --metrics-out AND
  // --metrics-every are set); the final snapshot lands after the table.
  MetricsDumper metricsDumper(
      flags.str("metrics-out"),
      static_cast<std::uint64_t>(flags.integer("metrics-every")));

  Table table(
      abPairs > 0
          ? std::vector<std::string>{"mesh", "churn", "pairs", "qps_on",
                                     "qps_off", "overhead_pct"}
      : fpPairs > 0
          ? std::vector<std::string>{"mesh", "churn", "pairs", "qps_armed",
                                     "qps_disarmed", "overhead_pct"}
          : std::vector<std::string>{"mesh", "churn", "compile_ms",
                                     "table_qps", "naive_qps", "speedup",
                                     "delivered", "patched", "entries/ev"});
  for (std::size_t meshSize : meshes) {
    const Mesh2D mesh = Mesh2D::square(static_cast<Coord>(meshSize));
    Rng rng = Rng::forStream(seed, meshSize);
    const auto faultCount = static_cast<std::size_t>(
        static_cast<double>(mesh.nodeCount()) * faultRate);
    const FaultSet faults = injectUniform(mesh, faultCount, rng);

    // One shared batch per mesh: sources anywhere healthy, destinations
    // from a pool (traffic concentrates on popular endpoints — the
    // regime tables exist for).
    std::vector<Point> destPool;
    for (std::size_t i = 0; i < destCount; ++i) {
      destPool.push_back(randomHealthy(faults, rng));
    }
    std::vector<Query> batch;
    batch.reserve(queries);
    for (std::size_t i = 0; i < queries; ++i) {
      batch.push_back(
          {randomHealthy(faults, rng), destPool[i % destPool.size()]});
    }

    // Naive baseline, measured once per mesh on the frozen fault set
    // (skipped in A/B mode, which compares the service against itself).
    double naiveSeconds = 1.0;
    std::size_t naiveDelivered = 0;
    if (abPairs == 0 && fpPairs == 0) {
      const FaultAnalysis fa(faults);
      const RouterContext ctx{&faults, &fa};
      // Prime lazily built state (quadrants) so the baseline isn't
      // charged for one-time analysis setup the service also skips.
      RouterRegistry::global().create(routerKey, ctx)->route(
          batch.front().s, batch.front().d);
      const auto start = Clock::now();
      for (std::size_t i = 0; i < naiveQueries; ++i) {
        const auto router = RouterRegistry::global().create(routerKey, ctx);
        naiveDelivered +=
            router->route(batch[i].s, batch[i].d).delivered ? 1 : 0;
      }
      naiveSeconds = secondsSince(start);
    }
    const double naiveQps =
        static_cast<double>(naiveQueries) / naiveSeconds;

    for (std::size_t churn : churnLevels) {
      if (abPairs > 0) {
        // In-process telemetry A/B: two services over the same fault set,
        // one with stage histograms on and one off (counters/gauges stay
        // live in both — that is the production contract). Each pair
        // times one batch on each service back to back, so the two
        // measurements sit milliseconds apart and slow machine drift
        // cancels inside the pair; the median across pairs then shrugs
        // off the fast jitter a two-process env-var A/B cannot escape.
        ServiceConfig cfgOn;
        cfgOn.routerKey = routerKey;
        cfgOn.threads = threads;
        cfgOn.telemetry.enabled = true;
        ServiceConfig cfgOff = cfgOn;
        cfgOff.telemetry.enabled = false;
        RouteService onSvc(faults, cfgOn);
        RouteService offSvc(faults, cfgOff);
        onSvc.serve(batch, /*wantPaths=*/false);   // compile + warm
        offSvc.serve(batch, /*wantPaths=*/false);

        Rng churnRng =
            Rng::forStream(seed ^ 0xC0FFEE, meshSize * 31 + churn);
        std::vector<double> overheadPcts, qpsOn, qpsOff;
        for (std::size_t p = 0; p < abPairs; ++p) {
          // Identical churn on both sides keeps the pair comparable.
          for (std::size_t e = 0; e < churn; ++e) {
            const Point pt{
                static_cast<Coord>(churnRng.below(
                    static_cast<std::uint64_t>(mesh.width()))),
                static_cast<Coord>(churnRng.below(
                    static_cast<std::uint64_t>(mesh.height())))};
            if (onSvc.snapshot()->faults().isFaulty(pt)) {
              onSvc.applyRemoveFault(pt);
              offSvc.applyRemoveFault(pt);
            } else {
              onSvc.applyAddFault(pt);
              offSvc.applyAddFault(pt);
            }
          }
          const auto onStart = Clock::now();
          onSvc.serve(batch, /*wantPaths=*/false);
          const double onSec = secondsSince(onStart);
          const auto offStart = Clock::now();
          offSvc.serve(batch, /*wantPaths=*/false);
          const double offSec = secondsSince(offStart);
          overheadPcts.push_back(100.0 * (onSec - offSec) / offSec);
          qpsOn.push_back(static_cast<double>(queries) / onSec);
          qpsOff.push_back(static_cast<double>(queries) / offSec);
        }
        const auto median = [](std::vector<double> v) {
          std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
          return v[v.size() / 2];
        };
        Table& row = table.row();
        row.cell(static_cast<std::int64_t>(meshSize));
        row.cell(static_cast<std::int64_t>(churn));
        row.cell(static_cast<std::int64_t>(abPairs));
        row.cell(median(qpsOn), 0);
        row.cell(median(qpsOff), 0);
        row.cell(median(overheadPcts), 2);
        continue;
      }
      if (fpPairs > 0) {
        // In-process failpoint A/B: ONE service, alternating batches with
        // service.serve.fail armed at probability 0 (armed evaluation on
        // every serve, but it can never fire — results are identical by
        // construction) vs fully disarmed (the one-relaxed-load fast
        // path). The pair sits milliseconds apart so machine drift
        // cancels, exactly like --telemetry-ab; the median overhead is
        // held to the <= 2% budget.
        FailpointArmScope armScope;
        Failpoint& fp =
            FailpointRegistry::global().point("service.serve.fail");
        FailpointSpec neverFires;
        neverFires.probability = 0.0;
        ServiceConfig cfg;
        cfg.routerKey = routerKey;
        cfg.threads = threads;
        RouteService service(faults, cfg);
        service.serve(batch, /*wantPaths=*/false);  // compile + warm

        Rng churnRng =
            Rng::forStream(seed ^ 0xC0FFEE, meshSize * 31 + churn);
        std::vector<double> overheadPcts, qpsArmed, qpsDisarmed;
        for (std::size_t p = 0; p < fpPairs; ++p) {
          for (std::size_t e = 0; e < churn; ++e) {
            const Point pt{
                static_cast<Coord>(churnRng.below(
                    static_cast<std::uint64_t>(mesh.width()))),
                static_cast<Coord>(churnRng.below(
                    static_cast<std::uint64_t>(mesh.height())))};
            if (service.snapshot()->faults().isFaulty(pt)) {
              service.applyRemoveFault(pt);
            } else {
              service.applyAddFault(pt);
            }
          }
          fp.arm(neverFires);
          const auto armedStart = Clock::now();
          service.serve(batch, /*wantPaths=*/false);
          const double armedSec = secondsSince(armedStart);
          fp.disarm();
          const auto offStart = Clock::now();
          service.serve(batch, /*wantPaths=*/false);
          const double offSec = secondsSince(offStart);
          overheadPcts.push_back(100.0 * (armedSec - offSec) / offSec);
          qpsArmed.push_back(static_cast<double>(queries) / armedSec);
          qpsDisarmed.push_back(static_cast<double>(queries) / offSec);
        }
        const auto median = [](std::vector<double> v) {
          std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
          return v[v.size() / 2];
        };
        Table& row = table.row();
        row.cell(static_cast<std::int64_t>(meshSize));
        row.cell(static_cast<std::int64_t>(churn));
        row.cell(static_cast<std::int64_t>(fpPairs));
        row.cell(median(qpsArmed), 0);
        row.cell(median(qpsDisarmed), 0);
        row.cell(median(overheadPcts), 2);
        continue;
      }
      ServiceConfig cfg;
      cfg.routerKey = routerKey;
      cfg.threads = threads;
      RouteService service(faults, cfg);

      // Compile phase: first serve builds every needed column.
      const auto compileStart = Clock::now();
      service.serve(batch, /*wantPaths=*/false);
      const double compileMs = secondsSince(compileStart) * 1000.0;

      Rng churnRng = Rng::forStream(seed ^ 0xC0FFEE, meshSize * 31 + churn);
      const auto before = service.counters();
      std::size_t delivered = 0;
      const auto start = Clock::now();
      for (std::size_t b = 0; b < batches; ++b) {
        if (b > 0) {
          for (std::size_t e = 0; e < churn; ++e) {
            const Point p{
                static_cast<Coord>(churnRng.below(
                    static_cast<std::uint64_t>(mesh.width()))),
                static_cast<Coord>(churnRng.below(
                    static_cast<std::uint64_t>(mesh.height())))};
            // Repair standing faults, fail healthy nodes: density hovers.
            if (service.snapshot()->faults().isFaulty(p)) {
              service.applyRemoveFault(p);
            } else {
              service.applyAddFault(p);
            }
          }
        }
        const BatchResult result =
            service.serve(batch, /*wantPaths=*/false);
        for (std::size_t i = 0; i < result.size(); ++i) {
          delivered += result.delivered(i) ? 1 : 0;
        }
      }
      const double seconds = secondsSince(start);
      const auto after = service.counters();
      const double tableQps =
          static_cast<double>(queries * batches) / seconds;
      const std::size_t events = churn * (batches - 1);

      Table& row = table.row();
      row.cell(static_cast<std::int64_t>(meshSize));
      row.cell(static_cast<std::int64_t>(churn));
      row.cell(compileMs, 1);
      row.cell(tableQps, 0);
      row.cell(naiveQps, 0);
      row.cell(tableQps / naiveQps, 1);
      row.cell(100.0 * static_cast<double>(delivered) /
                   static_cast<double>(queries * batches),
               2);
      row.cell(static_cast<std::int64_t>(after.columnsPatched -
                                         before.columnsPatched));
      row.cell(events == 0
                   ? 0.0
                   : static_cast<double>(after.entriesPatched -
                                         before.entriesPatched) /
                         static_cast<double>(events),
               1);
    }
  }
  metricsDumper.stop();
  emitResult(table, flags);
  emitMetricsSnapshot(flags);
  return 0;
}
