// The two cache claims perfbench reports only as hit ratios, measured as
// speedups and written to BENCH_cache.json:
//
//  - Frame cache (docs/SERVER.md §4): window queries against one
//    TraceService whose byte budget holds every decoded frame. "cold"
//    tiles the whole run through an emptied cache, so every query
//    decodes from the file; "warm" replays a small working set that
//    stays resident, a viewer panning around one region.
//  - Router reply cache (docs/FEDERATION.md): one window mix through a
//    uterouter over a fleet of backends, hot-set reply cache off and on.
//
// Latency and throughput under a realistic mix, the router hop, fan-out
// and the fleet's hit ratios are perfbench query-zipf's `server.*` and
// `fed.*` metrics. Then microbenchmarks of one warm and one cold window.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fed/router_server.h"
#include "interval/standard_profile.h"
#include "server/client.h"
#include "server/server.h"
#include "slog/slog_writer.h"
#include "trace/events.h"
#include "workloads/workloads.h"

namespace {

using namespace ute;
using benchutil::JsonObject;

struct RunStats {
  double queriesPerSec = 0;
  double p99Us = 0;
};

/// Runs query(0..count-1), timing each call.
template <typename Query>
RunStats timeQueries(int count, const Query& query) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(count));
  const auto total0 = benchutil::now();
  for (int i = 0; i < count; ++i) {
    const auto t0 = benchutil::now();
    query(i);
    us.push_back(benchutil::secondsSince(t0) * 1e6);
  }
  const double totalSeconds = benchutil::secondsSince(total0);
  std::sort(us.begin(), us.end());
  RunStats stats;
  stats.queriesPerSec = static_cast<double>(us.size()) / totalSeconds;
  stats.p99Us = us[static_cast<std::size_t>(
      static_cast<double>(us.size() - 1) * 0.99)];
  return stats;
}

double hitPercent(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t lookups = hits + misses;
  return lookups == 0 ? 0
                      : 100.0 * static_cast<double>(hits) /
                            static_cast<double>(lookups);
}

JsonObject statsRow(const char* key, const char* value, const RunStats& s,
                    double hitRate) {
  JsonObject row;
  row.add(key, value)
      .add("queries_per_second", s.queriesPerSec, 0)
      .add("p99_us", s.p99Us, 1)
      .add("cache_hit_rate", hitRate, 1);
  return row;
}

// --- frame cache -------------------------------------------------------------

std::string gSlog;
Tick gStart = 0;
Tick gEnd = 0;

/// The first `count` of 32 windows, each ~1/32 of the run: all 32 tile
/// the run, the first 8 cover its first quarter.
std::vector<WindowQuery> windows(int count) {
  std::vector<WindowQuery> out;
  const Tick span = (gEnd - gStart) / 32;
  for (int i = 0; i < count; ++i) {
    WindowQuery q;
    q.t0 = gStart + i * span;
    q.t1 = std::min(gEnd, q.t0 + span + 1);
    out.push_back(q);
  }
  return out;
}

void frameCache(JsonObject& doc) {
  TestProgramOptions workload;
  workload.iterations = 1200;
  PipelineOptions options;
  options.dir = makeScratchDir("bench_cache");
  options.name = "serve";
  options.slog.recordsPerFrame = 256;  // plenty of frames to cache
  gSlog = runPipeline(testProgram(workload), options).slogFile;

  // The budget is the decoded size of every frame, so "cold" measures
  // decoding, not eviction.
  std::size_t allFrameBytes = 0;
  std::size_t frames = 0;
  {
    TraceService probe({gSlog});
    gStart = probe.trace(0).totalStart();
    gEnd = probe.trace(0).totalEnd();
    frames = probe.trace(0).frameIndex().size();
    for (std::size_t f = 0; f < frames; ++f) {
      allFrameBytes += FrameCache::frameBytes(*probe.frame(0, f));
    }
  }
  ServiceOptions serviceOptions;
  serviceOptions.cacheBytes = allFrameBytes;
  TraceService service({gSlog}, serviceOptions);

  constexpr int kPasses = 8;
  const std::vector<WindowQuery> tiling = windows(32);
  const std::vector<WindowQuery> workingSet = windows(8);
  const FrameCache::Stats start = service.cache().stats();
  const RunStats cold = timeQueries(
      kPasses * static_cast<int>(tiling.size()), [&](int i) {
        if (i % static_cast<int>(tiling.size()) == 0) service.cache().clear();
        benchmark::DoNotOptimize(
            service.window(0, tiling[static_cast<std::size_t>(i) % 32]));
      });
  const FrameCache::Stats before = service.cache().stats();
  const double coldHits =
      hitPercent(before.hits - start.hits, before.misses - start.misses);
  for (const WindowQuery& q : workingSet) service.window(0, q);  // prime
  const FrameCache::Stats primed = service.cache().stats();
  const RunStats warm = timeQueries(
      32 * static_cast<int>(workingSet.size()), [&](int i) {
        benchmark::DoNotOptimize(
            service.window(0, workingSet[static_cast<std::size_t>(i) % 8]));
      });
  const FrameCache::Stats after = service.cache().stats();
  const double warmHits =
      hitPercent(after.hits - primed.hits, after.misses - primed.misses);
  const double speedup = warm.queriesPerSec / cold.queriesPerSec;

  std::printf("=== Frame cache: warm working set vs cold ===\n");
  std::printf("(%zu frames, %.1f KiB decoded = the budget; windows span "
              "~1/32 run)\n",
              frames, static_cast<double>(allFrameBytes) / 1024);
  std::printf("%6s %12s %10s %7s\n", "phase", "q/s", "p99", "hit%");
  std::printf("%6s %12.0f %8.1fus %6.1f%%\n", "cold", cold.queriesPerSec,
              cold.p99Us, coldHits);
  std::printf("%6s %12.0f %8.1fus %6.1f%%\n", "warm", warm.queriesPerSec,
              warm.p99Us, warmHits);
  std::printf("warm/cold: %.1fx %s\n\n", speedup,
              speedup > 1 ? "(warm faster, as required)"
                          : "(WARM NOT FASTER THAN COLD)");

  doc.add("frame_cache_workload",
          "window queries against one TraceService; test program on 4 "
          "nodes, 256 records per frame")
      .add("frame_cache_frames", frames)
      .add("frame_cache_budget_bytes", allFrameBytes)
      .add("frame_cache", std::vector<JsonObject>{
                              statsRow("phase", "cold", cold, coldHits),
                              statsRow("phase", "warm", warm, warmHits)})
      .add("frame_cache_warm_over_cold", speedup, 2);
}

// --- router reply cache ------------------------------------------------------

constexpr int kBackends = 4;
constexpr int kRecordsPerTrace = 600;
constexpr int kRouterQueries = 400;

std::string backendSlog(const std::string& dir, int index) {
  const std::string path =
      (std::filesystem::path(dir) / ("backend" + std::to_string(index) +
                                     ".slog"))
          .string();
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.recordsPerFrame = 64;
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {{2, "compute"}});
  for (int i = 0; i < kRecordsPerTrace; ++i) {
    const Tick start = static_cast<Tick>(i) * kMs;
    ByteWriter extra;
    extra.u64(start);
    w.addRecord(RecordView::parse(
        encodeRecordBody(makeIntervalType(kRunningState, Bebits::kComplete),
                         start, kMs / 2, 0, (i + index) % 2, 0, extra.view())
            .view()));
  }
  w.close();
  return path;
}

/// A live fleet: one backend per trace, plus a router.
struct Fleet {
  std::vector<std::unique_ptr<TraceServer>> backends;
  std::unique_ptr<RouterService> service;
  std::unique_ptr<RouterServer> router;
  std::vector<std::uint32_t> globalIds;

  Fleet(const std::vector<std::string>& paths, bool cache) {
    RouterOptions options;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      backends.push_back(std::make_unique<TraceServer>(
          std::vector<std::string>{paths[i]}));
      BackendSpec spec;
      spec.name = "b" + std::to_string(i);
      spec.host = "127.0.0.1";
      spec.port = backends.back()->port();
      options.backends.push_back(spec);
    }
    options.healthIntervalMs = 0;  // no background probes during timing
    options.cacheBytes = cache ? (32u << 20) : 0;
    service = std::make_unique<RouterService>(options);
    router = std::make_unique<RouterServer>(*service, 0);
    TraceClient client("127.0.0.1", router->port());
    for (const FedTraceEntry& e : client.listTraces()) {
      globalIds.push_back(e.globalId);
    }
  }

  ~Fleet() {
    if (router) router->stop();
    if (service) service->stop();
  }
};

/// Deterministic window mix.
WindowQuery windowFor(int i) {
  WindowQuery q;
  q.t0 = static_cast<Tick>((i * 37) % 400) * kMs;
  q.t1 = q.t0 + static_cast<Tick>(20 + (i * 11) % 80) * kMs;
  return q;
}

void routerCache(JsonObject& doc) {
  const std::string dir = makeScratchDir("bench_cache_fleet");
  std::vector<std::string> paths;
  for (int i = 0; i < kBackends; ++i) paths.push_back(backendSlog(dir, i));

  std::printf("=== Router reply cache: off vs on ===\n");
  std::printf("(%d window queries round-robin over %d backends, %d records "
              "per trace)\n",
              kRouterQueries, kBackends, kRecordsPerTrace);
  std::printf("%6s %12s %10s %7s\n", "cache", "q/s", "p99", "hit%");
  std::vector<JsonObject> rows;
  double queriesPerSec[2] = {0, 0};
  for (const bool cache : {false, true}) {
    Fleet fleet(paths, cache);
    TraceClient client("127.0.0.1", fleet.router->port());
    // Touch every trace once so connect/hello and backend frame decodes
    // stay out of the timed loop.
    for (std::uint32_t id : fleet.globalIds) client.window(id, windowFor(0));
    const RunStats s = timeQueries(kRouterQueries, [&](int i) {
      const std::uint32_t id = fleet.globalIds[static_cast<std::size_t>(i) %
                                               fleet.globalIds.size()];
      benchmark::DoNotOptimize(client.window(id, windowFor(i % 8)));
    });
    const CacheStats stats = fleet.service->cacheStats();
    const double hits = hitPercent(stats.hits, stats.misses);
    queriesPerSec[cache] = s.queriesPerSec;
    std::printf("%6s %12.0f %8.1fus %6.1f%%\n", cache ? "on" : "off",
                s.queriesPerSec, s.p99Us, hits);
    rows.push_back(statsRow("router_cache", cache ? "on" : "off", s, hits));
  }
  const double speedup = queriesPerSec[1] / queriesPerSec[0];
  std::printf("on/off: %.2fx %s\n\n", speedup,
              speedup > 1 ? "(cache on faster, as required)"
                          : "(CACHE ON NOT FASTER THAN OFF)");

  doc.add("router_cache_workload",
          "window queries round-robin over single-trace backends through "
          "uterouter")
      .add("router_cache_backends", kBackends)
      .add("router_cache_queries", kRouterQueries)
      .add("router_cache", rows)
      .add("router_cache_on_over_off", speedup, 2);
}

void BM_WindowWarm(benchmark::State& state) {
  TraceService service({gSlog});
  const WindowQuery q = windows(1).front();
  benchmark::DoNotOptimize(service.window(0, q));  // prime
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.window(0, q));
  }
}
BENCHMARK(BM_WindowWarm)->Unit(benchmark::kMicrosecond);

void BM_WindowCold(benchmark::State& state) {
  TraceService service({gSlog});
  const WindowQuery q = windows(1).front();
  for (auto _ : state) {
    service.cache().clear();
    benchmark::DoNotOptimize(service.window(0, q));
  }
}
BENCHMARK(BM_WindowCold)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  JsonObject doc;
  frameCache(doc);
  routerCache(doc);
  ute::benchutil::writeBenchFile("BENCH_cache.json", doc);
  return ute::benchutil::runBenchmarks(argc, argv);
}
