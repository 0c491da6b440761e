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
//  - Bounded scans (docs/SERVER.md "window (6)"): a window and its
//    summary, cold and warm, beside a linear scan of every record of the
//    same cached frames. Every answer over two tilings of the run is
//    compared with that linear scan; a mismatch exits 1 before anything
//    is written, and the file records bounded_scan_identical.
//
// Latency and throughput under a realistic mix, the router hop, fan-out
// and the fleet's hit ratios are perfbench query-zipf's `server.*` and
// `fed.*` metrics. Then microbenchmarks of one warm and one cold window
// and summary.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
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

/// The first `count` of `parts` windows, each ~1/parts of the run: all
/// `parts` tile the run; of 32, the first 8 cover its first quarter.
std::vector<WindowQuery> windows(int count, Tick parts = 32) {
  std::vector<WindowQuery> out;
  const Tick span = (gEnd - gStart) / parts;
  for (int i = 0; i < count; ++i) {
    WindowQuery q;
    q.t0 = gStart + i * span;
    q.t1 = std::min(gEnd, q.t0 + span + 1);
    out.push_back(q);
  }
  return out;
}

void frameCache(JsonObject& doc, const std::string& dir) {
  TestProgramOptions workload;
  workload.iterations = 1200;
  PipelineOptions options;
  options.dir = dir;
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

// --- bounded scans -----------------------------------------------------------

/// The service's window answer, computed by testing every record of
/// every frame framesOverlapping selects (the same cached frames).
WindowResult linearWindow(TraceService& service, const WindowQuery& q) {
  const SlogReader& reader = service.trace(0);
  WindowResult out;
  out.t0 = std::max(q.t0, reader.totalStart());
  out.t1 = std::min(q.t1, reader.totalEnd());
  const auto span = reader.framesOverlapping(out.t0, out.t1);
  for (std::size_t f = span->first; f <= span->second; ++f) {
    const SlogFramePtr frame = service.frame(0, f);
    for (const SlogInterval& r : frame->intervals) {
      if (r.pseudo && f != span->first) continue;
      if (!r.pseudo && (r.end() < out.t0 || r.start > out.t1)) continue;
      out.intervals.push_back(r);
    }
    for (const SlogArrow& a : frame->arrows) {
      if (a.recvTime < out.t0 || a.sendTime > out.t1) continue;
      out.arrows.push_back(a);
    }
  }
  return out;
}

/// The service's summary answer by the same linear scan, summed in a map.
std::vector<SummaryEntry> linearSummary(TraceService& service,
                                        const WindowQuery& q) {
  const SlogReader& reader = service.trace(0);
  const Tick t0 = std::max(q.t0, reader.totalStart());
  const Tick t1 = std::min(q.t1, reader.totalEnd());
  const auto span = reader.framesOverlapping(t0, t1);
  std::map<std::uint32_t, double> perState;
  for (std::size_t f = span->first; f <= span->second; ++f) {
    for (const SlogInterval& r : service.frame(0, f)->intervals) {
      if (r.pseudo) continue;
      const Tick lo = std::max(r.start, t0);
      const Tick hi = std::min(r.end(), t1);
      if (hi > lo) perState[r.stateId] += static_cast<double>(hi - lo);
    }
  }
  std::vector<SummaryEntry> out;
  for (const auto& [stateId, ns] : perState) out.push_back({stateId, ns});
  return out;
}

bool sameSummary(const std::vector<SummaryEntry>& a,
                 const std::vector<SummaryEntry>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const SummaryEntry& x, const SummaryEntry& y) {
                      return x.stateId == y.stateId && x.ns == y.ns;
                    });
}

/// p50 and p99 of `count` timed calls, in microseconds.
struct Percentiles {
  double p50Us = 0;
  double p99Us = 0;
};

template <typename Query>
Percentiles timePercentiles(int count, const Query& query) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto t0 = benchutil::now();
    query();
    us.push_back(benchutil::secondsSince(t0) * 1e6);
  }
  std::sort(us.begin(), us.end());
  const auto at = [&](double q) {
    return us[static_cast<std::size_t>(static_cast<double>(us.size() - 1) *
                                       q)];
  };
  return {at(0.5), at(0.99)};
}

void boundedScans(JsonObject& doc) {
  TraceService service({gSlog});
  bool identical = true;
  for (const Tick parts : {32, 1024}) {
    for (const WindowQuery& q : windows(static_cast<int>(parts), parts)) {
      const WindowResult got = service.window(0, q);
      const WindowResult want = linearWindow(service, q);
      identical = identical && got.t0 == want.t0 && got.t1 == want.t1 &&
                  benchutil::sameIntervals(got.intervals, want.intervals) &&
                  benchutil::sameArrows(got.arrows, want.arrows) &&
                  sameSummary(service.summary(0, q.t0, q.t1),
                              linearSummary(service, q));
    }
  }
  benchutil::require(identical,
                     "a bounded window or summary differs from the linear "
                     "scan of the same frames");

  // The first 1/32 of the run (BM_WindowWarm's window) returns most of
  // the records of the frames it touches; a 1/1024 window from the
  // middle of the run is a viewer zoomed in, where bounding pays.
  struct Row {
    const char* share;
    const char* query;
    const char* phase;
    Percentiles p;
  };
  std::vector<Row> rows;
  constexpr int kCalls = 400;
  for (const Tick parts : {32, 1024}) {
    const WindowQuery q =
        windows(static_cast<int>(parts), parts)[parts == 32 ? 0 : parts / 2];
    const char* share = parts == 32 ? "1/32" : "1/1024";
    const auto cold = [&](auto query) {
      return timePercentiles(kCalls, [&] {
        service.cache().clear();
        query();
      });
    };
    const auto window = [&] {
      benchmark::DoNotOptimize(service.window(0, q));
    };
    const auto summary = [&] {
      benchmark::DoNotOptimize(service.summary(0, q.t0, q.t1));
    };
    const auto linear = [&] {
      benchmark::DoNotOptimize(linearWindow(service, q));
    };
    const auto linearSum = [&] {
      benchmark::DoNotOptimize(linearSummary(service, q));
    };
    rows.push_back({share, "window", "cold", cold(window)});
    rows.push_back({share, "summary", "cold", cold(summary)});
    window();  // prime: every frame the window needs is cached from here on
    rows.push_back({share, "window", "warm", timePercentiles(kCalls, window)});
    rows.push_back(
        {share, "window", "warm_linear", timePercentiles(kCalls, linear)});
    rows.push_back(
        {share, "summary", "warm", timePercentiles(kCalls, summary)});
    rows.push_back(
        {share, "summary", "warm_linear", timePercentiles(kCalls, linearSum)});
  }

  std::printf("=== Bounded scans: one window and its summary ===\n");
  std::printf("%7s %8s %12s %10s %10s\n", "window", "query", "phase", "p50",
              "p99");
  std::vector<JsonObject> json;
  for (const Row& row : rows) {
    std::printf("%7s %8s %12s %8.1fus %8.1fus\n", row.share, row.query,
                row.phase, row.p.p50Us, row.p.p99Us);
    JsonObject& out = json.emplace_back();
    out.add("window", row.share)
        .add("query", row.query)
        .add("phase", row.phase)
        .add("p50_us", row.p.p50Us, 2)
        .add("p99_us", row.p.p99Us, 2);
  }
  std::printf("(every bounded answer over the 32 and the 1024 tiling "
              "windows equals a linear scan of the same frames)\n\n");
  doc.add("bounded_scan_workload",
          "the first 1/32 of the run and a 1/1024 window from its middle, "
          "each a window and its summary against one TraceService; cold "
          "empties the cache before each call, warm_linear tests every "
          "record of the same cached frames")
      .add("bounded_scan", json)
      .add("bounded_scan_identical", identical);
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
  const benchutil::ScratchDir scratch("bench_cache_fleet");
  std::vector<std::string> paths;
  for (int i = 0; i < kBackends; ++i) {
    paths.push_back(backendSlog(scratch.path(), i));
  }

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

void BM_SummaryWarm(benchmark::State& state) {
  TraceService service({gSlog});
  const WindowQuery q = windows(1).front();
  benchmark::DoNotOptimize(service.summary(0, q.t0, q.t1));  // prime
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.summary(0, q.t0, q.t1));
  }
}
BENCHMARK(BM_SummaryWarm)->Unit(benchmark::kMicrosecond);

void BM_SummaryCold(benchmark::State& state) {
  TraceService service({gSlog});
  const WindowQuery q = windows(1).front();
  for (auto _ : state) {
    service.cache().clear();
    benchmark::DoNotOptimize(service.summary(0, q.t0, q.t1));
  }
}
BENCHMARK(BM_SummaryCold)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const ute::benchutil::ScratchDir scratch("bench_cache");
  JsonObject doc;
  frameCache(doc, scratch.path());
  boundedScans(doc);
  routerCache(doc);
  ute::benchutil::writeBenchFile("BENCH_cache.json", doc);
  return ute::benchutil::runBenchmarks(argc, argv);
}
