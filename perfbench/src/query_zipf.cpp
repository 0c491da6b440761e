// query-zipf: read-only queries against the trace-query service.
//
// Set-up builds three SLOG traces of different shapes (test, sppm, flash)
// with the offline chain and serves them from one TraceServer (uteserve)
// behind a RouterServer (uterouter), both with their default worker
// counts. The mix is window, summary, frame-at and metrics requests
// (50/30/10/10), Zipf-distributed over traces and over window positions;
// the frame cache holds an eighth of the decoded frames, so the median
// query misses it and decodes a frame. Convert and merge do no work here.
//
// The measured phase alternates two slices. A service slice keeps four
// queries outstanding against the server's own TraceService, in-process:
// its per-query latencies and queries/s are the end-to-end metrics, and
// the frame cache, frame decode and query code do the work. A wire slice
// sends the same mix over loopback at one fixed rate, three generators
// through the router and one straight to the backend, each request timed
// from its due time; it drives the reactor, the worker pool and the router
// hop, whose numbers are per-layer metrics. On this 4-vCPU VM the loopback
// latencies and rates are dominated by thread wake-ups whose cost follows
// the host's load, and they spread several times more across runs than
// the bounds allow (perfbench/README.md, "Noise"). A fixed sample of
// wire replies is compared with an independent in-process TraceService
// answer to the same query.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chain.h"
#include "common.h"
#include "fed/router_server.h"
#include "fed/router_service.h"
#include "gen.h"
#include "server/client.h"
#include "server/server.h"
#include "server/trace_service.h"
#include "slog/slog_reader.h"
#include "spans.h"
#include "workloads/workloads.h"
#include "workloads_all.h"

namespace perfbench {

namespace {

using ute::Tick;

constexpr int kSetupReps = 5;
constexpr int kGenerators = 4;       ///< threads = connections = nproc
constexpr double kRouterRate = 1500;  ///< queries/s via the router, total
constexpr double kDirectRate = 300;   ///< queries/s straight to the backend
constexpr std::size_t kPositions = 64;
constexpr std::size_t kCheckEvery = 16;
constexpr int kReplyTimeoutMs = 10'000;
constexpr double kSliceSeconds = 1.5;
constexpr int kMinRounds = 2;
/// Median generator lateness (send time minus due time) past which the
/// run is invalid: most sends then waited on a backlog, not on a stall.
constexpr double kMaxLateP50Ms = 25;

enum class Kind { kWindow, kSummary, kFrameAt, kMetrics };

struct Query {
  Kind kind = Kind::kWindow;
  std::size_t trace = 0;
  Tick t0 = 0;
  Tick t1 = 0;
  std::uint32_t bins = 0;
};

struct ServedTrace {
  std::string path;
  Tick start = 0;
  Tick end = 0;
  std::uint32_t backendId = 0;
  std::uint32_t globalId = 0;
  std::vector<std::size_t> positionOfRank;  ///< Zipf rank -> position
};

/// One reply kept for the output check.
struct Kept {
  Query query;
  std::optional<ute::WindowResult> window;
  std::vector<ute::SummaryEntry> summary;
  std::optional<ute::FrameReply> frame;
  std::vector<std::uint8_t> metrics;  ///< MetricsStore::encode()
};

class QueryMix {
 public:
  explicit QueryMix(const std::vector<ServedTrace>& traces)
      : traces_(traces), traceZipf_(traces.size(), 1.0),
        positionZipf_(kPositions, 1.1) {}

  Query next(Rng& rng) const {
    Query q;
    const double u = rng.uniform();
    q.kind = u < 0.5 ? Kind::kWindow
             : u < 0.8 ? Kind::kSummary
             : u < 0.9 ? Kind::kFrameAt
                       : Kind::kMetrics;
    q.trace = traceZipf_.sample(rng);
    const ServedTrace& t = traces_[q.trace];
    const std::size_t pos = t.positionOfRank[positionZipf_.sample(rng)];
    const Tick span = t.end - t.start;
    q.t0 = t.start + span / kPositions * pos;
    q.t1 = q.t0 + span / (4 * kPositions);
    if (q.t1 > t.end) q.t1 = t.end;
    static constexpr std::uint32_t kBins[] = {60, 120, 240};
    q.bins = kBins[rng.below(3)];
    return q;
  }

 private:
  const std::vector<ServedTrace>& traces_;
  Zipf traceZipf_;
  Zipf positionZipf_;
};

const char* kindName(Kind k) {
  switch (k) {
    case Kind::kWindow: return "window";
    case Kind::kSummary: return "summary";
    case Kind::kFrameAt: return "frameAt";
    case Kind::kMetrics: return "metrics";
  }
  return "unknown";
}

/// Sends `q` and, when `keep` is set, stores the decoded reply. `layer`
/// names the span: "fed" through the router, "server" straight to the
/// backend.
void execute(ute::TraceClient& client, std::uint32_t id, const Query& q,
             Kept* keep, const char* layer) {
  Span span(std::string(layer) + ".client." + kindName(q.kind));
  switch (q.kind) {
    case Kind::kWindow: {
      ute::WindowQuery wq;
      wq.t0 = q.t0;
      wq.t1 = q.t1;
      ute::WindowResult r = client.window(id, wq);
      if (keep) keep->window = std::move(r);
      break;
    }
    case Kind::kSummary: {
      auto r = client.summary(id, q.t0, q.t1);
      if (keep) keep->summary = std::move(r);
      break;
    }
    case Kind::kFrameAt: {
      ute::FrameReply r = client.frameAt(id, q.t0);
      if (keep) keep->frame = std::move(r);
      break;
    }
    case Kind::kMetrics: {
      const ute::MetricsStore r = client.metrics(id, q.bins);
      if (keep) keep->metrics = r.encode();
      break;
    }
  }
  if (keep) keep->query = q;
}

/// Answers `q` in-process through the server's own TraceService.
void answer(ute::TraceService& service, std::uint32_t id, const Query& q) {
  Span span(std::string("server.service.") + kindName(q.kind));
  switch (q.kind) {
    case Kind::kWindow: {
      ute::WindowQuery wq;
      wq.t0 = q.t0;
      wq.t1 = q.t1;
      service.window(id, wq);
      break;
    }
    case Kind::kSummary:
      service.summary(id, q.t0, q.t1);
      break;
    case Kind::kFrameAt:
      service.frameAt(id, q.t0);
      break;
    case Kind::kMetrics:
      service.metrics(id, q.bins);
      break;
  }
}

bool sameInterval(const ute::SlogInterval& a, const ute::SlogInterval& b) {
  return a.stateId == b.stateId && a.bebits == b.bebits &&
         a.pseudo == b.pseudo && a.start == b.start && a.dura == b.dura &&
         a.node == b.node && a.cpu == b.cpu && a.thread == b.thread;
}

bool sameArrow(const ute::SlogArrow& a, const ute::SlogArrow& b) {
  return a.srcNode == b.srcNode && a.srcThread == b.srcThread &&
         a.sendTime == b.sendTime && a.dstNode == b.dstNode &&
         a.dstThread == b.dstThread && a.recvTime == b.recvTime &&
         a.bytes == b.bytes;
}

bool sameFrameData(const std::vector<ute::SlogInterval>& ai,
                   const std::vector<ute::SlogArrow>& aa,
                   const ute::SlogFrameData& b) {
  return std::equal(ai.begin(), ai.end(), b.intervals.begin(),
                    b.intervals.end(), sameInterval) &&
         std::equal(aa.begin(), aa.end(), b.arrows.begin(), b.arrows.end(),
                    sameArrow);
}

/// Compares a kept reply with the in-process service's answer; returns
/// an empty string when they agree.
std::string check(ute::TraceService& service,
                  const std::vector<ServedTrace>& traces, const Kept& k) {
  const std::uint32_t id = traces[k.query.trace].backendId;
  const Query& q = k.query;
  switch (q.kind) {
    case Kind::kWindow: {
      ute::WindowQuery wq;
      wq.t0 = q.t0;
      wq.t1 = q.t1;
      const ute::WindowResult want = service.window(id, wq);
      const ute::WindowResult& got = *k.window;
      const bool same =
          got.t0 == want.t0 && got.t1 == want.t1 &&
          std::equal(got.intervals.begin(), got.intervals.end(),
                     want.intervals.begin(), want.intervals.end(),
                     sameInterval) &&
          std::equal(got.arrows.begin(), got.arrows.end(),
                     want.arrows.begin(), want.arrows.end(), sameArrow);
      return same ? "" : "window reply differs from the service";
    }
    case Kind::kSummary: {
      const auto want = service.summary(id, q.t0, q.t1);
      const bool same = std::equal(
          k.summary.begin(), k.summary.end(), want.begin(), want.end(),
          [](const ute::SummaryEntry& a, const ute::SummaryEntry& b) {
            return a.stateId == b.stateId && a.ns == b.ns;
          });
      return same ? "" : "summary reply differs from the service";
    }
    case Kind::kFrameAt: {
      const ute::FrameAtResult want = service.frameAt(id, q.t0);
      const ute::FrameReply& got = *k.frame;
      const bool same =
          got.frameIdx == want.frameIdx &&
          got.entry.records == want.entry.records &&
          got.entry.timeStart == want.entry.timeStart &&
          got.entry.timeEnd == want.entry.timeEnd &&
          sameFrameData(got.data.intervals, got.data.arrows, *want.frame);
      return same ? "" : "frame-at reply differs from the service";
    }
    case Kind::kMetrics: {
      const ute::TraceService::MetricsBlob want = service.metrics(id, q.bins);
      return k.metrics == *want ? "" : "metrics reply differs from the service";
    }
  }
  return "unknown query kind";
}

struct Fleet {
  std::unique_ptr<ute::TraceServer> backend;
  std::unique_ptr<ute::RouterService> service;
  std::unique_ptr<ute::RouterServer> router;

  ~Fleet() { stop(); }

  void stop() {
    if (router) router->stop();
    if (service) service->stop();
    router.reset();
    service.reset();
    if (backend) backend->stop();
    backend.reset();
  }
};

/// A client whose every round trip fails within kReplyTimeoutMs instead
/// of hanging the run.
std::unique_ptr<ute::TraceClient> connect(std::uint16_t port) {
  ute::ClientOptions options;
  options.recvTimeoutMs = kReplyTimeoutMs;
  return std::make_unique<ute::TraceClient>("127.0.0.1", port, options);
}

struct Sample {
  double latencyMs = 0;
  double lateMs = 0;
};

}  // namespace

WorkloadResult runQueryZipf(const RunOptions& opt) {
  namespace fs = std::filesystem;
  WorkloadResult res;
  const fs::path dir = fs::path(opt.scratch) / "query-zipf";

  std::vector<ServedTrace> traces;
  std::vector<ChainResult> built;
  std::size_t cacheBytes = 0;
  Fleet fleet;
  const double setupS = medianSetupSeconds(kSetupReps, [&](int) {
    fleet.stop();
    traces.clear();
    built.clear();
    fs::remove_all(dir);
    fs::create_directories(dir);
    ute::TestProgramOptions test;
    test.iterations = 3000;
    test.seed = opt.seed;
    ute::SppmOptions sppm;
    sppm.timesteps = 150;
    sppm.seed = opt.seed + 1;
    ute::FlashOptions flash;
    flash.initIterations = 200;
    flash.evolveIterations = 100;
    flash.seed = opt.seed + 2;
    const std::vector<std::pair<std::string, ute::SimulationConfig>> shapes = {
        {"test", ute::testProgram(test)},
        {"sppm", ute::sppm(sppm)},
        {"flash", ute::flash(flash)}};
    std::vector<std::string> paths;
    std::size_t decodedBytes = 0;
    for (const auto& [name, config] : shapes) {
      const std::string prefix = (dir / name).string();
      built.push_back(runChain(simulate(config, prefix), prefix, 4, false));
      paths.push_back(built.back().slogPath);
      const ute::SlogReader reader(paths.back());
      ServedTrace t;
      t.path = paths.back();
      t.start = reader.totalStart();
      t.end = reader.totalEnd();
      for (std::size_t f = 0; f < reader.frameIndex().size(); ++f) {
        decodedBytes += ute::FrameCache::frameBytes(*reader.readFrame(f));
      }
      traces.push_back(std::move(t));
    }
    // Working set: several times the frame cache's byte budget.
    cacheBytes = decodedBytes / 8;

    ute::ServerOptions serverOptions;
    serverOptions.service.cacheBytes = cacheBytes;
    fleet.backend = std::make_unique<ute::TraceServer>(paths, serverOptions);
    ute::RouterOptions routerOptions;
    routerOptions.backends.push_back(
        {"b0", "127.0.0.1", fleet.backend->port()});
    routerOptions.healthIntervalMs = 0;
    routerOptions.cacheBytes = cacheBytes / 4;
    fleet.service = std::make_unique<ute::RouterService>(routerOptions);
    fleet.router = std::make_unique<ute::RouterServer>(*fleet.service, 0);

    ute::TraceClient direct("127.0.0.1", fleet.backend->port());
    for (std::uint32_t id = 0; id < direct.traceCount(); ++id) {
      const std::string& name = fleet.backend->service().traceName(id);
      for (ServedTrace& t : traces) {
        if (t.path == name) t.backendId = id;
      }
    }
    ute::TraceClient viaRouter("127.0.0.1", fleet.router->port());
    for (const ute::FedTraceEntry& e : viaRouter.listTraces()) {
      for (ServedTrace& t : traces) {
        if (t.path == e.name) t.globalId = e.globalId;
      }
    }
    Rng perm = Rng(opt.seed).fork(2);
    for (ServedTrace& t : traces) {
      t.positionOfRank.resize(kPositions);
      for (std::size_t i = 0; i < kPositions; ++i) t.positionOfRank[i] = i;
      for (std::size_t i = kPositions - 1; i > 0; --i) {
        std::swap(t.positionOfRank[i], t.positionOfRank[perm.below(i + 1)]);
      }
    }
    // Warm-up: every metrics blob computed once, caches primed.
    for (const ServedTrace& t : traces) {
      for (const std::uint32_t bins : {60u, 120u, 240u}) {
        viaRouter.metrics(t.globalId, bins);
      }
    }
    const QueryMix warmMix(traces);
    Rng warm = Rng(opt.seed).fork(3);
    for (int i = 0; i < 500; ++i) {
      const Query q = warmMix.next(warm);
      execute(viaRouter, traces[q.trace].globalId, q, nullptr, "fed");
    }
  });

  // The in-process reference the sampled replies are checked against.
  std::vector<std::string> paths;
  for (const ServedTrace& t : traces) paths.push_back(t.path);
  ute::ServiceOptions checkerOptions;
  checkerOptions.cacheBytes = cacheBytes;
  ute::TraceService checker(paths, checkerOptions);
  const QueryMix mix(traces);
  Rng seeds = Rng(opt.seed).fork(4);

  const auto measured = measurePhases(opt, res, [&](double seconds,
                                                    bool traced) {
    ute::TraceService& service = fleet.backend->service();
    const ute::Reactor::Stats backend0 = fleet.backend->reactorStats();
    const ute::Reactor::Stats router0 = fleet.router->reactorStats();
    const ute::CacheStats fedCache0 = fleet.service->cacheStats();
    const ute::ServiceStats service0 =
        ute::TraceClient("127.0.0.1", fleet.backend->port()).stats();

    std::vector<std::vector<double>> serviceMs(kGenerators);
    std::vector<double> serviceRates;
    std::vector<std::vector<Sample>> wire(kGenerators);
    std::vector<std::vector<Kept>> kept(kGenerators);
    std::vector<std::uint64_t> errors(kGenerators, 0);
    std::vector<std::string> firstError(kGenerators);
    std::vector<Rng> rngs;
    for (int g = 0; g < kGenerators; ++g) rngs.push_back(seeds.fork(g));

    // Rounds of a service slice and a wire slice, so both sample the
    // whole phase.
    const auto phase0 = Clock::now();
    int rounds = 0;
    while (rounds < kMinRounds || secondsSince(phase0) < seconds) {
      ++rounds;
      // Service slice: closed loop, kGenerators queries outstanding, each
      // answered in-process by the server's own TraceService.
      std::vector<std::thread> threads;
      std::vector<std::uint64_t> done(kGenerators, 0);
      const auto s0 = Clock::now() + std::chrono::milliseconds(20);
      const auto s1 = s0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(kSliceSeconds));
      for (int g = 0; g < kGenerators; ++g) {
        threads.emplace_back([&, g] {
          Rng& rng = rngs[static_cast<std::size_t>(g)];
          auto& out = serviceMs[static_cast<std::size_t>(g)];
          std::this_thread::sleep_until(s0);
          for (;;) {
            const Query q = mix.next(rng);
            const auto t0 = Clock::now();
            answer(service, traces[q.trace].backendId, q);
            const auto t1 = Clock::now();
            if (t1 > s1) break;
            out.push_back(msBetween(t0, t1));
            ++done[static_cast<std::size_t>(g)];
          }
        });
      }
      for (std::thread& t : threads) t.join();
      threads.clear();
      std::uint64_t n = 0;
      for (const std::uint64_t d : done) n += d;
      res.attempted += n;
      serviceRates.push_back(static_cast<double>(n) / kSliceSeconds);

      // Wire slice: open loop at a fixed rate over loopback, three
      // generators through the router and one straight to the backend.
      // Each slice opens its own connections before its clock starts.
      const auto w0 = Clock::now() + std::chrono::milliseconds(20);
      for (int g = 0; g < kGenerators; ++g) {
        threads.emplace_back([&, g] {
          const bool direct = g == kGenerators - 1;
          const double rate =
              direct ? kDirectRate : kRouterRate / (kGenerators - 1);
          const std::uint16_t port =
              direct ? fleet.backend->port() : fleet.router->port();
          Rng& rng = rngs[static_cast<std::size_t>(g)];
          const std::vector<double> due =
              fixedRateSchedule(rng, rate, kSliceSeconds);
          auto client = connect(port);
          auto& out = wire[static_cast<std::size_t>(g)];
          for (std::size_t i = 0; i < due.size(); ++i) {
            const Query q = mix.next(rng);
            const auto dueAt =
                w0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(due[i]));
            std::this_thread::sleep_until(dueAt);
            const auto sent = Clock::now();
            Kept keep;
            const bool check = i % kCheckEvery == 0;
            try {
              const ServedTrace& t = traces[q.trace];
              execute(*client, direct ? t.backendId : t.globalId, q,
                      check ? &keep : nullptr, direct ? "server" : "fed");
            } catch (const std::exception& e) {
              if (errors[static_cast<std::size_t>(g)]++ == 0) {
                firstError[static_cast<std::size_t>(g)] = e.what();
              }
              client = connect(port);
              continue;
            }
            out.push_back({msBetween(dueAt, Clock::now()),
                           msBetween(dueAt, sent)});
            if (check) {
              kept[static_cast<std::size_t>(g)].push_back(std::move(keep));
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }

    // --- tallies and checks ------------------------------------------------
    std::vector<double> answerMs, routerMs, directMs, lateMs;
    for (int g = 0; g < kGenerators; ++g) {
      const auto gi = static_cast<std::size_t>(g);
      answerMs.insert(answerMs.end(), serviceMs[gi].begin(),
                      serviceMs[gi].end());
      for (const Sample& x : wire[gi]) {
        (g == kGenerators - 1 ? directMs : routerMs).push_back(x.latencyMs);
        lateMs.push_back(x.lateMs);
      }
      res.attempted += wire[gi].size() + errors[gi];
      for (std::uint64_t e = 0; e < errors[gi]; ++e) {
        res.fail("request error: " + firstError[gi]);
      }
    }
    std::size_t checked = 0;
    for (const auto& perThread : kept) {
      for (const Kept& k : perThread) {
        ++checked;
        const std::string why = check(checker, traces, k);
        if (!why.empty()) res.fail(why);
      }
    }
    const Summary answered = summarize(answerMs);
    const Summary via = summarize(routerMs);
    const Summary direct = summarize(directMs);
    const Summary late = summarize(lateMs);
    if (late.p50 > kMaxLateP50Ms) res.valid = false;
    res.notes.push_back(
        std::string("query-zipf") + (traced ? " (traced)" : "") + ": " +
        std::to_string(rounds) + " rounds; service n=" +
        std::to_string(answered.n) + " (" +
        std::to_string(answered.beyondP99) + " beyond p99); wire via router n=" +
        std::to_string(via.n) + " p50 " + std::to_string(via.p50) + " p99 " +
        std::to_string(via.p99) + " ms, direct n=" + std::to_string(direct.n) +
        " p50 " + std::to_string(direct.p50) + " ms; replies checked " +
        std::to_string(checked) + "; generator late p99 " +
        std::to_string(late.p99) + " ms");

    if (traced) {
      const ute::ServiceStats service1 =
          ute::TraceClient("127.0.0.1", fleet.backend->port()).stats();
      const ute::Reactor::Stats backend1 = fleet.backend->reactorStats();
      const ute::Reactor::Stats router1 = fleet.router->reactorStats();
      const ute::CacheStats fedCache1 = fleet.service->cacheStats();
      // Frame reads straight off the served files.
      std::vector<double> frameMs;
      Rng frameRng = seeds.fork(200);
      for (const ServedTrace& t : traces) {
        const ute::SlogReader reader(t.path);
        for (int i = 0; i < 2000; ++i) {
          const std::size_t idx = frameRng.below(reader.frameIndex().size());
          Span span("slog.readFrame");
          const auto t0 = Clock::now();
          const ute::SlogFramePtr frame = reader.readFrame(idx);
          frameMs.push_back(msBetween(t0, Clock::now()));
        }
      }
      const auto delta = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a);
      };
      const double cacheLookups =
          delta(service0.cache.hits + service0.cache.misses,
                service1.cache.hits + service1.cache.misses);
      const double fedLookups = delta(fedCache0.hits + fedCache0.misses,
                                      fedCache1.hits + fedCache1.misses);
      double convertS = 0, mergeS = 0, slogS = 0, slogBytes = 0;
      std::uint64_t events = 0, recordsOut = 0, pseudo = 0, entries = 0;
      for (const ChainResult& c : built) {
        convertS += c.convertSeconds;
        mergeS += c.mergeSeconds;
        slogS += c.slogSeconds;
        events += c.rawEvents;
        recordsOut += c.recordsOut;
        pseudo += c.pseudoRecords;
        entries += c.slogEntries;
        slogBytes += static_cast<double>(fs::file_size(c.slogPath));
      }
      const std::vector<Metric> layers = {
          {"sim.s", Tracer::instance().totalSeconds("sim.run") / kSetupReps,
           "s"},
          {"sim.events", static_cast<double>(events), "count"},
          {"convert.s", convertS, "s"},
          {"convert.records_per_s", static_cast<double>(events) / convertS,
           "1/s"},
          {"merge.s", mergeS, "s"},
          {"merge.records_out", static_cast<double>(recordsOut), "count"},
          {"merge.pseudo_per_record",
           static_cast<double>(pseudo) / static_cast<double>(recordsOut),
           "ratio"},
          {"slog.encode_s", slogS, "s"},
          {"slog.bytes_per_record", slogBytes / static_cast<double>(entries),
           "B"},
          {"slog.frame_read_p50_ms", summarize(frameMs).p50, "ms"},
          {"server.service_p50_ms", answered.p50, "ms"},
          {"server.wire_p50_ms", direct.p50 - answered.p50, "ms"},
          {"server.cache_hit_ratio",
           cacheLookups > 0
               ? delta(service0.cache.hits, service1.cache.hits) / cacheLookups
               : 0,
           "ratio"},
          {"server.cache_evictions",
           delta(service0.cache.evictions, service1.cache.evictions), "count"},
          {"server.pool_rejected",
           delta(service0.pool.rejected, service1.pool.rejected), "count"},
          {"server.syscalls_per_req",
           delta(syscalls(backend0), syscalls(backend1)) /
               std::max(1.0, delta(backend0.requests, backend1.requests)),
           "count"},
          {"fed.query_p50_ms", via.p50, "ms"},
          {"fed.query_p99_ms", via.p99, "ms"},
          {"fed.hop_p50_ms", via.p50 - direct.p50, "ms"},
          {"fed.cache_hit_ratio",
           fedLookups > 0 ? delta(fedCache0.hits, fedCache1.hits) / fedLookups
                          : 0,
           "ratio"},
          {"fed.syscalls_per_req",
           delta(syscalls(router0), syscalls(router1)) /
               std::max(1.0, delta(router0.requests, router1.requests)),
           "count"},
          {"gen.late_p99_ms", late.p99, "ms"},
          {"gen.sent", static_cast<double>(lateMs.size()), "count"},
      };
      res.perLayer.insert(res.perLayer.end(), layers.begin(), layers.end());
    }
    return std::vector<Metric>{
        {"p50_ms", answered.p50, "ms"},
        {"p99_ms", answered.p99, "ms"},
        {"tput_per_s", median(serviceRates), "1/s"},
    };
  });

  res.endToEnd = {{"setup_s", setupS, "s"}, {"peak_rss_mb", peakRssMb(), "MB"}};
  res.endToEnd.insert(res.endToEnd.end(), measured.begin(), measured.end());
  std::size_t frames = 0;
  for (const ServedTrace& t : traces) {
    frames += ute::SlogReader(t.path).frameIndex().size();
  }
  res.notes.push_back("query-zipf: " + std::to_string(traces.size()) +
                      " traces, " + std::to_string(frames) +
                      " frames, frame cache " + std::to_string(cacheBytes) +
                      " B");
  return res;
}

}  // namespace perfbench
