// End-to-end federation (src/fed): a RouterService/RouterServer over
// real TraceServer backends on ephemeral TCP ports.
//
// The acceptance bars pinned here mirror docs/FEDERATION.md:
//   - single-trace ops through the router are byte-identical to a
//     direct backend connection, in both frame encodings;
//   - AggregateMetrics equals the brute-force oracle: fetch every
//     per-trace metrics store directly and replay the pure reducers;
//   - a backend killed and restarted mid-run costs latency, not a
//     client-visible error, and bumps its generation so the hot-set
//     cache cannot serve stale bytes;
//   - a replicated trace fails over to a surviving backend.
//
// All routers run with healthIntervalMs = 0: probes happen only through
// probeNow(), so every health transition in here is deterministic.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fed/aggregate.h"
#include "fed/router_server.h"
#include "interval/standard_profile.h"
#include "server/client.h"
#include "server/server.h"
#include "server/tcp.h"
#include "slog/slog_writer.h"
#include "trace/events.h"

#include <unistd.h>

namespace ute {
namespace {

std::string tempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

/// Writes (or rewrites) a two-task trace at `path`; `records` and
/// `mpiEvery` vary the content so different backends host genuinely
/// different runs and a rewrite changes the enumeration signature.
void writeSlogAt(const std::string& path, int records, int mpiEvery) {
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.recordsPerFrame = 48;
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {{2, "compute"}});
  for (int i = 0; i < records; ++i) {
    const Tick start = static_cast<Tick>(i) * kMs;
    ByteWriter extra;
    extra.u64(start);
    w.addRecord(RecordView::parse(
        encodeRecordBody(makeIntervalType(kRunningState, Bebits::kComplete),
                         start, kMs / 2, 0, i % 2, 0, extra.view())
            .view()));
    if (mpiEvery > 0 && i % mpiEvery == 0) {
      ByteWriter args;
      args.i32(1);
      args.i32(3);
      args.u32(1024);
      args.u32(static_cast<std::uint32_t>(i));
      args.i32(0);
      ByteWriter sendExtra;
      sendExtra.bytes(args.view());
      sendExtra.u64(start + kMs / 2);
      w.addRecord(RecordView::parse(
          encodeRecordBody(
              makeIntervalType(EventType::kMpiSend, Bebits::kComplete),
              start + kMs / 2, kMs / 4, 0, i % 2, 0, sendExtra.view())
              .view()));
    }
  }
  w.close();
}

std::string writeSlog(const std::string& name, int records, int mpiEvery) {
  const std::string path = tempPath(name);
  writeSlogAt(path, records, mpiEvery);
  return path;
}

BackendSpec spec(const std::string& name, std::uint16_t port) {
  BackendSpec s;
  s.name = name;
  s.host = "127.0.0.1";
  s.port = port;
  return s;
}

/// Fast, fully deterministic router settings for tests: no background
/// health thread, short proxy backoff, a one-failure circuit threshold
/// so a single failed probe visibly opens the breaker.
RouterOptions testOptions(std::vector<BackendSpec> backends) {
  RouterOptions o;
  o.backends = std::move(backends);
  o.healthIntervalMs = 0;
  o.registry.client.retries = 1;
  o.registry.client.backoffBaseMs = 5;
  o.registry.client.backoffMaxMs = 20;
  o.registry.circuit.failureThreshold = 1;
  o.registry.circuit.cooldownBaseMs = 50;
  o.registry.circuit.cooldownMaxMs = 200;
  return o;
}

/// A three-backend fleet, each serving one distinct trace, fronted by a
/// live router.
struct Fleet {
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<TraceServer>> servers;
  std::optional<RouterService> service;
  std::optional<RouterServer> router;

  explicit Fleet(const std::string& tag, std::size_t cacheBytes = 8u << 20) {
    paths = {writeSlog(tag + "_a.slog", 300, 2),
             writeSlog(tag + "_b.slog", 220, 5),
             writeSlog(tag + "_c.slog", 180, 0)};
    std::vector<BackendSpec> specs;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      servers.push_back(std::make_unique<TraceServer>(
          std::vector<std::string>{paths[i]}));
      std::string name = "b";
      name += std::to_string(i + 1);
      specs.push_back(spec(name, servers.back()->port()));
    }
    RouterOptions options = testOptions(std::move(specs));
    options.cacheBytes = cacheBytes;
    service.emplace(options);
    router.emplace(*service, 0);
  }

  std::uint16_t port() const { return router->port(); }

  std::uint16_t backendPort(const std::string& name) const {
    // "b1".."b3" -> servers[0..2]; a restarted server keeps its slot.
    const std::size_t index = static_cast<std::size_t>(name.back() - '1');
    return servers[index]->port();
  }
};

/// The deterministic single-trace request mix relayed through the
/// router (every proxied opcode, including ones answered with error
/// frames — those must be byte-identical too).
std::vector<ByteWriter> proxyMix(std::uint32_t id, Tick totalEnd) {
  std::vector<ByteWriter> out;
  out.push_back(encodeTraceRequest(Opcode::kInfo, id));
  out.push_back(encodeTraceRequest(Opcode::kStates, id));
  out.push_back(encodeTraceRequest(Opcode::kThreads, id));
  out.push_back(encodeTraceRequest(Opcode::kPreview, id));
  for (int i = 0; i < 4; ++i) {
    WindowQuery q;
    q.t0 = static_cast<Tick>(i * 37) * kMs;
    q.t1 = q.t0 + static_cast<Tick>(25 + i * 11) * kMs;
    out.push_back(encodeWindowRequest(id, q));
    out.push_back(encodeSummaryRequest(id, q.t0, q.t1));
    out.push_back(encodeFrameAtRequest(id, (q.t0 + q.t1) / 2));
  }
  out.push_back(encodeMetricsRequest(id, 32));
  out.push_back(encodeTailFramesRequest(id, 0, 0));
  out.push_back(encodeTailMetricsRequest(id));
  // Error frames must relay byte-identically as well.
  out.push_back(encodeSummaryRequest(id, totalEnd + kMs, totalEnd + 2 * kMs));
  return out;
}

TEST(RouterFederation, ListTracesMergesTheFleet) {
  Fleet fleet("fed_list");
  TraceClient client("127.0.0.1", fleet.port());
  EXPECT_EQ(client.traceCount(), 3u);  // hello sees the merged registry

  const std::vector<FedTraceEntry> entries = client.listTraces();
  ASSERT_EQ(entries.size(), 3u);
  std::map<std::string, const FedTraceEntry*> byBackend;
  for (const FedTraceEntry& e : entries) byBackend[e.backend] = &e;
  ASSERT_EQ(byBackend.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string name = "b" + std::to_string(i + 1);
    ASSERT_TRUE(byBackend.count(name)) << name;
    const FedTraceEntry& e = *byBackend[name];
    EXPECT_EQ(e.name, fleet.paths[i]);
    EXPECT_GT(e.globalId, 0u);
    EXPECT_GT(e.frames, 0u);
    EXPECT_FALSE(e.live);
    EXPECT_GT(e.totalEnd, e.totalStart);
  }
}

TEST(RouterFederation, SingleTraceOpsAreByteIdenticalToDirectBackend) {
  Fleet fleet("fed_ident");
  for (const std::uint8_t accept : {kSupportedFrameEncodings,
                                    std::uint8_t{0b01}}) {
    ClientOptions clientOptions;
    clientOptions.acceptEncodings = accept;
    TraceClient viaRouter("127.0.0.1", fleet.port(), clientOptions);
    for (const FedTraceEntry& entry : viaRouter.listTraces()) {
      TraceClient direct("127.0.0.1", fleet.backendPort(entry.backend),
                         clientOptions);
      ASSERT_EQ(viaRouter.frameEncoding(), direct.frameEncoding());
      // Two passes: the second is served from the router's hot-set
      // cache and must still be bit-for-bit identical.
      for (int pass = 0; pass < 2; ++pass) {
        for (const ByteWriter& request :
             proxyMix(entry.globalId, entry.totalEnd)) {
          // The direct request carries the backend-local id (always 0
          // here: each backend serves exactly one trace).
          std::vector<std::uint8_t> local(request.view().begin(),
                                          request.view().end());
          local[1] = local[2] = local[3] = local[4] = 0;
          EXPECT_EQ(viaRouter.roundTrip(request.view()),
                    direct.roundTrip(local))
              << entry.backend << " op " << int(request.view()[0])
              << " pass " << pass << " accept " << int(accept);
        }
      }
    }
  }
  const CacheStats stats = fleet.service->cacheStats();
  EXPECT_GT(stats.hits, 0u);  // pass 2 really came from the hot tier
}

TEST(RouterFederation, HelloRepliesMatchADirectBackend) {
  // Router and backend negotiate hello through one function. With one
  // backend serving one trace the trace counts agree, so every reply is
  // byte-identical; the version error differs only in its speaker word.
  TraceServer backend({writeSlog("fed_hello.slog", 120, 3)});
  RouterService service(testOptions({spec("b1", backend.port())}));
  RouterServer router(service, 0);

  ByteWriter badVersion;
  badVersion.u8(static_cast<std::uint8_t>(Opcode::kHello));
  badVersion.u32(kQueryMagic);
  badVersion.u16(kProtocolVersion + 1);
  std::vector<ByteWriter> hellos;
  hellos.push_back(encodeLegacyHelloRequest());
  hellos.push_back(encodeHelloRequest());
  hellos.push_back(encodeHelloRequest(0b01));
  hellos.push_back(encodeHelloRequest(0b100));  // no mutual encoding
  hellos.push_back(std::move(badVersion));

  // Each hello on a fresh connection, as a client opens one.
  const auto ask = [](std::uint16_t port, const ByteWriter& hello) {
    TcpSocket socket = TcpSocket::connectTo("127.0.0.1", port);
    sendMessage(socket, hello.view());
    const auto reply = recvMessage(socket);
    return reply ? std::string(reply->begin(), reply->end())
                 : std::string("<closed>");
  };
  for (std::size_t i = 0; i < hellos.size(); ++i) {
    std::string direct = ask(backend.port(), hellos[i]);
    const std::string routed = ask(router.port(), hellos[i]);
    const std::size_t speaker = direct.find("server speaks");
    if (speaker != std::string::npos) {
      EXPECT_NE(routed.find("router speaks"), std::string::npos);
      direct.replace(speaker, 6, "router");
    }
    EXPECT_EQ(routed, direct) << "hello " << i;
  }
}

TEST(RouterFederation, ErrorSurfaceMatchesTheProtocol) {
  Fleet fleet("fed_errors");
  TraceClient client("127.0.0.1", fleet.port());

  try {
    client.info(9999);
    FAIL() << "unknown global id must fail";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadTrace);
  }
  try {
    client.aggregateMetrics("no-such-trace-anywhere");
    FAIL() << "unmatched pattern must fail";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadTrace);
  }
  // A plain backend rejects federation ops with kBadRequest.
  TraceClient direct("127.0.0.1", fleet.backendPort("b1"));
  try {
    direct.listTraces();
    FAIL() << "plain backend must reject federation ops";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
  // The router connection stays usable after an error frame.
  EXPECT_EQ(client.listTraces().size(), 3u);
}

TEST(RouterFederation, AggregateMetricsMatchesTheBruteForceOracle) {
  Fleet fleet("fed_oracle");
  TraceClient client("127.0.0.1", fleet.port());
  const std::uint32_t bins = 48;
  const std::vector<FedTraceEntry> entries = client.listTraces();
  ASSERT_EQ(entries.size(), 3u);

  // Brute force: fetch every store straight from its backend and replay
  // the pure reducers on them, in the router's own iteration order.
  std::vector<MetricsStore> stores;
  stores.reserve(entries.size());
  for (const FedTraceEntry& entry : entries) {
    TraceClient direct("127.0.0.1", fleet.backendPort(entry.backend));
    stores.push_back(direct.metrics(0, bins));
  }
  std::vector<AggregateInput> inputs;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    inputs.push_back({entries[i].globalId, entries[i].backend,
                      entries[i].name, &stores[i]});
  }
  const AggregateReply oracle = aggregateStores(inputs);
  const AggregateReply reply = client.aggregateMetrics("", bins);

  // Exact equality: the router decodes the same .utm bytes the oracle
  // decoded and runs the same pure reduction, so every double matches
  // bit for bit.
  ASSERT_EQ(reply.runs.size(), oracle.runs.size());
  for (std::size_t i = 0; i < reply.runs.size(); ++i) {
    EXPECT_EQ(reply.runs[i].globalId, oracle.runs[i].globalId);
    EXPECT_EQ(reply.runs[i].backend, oracle.runs[i].backend);
    EXPECT_EQ(reply.runs[i].name, oracle.runs[i].name);
    EXPECT_EQ(reply.runs[i].commFraction, oracle.runs[i].commFraction);
    EXPECT_EQ(reply.runs[i].loadImbalance, oracle.runs[i].loadImbalance);
    EXPECT_EQ(reply.runs[i].lateSenderFraction,
              oracle.runs[i].lateSenderFraction);
  }
  const auto expectDistEq = [](const Distribution& got,
                               const Distribution& want) {
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
    EXPECT_EQ(got.mean, want.mean);
    EXPECT_EQ(got.p50, want.p50);
    EXPECT_EQ(got.p99, want.p99);
  };
  expectDistEq(reply.commFraction, oracle.commFraction);
  expectDistEq(reply.loadImbalance, oracle.loadImbalance);
  expectDistEq(reply.lateSenderFraction, oracle.lateSenderFraction);

  // A pattern narrows the scatter to matching backend/name strings.
  const AggregateReply one = client.aggregateMetrics("b2/", bins);
  ASSERT_EQ(one.runs.size(), 1u);
  EXPECT_EQ(one.runs[0].backend, "b2");
}

TEST(RouterFederation, CompareTracesMatchesTheLocalReduction) {
  Fleet fleet("fed_cmp");
  TraceClient client("127.0.0.1", fleet.port());
  const std::vector<FedTraceEntry> entries = client.listTraces();
  ASSERT_GE(entries.size(), 2u);
  const std::uint32_t idA = entries[0].globalId;
  const std::uint32_t idB = entries[1].globalId;

  // Self-compare: exactly zero everywhere.
  const CompareReply self = client.compareTraces(idA, idA, 16);
  EXPECT_EQ(self.bins, 16u);
  EXPECT_EQ(self.maxAbsCommDelta, 0.0);
  EXPECT_EQ(self.maxAbsImbalanceDelta, 0.0);

  // Cross-compare equals compareStores() on directly fetched stores.
  TraceClient directA("127.0.0.1", fleet.backendPort(entries[0].backend));
  TraceClient directB("127.0.0.1", fleet.backendPort(entries[1].backend));
  const MetricsStore a = directA.metrics(0, 16);
  const MetricsStore b = directB.metrics(0, 16);
  const CompareReply oracle = compareStores(a, b, 16);
  const CompareReply reply = client.compareTraces(idA, idB, 16);
  EXPECT_EQ(reply.bins, oracle.bins);
  EXPECT_EQ(reply.maxAbsCommDelta, oracle.maxAbsCommDelta);
  EXPECT_EQ(reply.maxAbsImbalanceDelta, oracle.maxAbsImbalanceDelta);
  ASSERT_EQ(reply.commDelta.size(), oracle.commDelta.size());
  for (std::size_t i = 0; i < reply.commDelta.size(); ++i) {
    EXPECT_EQ(reply.commDelta[i], oracle.commDelta[i]) << i;
    EXPECT_EQ(reply.imbalanceDelta[i], oracle.imbalanceDelta[i]) << i;
  }
}

TEST(RouterFederation, BackendKillAndRestartHealsWithoutClientError) {
  Fleet fleet("fed_heal");
  TraceClient client("127.0.0.1", fleet.port());
  const std::vector<FedTraceEntry> entries = client.listTraces();
  const FedTraceEntry* victim = nullptr;
  for (const FedTraceEntry& e : entries) {
    if (e.backend == "b2") victim = &e;
  }
  ASSERT_NE(victim, nullptr);
  const std::uint32_t gid = victim->globalId;
  const std::string path = victim->name;
  const std::uint16_t port = fleet.backendPort("b2");
  const std::uint64_t genBefore =
      fleet.service->registry().generation("b2");

  const TraceInfo before = client.info(gid);
  EXPECT_EQ(before.path, path);

  // Kill the backend. A failed probe opens its circuit (threshold 1).
  fleet.servers[1].reset();
  fleet.service->probeNow();
  EXPECT_EQ(fleet.service->registry().circuitState("b2"),
            CircuitBreaker::State::kOpen);

  // While it is down, the trace is explicitly unavailable — typed
  // backpressure on the same client connection, not a hang or a drop.
  try {
    client.summary(gid, 0, 50 * kMs);  // not in the cache yet
    FAIL() << "query against a dead single-replica backend must fail";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
  }

  // Restart on the same port. The very next *uncached* query on the
  // same client connection must succeed: the proxy's last-resort pass
  // resets the cooldown and reconnects — no health sweep required
  // first. (info(gid) is already in the hot-set cache, so it would not
  // prove a reconnect happened.)
  ServerOptions restart;
  restart.port = port;
  fleet.servers[1] =
      std::make_unique<TraceServer>(std::vector<std::string>{path}, restart);
  const auto summary = client.summary(gid, 0, 50 * kMs);  // must not throw
  EXPECT_FALSE(summary.empty());

  // The reconnect bumped the generation (the backend may have restarted
  // with different content), and a probe closes the circuit for good.
  EXPECT_GT(fleet.service->registry().generation("b2"), genBefore);
  fleet.service->probeNow();
  EXPECT_EQ(fleet.service->registry().circuitState("b2"),
            CircuitBreaker::State::kClosed);

  // Post-heal answers match a direct connection to the restarted
  // backend, byte for byte.
  const TraceInfo after = client.info(gid);
  EXPECT_EQ(after.path, before.path);
  EXPECT_EQ(after.frames, before.frames);
  TraceClient direct("127.0.0.1", port);
  EXPECT_EQ(client.roundTrip(encodeTraceRequest(Opcode::kInfo, gid).view()),
            direct.roundTrip(encodeTraceRequest(Opcode::kInfo, 0).view()));
}

TEST(RouterFederation, ReplicatedTraceFailsOverToTheSurvivingBackend) {
  // Two backends serving the same trace file: routesFor() returns both
  // as candidates, so killing either one must not surface any error —
  // the proxy falls through to the surviving replica within one pass.
  const std::string path = writeSlog("fed_replica.slog", 260, 3);
  std::optional<TraceServer> s1(std::in_place,
                                std::vector<std::string>{path});
  std::optional<TraceServer> s2(std::in_place,
                                std::vector<std::string>{path});
  RouterOptions options =
      testOptions({spec("b1", s1->port()), spec("b2", s2->port())});
  options.cacheBytes = 0;  // every query must really hit a backend
  RouterService service(options);
  RouterServer router(service, 0);
  TraceClient client("127.0.0.1", router.port());

  const std::vector<FedTraceEntry> entries = client.listTraces();
  ASSERT_EQ(entries.size(), 2u);  // one global id per (backend, name)
  for (const FedTraceEntry& e : entries) EXPECT_EQ(e.name, path);

  s1.reset();  // kill one replica; b2 survives
  TraceClient direct("127.0.0.1", s2->port());
  for (const FedTraceEntry& e : entries) {
    const TraceInfo info = client.info(e.globalId);  // must not throw
    EXPECT_EQ(info.path, path);
    EXPECT_EQ(info.frames, direct.info(0).frames);
    WindowQuery q;
    q.t0 = 10 * kMs;
    q.t1 = 90 * kMs;
    EXPECT_EQ(client.roundTrip(encodeWindowRequest(e.globalId, q).view()),
              direct.roundTrip(encodeWindowRequest(0, q).view()));
  }
}

TEST(RouterFederation, CacheInvalidatesWhenTheBackendContentChanges) {
  // The stale-cache scenario: a reply is cached, the backend restarts
  // with *different* content at the same path and port, a forced probe
  // bumps the generation, and the next query must return the new
  // content — a stale hit would return the old frame count.
  const std::string path = tempPath("fed_stale.slog");
  writeSlogAt(path, 200, 0);
  std::optional<TraceServer> server(std::in_place,
                                    std::vector<std::string>{path});
  const std::uint16_t port = server->port();
  RouterOptions options = testOptions({spec("b1", port)});
  RouterService service(options);
  RouterServer router(service, 0);
  TraceClient client("127.0.0.1", router.port());

  const std::vector<FedTraceEntry> entries = client.listTraces();
  ASSERT_EQ(entries.size(), 1u);
  const std::uint32_t gid = entries[0].globalId;

  const std::uint32_t framesBefore = client.info(gid).frames;
  EXPECT_EQ(client.info(gid).frames, framesBefore);  // now cached
  EXPECT_GT(service.cacheStats().hits, 0u);

  server.reset();
  writeSlogAt(path, 420, 2);  // same path, different content
  ServerOptions restart;
  restart.port = port;
  server.emplace(std::vector<std::string>{path}, restart);
  service.probeNow();  // reconnect + changed signature => generation bump

  const std::uint32_t framesAfter = client.info(gid).frames;
  TraceClient direct("127.0.0.1", server->port());
  EXPECT_EQ(framesAfter, direct.info(0).frames);
  EXPECT_NE(framesAfter, framesBefore);  // the fixture really changed
  // Same (backend, name) => the global id survived the restart.
  ASSERT_EQ(client.listTraces().size(), 1u);
  EXPECT_EQ(client.listTraces()[0].globalId, gid);
}

TEST(RouterFederation, AddAndRemoveBackendAtRuntime) {
  const std::string pathA = writeSlog("fed_admin_a.slog", 150, 0);
  const std::string pathB = writeSlog("fed_admin_b.slog", 170, 4);
  TraceServer s1({pathA});
  TraceServer s2({pathB});
  RouterOptions options = testOptions({spec("b1", s1.port())});
  RouterService service(options);
  RouterServer router(service, 0);
  TraceClient client("127.0.0.1", router.port());
  ASSERT_EQ(client.listTraces().size(), 1u);

  client.addBackend("b2", "127.0.0.1:" + std::to_string(s2.port()));
  const std::vector<FedTraceEntry> merged = client.listTraces();
  ASSERT_EQ(merged.size(), 2u);  // the newcomer was probed immediately

  try {
    client.addBackend("b2", "127.0.0.1:1");
    FAIL() << "duplicate backend name must fail";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }

  client.removeBackend("b2");
  EXPECT_EQ(client.listTraces().size(), 1u);
  try {
    client.removeBackend("b2");
    FAIL() << "removing an unknown backend must fail";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
}

TEST(RouterFederation, ShutdownOpcodeStopsTheRouter) {
  Fleet fleet("fed_shutdown", /*cacheBytes=*/0);
  {
    TraceClient client("127.0.0.1", fleet.port());
    client.shutdownServer();
  }
  for (int i = 0; i < 200 && !fleet.router->stopRequested(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(fleet.router->stopRequested());
  fleet.router->stop();
}

}  // namespace
}  // namespace ute
