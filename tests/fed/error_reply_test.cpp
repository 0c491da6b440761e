// Every query-protocol error reply pinned as exact bytes: the status
// code and the message text, as both dispatchers send them. The layout
// digests (tests/layout) pin the bad-trace, bad-window, frame-at,
// truncated, empty, federation-op and unknown-opcode replies of a plain
// backend; this file pins the rest: summary refusals, the metrics bin
// cap, the live-trace refusals, and every refusal of the router,
// including a backend error the router relays.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "fed/router_service.h"
#include "interval/standard_profile.h"
#include "server/server.h"
#include "slog/slog_writer.h"
#include "temp_dir.h"

#include <unistd.h>

namespace ute {
namespace {

/// A two-task file trace of `records` 0.5 ms intervals, 1 ms apart.
std::string writeSlog(const std::string& name, int records) {
  const std::string path = tempPath(name);
  SlogOptions options;
  options.recordsPerFrame = 32;
  const Profile profile = makeStandardProfile();
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {{1, "Main Loop"}});
  for (int i = 0; i < records; ++i) {
    const Tick start = static_cast<Tick>(i) * kMs;
    ByteWriter extra;
    extra.u64(start);
    w.addRecord(RecordView::parse(
        encodeRecordBody(makeIntervalType(kRunningState, Bebits::kComplete),
                         start, kMs / 2, 0, i % 2, 0, extra.view())
            .view()));
  }
  w.close();
  return path;
}

/// The exact bytes of an error reply: u8 code, lstring message.
std::string errorReply(ErrorCode code, const std::string& message) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(code));
  w.lstring(message);
  return std::string(w.view().begin(), w.view().end());
}

std::string text(const std::vector<std::uint8_t>& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

struct Case {
  std::string name;
  ByteWriter request;
  std::string expected;
};

WindowQuery between(Tick t0, Tick t1) {
  WindowQuery query;
  query.t0 = t0;
  query.t1 = t1;
  return query;
}

const std::string kNeedsFile =
    ": this query needs the finished file; follow the run with "
    "TailFrames/TailMetrics instead";

TEST(ErrorReplies, TraceServiceRefusalsArePinned) {
  const std::string path = writeSlog("error_reply_service.slog", 100);
  LiveFeed feed;  // no frames sealed
  TraceService service({path});
  ASSERT_EQ(service.attachLiveFeed("live run", &feed), 1u);
  const Tick end = service.trace(0).totalEnd();

  std::vector<Case> cases;
  cases.push_back({"summary-inverted",
                   encodeSummaryRequest(0, 50 * kMs, 40 * kMs),
                   errorReply(ErrorCode::kBadWindow,
                              "window end must follow window start")});
  cases.push_back({"summary-empty", encodeSummaryRequest(0, kMs, kMs),
                   errorReply(ErrorCode::kBadWindow,
                              "window end must follow window start")});
  cases.push_back({"summary-outside",
                   encodeSummaryRequest(0, end + kMs, end + 2 * kMs),
                   errorReply(ErrorCode::kBadWindow,
                              "window is outside the run")});
  cases.push_back({"summary-unknown-trace",
                   encodeSummaryRequest(7, 0, kMs),
                   errorReply(ErrorCode::kBadTrace, "unknown trace id 7")});
  cases.push_back({"summary-live", encodeSummaryRequest(1, 0, kMs),
                   errorReply(ErrorCode::kBadRequest,
                              "live trace 1" + kNeedsFile)});
  cases.push_back({"window-outside",
                   encodeWindowRequest(0, between(end + kMs, end + 2 * kMs)),
                   errorReply(ErrorCode::kBadWindow,
                              "window is outside the run")});
  cases.push_back({"metrics-bins-over-cap",
                   encodeMetricsRequest(0, kMaxMetricsBins + 1),
                   errorReply(ErrorCode::kBadRequest,
                              "metrics bins capped at 100000")});
  cases.push_back({"metrics-unknown-trace", encodeMetricsRequest(7, 0),
                   errorReply(ErrorCode::kBadTrace, "unknown trace id 7")});
  cases.push_back({"window-live", encodeWindowRequest(1, between(0, kMs)),
                   errorReply(ErrorCode::kBadRequest,
                              "live trace 1" + kNeedsFile)});
  cases.push_back({"preview-live", encodeTraceRequest(Opcode::kPreview, 1),
                   errorReply(ErrorCode::kBadRequest,
                              "live trace 1" + kNeedsFile)});
  cases.push_back({"frame-at-live", encodeFrameAtRequest(1, kMs),
                   errorReply(ErrorCode::kBadRequest,
                              "live trace 1" + kNeedsFile)});
  cases.push_back({"metrics-bins-live", encodeMetricsRequest(1, 16),
                   errorReply(ErrorCode::kBadRequest,
                              "live trace 1: bin count is fixed while the "
                              "run is live")});
  cases.push_back({"metrics-live-nothing-sealed", encodeMetricsRequest(1, 0),
                   errorReply(ErrorCode::kBadRequest,
                              "live trace 1: no metrics sealed yet")});
  cases.push_back({"tail-frames-unknown-trace",
                   encodeTailFramesRequest(7, 0, 0),
                   errorReply(ErrorCode::kBadTrace, "unknown trace id 7")});
  cases.push_back({"tail-metrics-unknown-trace",
                   encodeTailMetricsRequest(7),
                   errorReply(ErrorCode::kBadTrace, "unknown trace id 7")});

  for (const Case& c : cases) {
    EXPECT_EQ(text(processRequest(service, c.request.view()).response),
              c.expected)
        << c.name;
  }
}

BackendSpec spec(const std::string& name, std::uint16_t port) {
  BackendSpec s;
  s.name = name;
  s.host = "127.0.0.1";
  s.port = port;
  return s;
}

/// No health thread, one short retry, a one-failure circuit.
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

TEST(ErrorReplies, RouterRefusalsArePinned) {
  // b1 serves a file trace, b2 a live one with nothing sealed yet, b3 a
  // file trace that goes down before it is ever queried.
  auto file = std::make_unique<TraceServer>(
      std::vector<std::string>{writeSlog("error_reply_b1.slog", 100)});
  LiveFeed feed;
  ServerOptions liveOptions;
  liveOptions.liveFeed = &feed;
  liveOptions.liveName = "live run";
  auto live = std::make_unique<TraceServer>(std::vector<std::string>{},
                                            liveOptions);
  auto doomed = std::make_unique<TraceServer>(
      std::vector<std::string>{writeSlog("error_reply_b3.slog", 60)});
  const std::uint16_t doomedPort = doomed->port();
  RouterService router(testOptions({spec("b1", file->port()),
                                    spec("b2", live->port()),
                                    spec("b3", doomedPort)}));
  std::uint32_t fileId = 0, liveId = 0, doomedId = 0;
  for (const FedTraceEntry& e : router.registry().listTraces()) {
    if (e.backend == "b1") fileId = e.globalId;
    if (e.backend == "b2") liveId = e.globalId;
    if (e.backend == "b3") doomedId = e.globalId;
  }
  ASSERT_NE(fileId, 0u);
  ASSERT_NE(liveId, 0u);
  ASSERT_NE(doomedId, 0u);
  doomed.reset();

  const std::string capped = "metrics bins capped at 100000";
  std::vector<Case> cases;
  cases.push_back({"unknown-global-id",
                   encodeTraceRequest(Opcode::kInfo, 9999),
                   errorReply(ErrorCode::kBadTrace, "unknown trace id 9999")});
  cases.push_back({"compare-unknown-global-id",
                   encodeCompareTracesRequest(fileId, 9999, 24),
                   errorReply(ErrorCode::kBadTrace, "unknown trace id 9999")});
  cases.push_back({"aggregate-matches-nothing",
                   encodeAggregateMetricsRequest("no-such-trace", 24),
                   errorReply(ErrorCode::kBadTrace,
                              "no traces match pattern 'no-such-trace'")});
  cases.push_back({"aggregate-bins-over-cap",
                   encodeAggregateMetricsRequest("", kMaxMetricsBins + 1),
                   errorReply(ErrorCode::kBadRequest, capped)});
  cases.push_back({"compare-bins-over-cap",
                   encodeCompareTracesRequest(fileId, fileId,
                                              kMaxMetricsBins + 1),
                   errorReply(ErrorCode::kBadRequest, capped)});
  cases.push_back({"add-backend-bad-address",
                   encodeAddBackendRequest("b9", "no-port-here"),
                   errorReply(ErrorCode::kBadRequest,
                              "backend address must be host:port, got "
                              "'no-port-here'")});
  cases.push_back({"add-backend-bad-port",
                   encodeAddBackendRequest("b9", "127.0.0.1:http"),
                   errorReply(ErrorCode::kBadRequest,
                              "bad backend port 'http'")});
  cases.push_back({"add-backend-port-out-of-range",
                   encodeAddBackendRequest("b9", "127.0.0.1:70000"),
                   errorReply(ErrorCode::kBadRequest,
                              "backend port out of range: 70000")});
  cases.push_back({"add-backend-duplicate",
                   encodeAddBackendRequest("b1", "127.0.0.1:1"),
                   errorReply(ErrorCode::kBadRequest,
                              "backend 'b1' already registered")});
  cases.push_back({"remove-unknown-backend",
                   encodeRemoveBackendRequest("zz"),
                   errorReply(ErrorCode::kBadRequest,
                              "unknown backend 'zz'")});
  // Relayed byte-for-byte from the live backend.
  cases.push_back({"window-live-relayed",
                   encodeWindowRequest(liveId, between(0, kMs)),
                   errorReply(ErrorCode::kBadRequest,
                              "live trace 0" + kNeedsFile)});
  // The only backend of the trace is down: every pass fails to connect.
  cases.push_back(
      {"only-backend-down", encodeTraceRequest(Opcode::kInfo, doomedId),
       errorReply(ErrorCode::kOverloaded,
                  "trace " + std::to_string(doomedId) +
                      " unavailable: connect failed after 1 attempt(s): "
                      "connect failed: Connection refused at endpoint "
                      "'127.0.0.1:" +
                      std::to_string(doomedPort) + "'")});

  ConnectionContext ctx;
  for (const Case& c : cases) {
    EXPECT_EQ(text(router.handle(c.request.view(), ctx).response),
              c.expected)
        << c.name;
  }
}

TEST(ErrorReplies, RouterRelaysABackendErrorWithItsCodeAndTextOnce) {
  // A compare fetches both traces' metrics at the requested bin count; a
  // live backend refuses any explicit count. The router's reply carries
  // the backend's code and its message once, with no second code prefix.
  TraceServer file(
      std::vector<std::string>{writeSlog("error_reply_relay.slog", 100)});
  LiveFeed feed;
  ServerOptions liveOptions;
  liveOptions.liveFeed = &feed;
  TraceServer live(std::vector<std::string>{}, liveOptions);
  RouterService router(
      testOptions({spec("b1", file.port()), spec("b2", live.port())}));
  std::uint32_t fileId = 0, liveId = 0;
  for (const FedTraceEntry& e : router.registry().listTraces()) {
    (e.backend == "b1" ? fileId : liveId) = e.globalId;
  }
  ConnectionContext ctx;
  EXPECT_EQ(
      text(router
               .handle(encodeCompareTracesRequest(fileId, liveId, 24).view(),
                       ctx)
               .response),
      errorReply(ErrorCode::kBadRequest,
                 "live trace 0: bin count is fixed while the run is live"));
}

}  // namespace
}  // namespace ute
