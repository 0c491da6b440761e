// End-to-end integration: a real TraceServer on an ephemeral TCP port,
// queried by concurrent TraceClients. The acceptance bar is
// byte-identity: every response payload a client receives over the wire
// must equal processRequest() run locally against a fresh TraceService
// on the same SLOG file — the network layer may not change a single
// byte, under concurrency, for any opcode.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "interval/standard_profile.h"
#include "server/client.h"
#include "server/server.h"
#include "server/tcp.h"
#include "slog/slog_writer.h"
#include "temp_dir.h"

namespace ute {
namespace {

std::string writeSlog(const std::string& name) {
  const std::string path = tempPath(name);
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.recordsPerFrame = 48;
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {{2, "compute"}});
  for (int i = 0; i < 500; ++i) {
    ByteWriter extra;
    extra.u64(static_cast<Tick>(i) * kMs);
    w.addRecord(RecordView::parse(
        encodeRecordBody(makeIntervalType(kRunningState, Bebits::kComplete),
                         static_cast<Tick>(i) * kMs, kMs / 2, 0, i % 2, 0,
                         extra.view())
            .view()));
  }
  w.close();
  return path;
}

/// The deterministic request mix a client issues (stats excluded — its
/// payload depends on live server counters, not on the trace).
std::vector<ByteWriter> requestMix(int seed, Tick totalEnd) {
  std::vector<ByteWriter> out;
  out.push_back(encodeHelloRequest());
  out.push_back(encodeTraceRequest(Opcode::kInfo, 0));
  out.push_back(encodeTraceRequest(Opcode::kStates, 0));
  out.push_back(encodeTraceRequest(Opcode::kThreads, 0));
  out.push_back(encodeTraceRequest(Opcode::kPreview, 0));
  for (int i = 0; i < 8; ++i) {
    WindowQuery q;
    q.t0 = static_cast<Tick>((seed * 13 + i * 41) % 300) * kMs;
    q.t1 = q.t0 + static_cast<Tick>(20 + (seed * 7 + i * 11) % 120) * kMs;
    if (i % 3 == 1) q.node = static_cast<NodeId>(i % 2);
    if (i % 4 == 2) {
      q.states = {static_cast<std::uint32_t>(kRunningState)};
    }
    out.push_back(encodeWindowRequest(0, q));
    out.push_back(encodeSummaryRequest(0, q.t0, q.t1));
    out.push_back(encodeFrameAtRequest(0, (q.t0 + q.t1) / 2));
  }
  // Requests that produce error frames must be byte-identical too.
  out.push_back(encodeTraceRequest(Opcode::kInfo, 42));
  out.push_back(encodeSummaryRequest(0, totalEnd + kMs, totalEnd + 2 * kMs));
  return out;
}

TEST(ServerRoundTrip, FourConcurrentClientsGetByteIdenticalAnswers) {
  const std::string path = writeSlog("roundtrip_test.slog");
  TraceServer server({path});
  ASSERT_NE(server.port(), 0);

  // Independent ground truth: a fresh service on the same file, driven
  // through the exact same dispatch the server uses.
  TraceService local({path});
  const Tick totalEnd = local.trace(0).totalEnd();

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      try {
        TraceClient client("127.0.0.1", server.port());
        // The local replay threads its own ConnectionContext: the mix
        // opens with a hello, so the replay negotiates exactly what the
        // server connection negotiated (columnar frames) and the raw
        // reply bytes stay comparable.
        ConnectionContext ctx;
        for (int pass = 0; pass < 3; ++pass) {
          for (const ByteWriter& request : requestMix(c + pass, totalEnd)) {
            const std::vector<std::uint8_t> wire =
                client.roundTrip(request.view());
            const std::vector<std::uint8_t> direct =
                processRequest(local, request.view(), ctx).response;
            if (wire != direct) ++mismatches;
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  server.stop();
}

TEST(ServerRoundTrip, V1OnlyClientStillGetsCorrectRowAnswers) {
  // A pre-v2 client — speaking the frozen v1 hello, never advertising an
  // encoding mask — must keep working against a server whose files are
  // all v2 columnar: version-1 hello reply, row-encoded frame payloads,
  // and query answers identical to a local row-context replay.
  const std::string path = writeSlog("roundtrip_v1_client.slog");
  TraceServer server({path});
  ASSERT_NE(server.port(), 0);
  TraceService local({path});
  ASSERT_EQ(local.trace(0).formatVersion(), 2u);  // server holds v2 files

  TcpSocket socket = TcpSocket::connectTo("127.0.0.1", server.port());
  const auto roundTrip = [&socket](const ByteWriter& request) {
    sendMessage(socket, request.view());
    const auto reply = recvMessage(socket);
    EXPECT_TRUE(reply.has_value());
    return reply.value_or(std::vector<std::uint8_t>{});
  };

  // The exact v1 handshake: 7-byte reply, version 1, no encoding byte.
  const std::vector<std::uint8_t> helloBytes =
      roundTrip(encodeLegacyHelloRequest());
  ASSERT_EQ(helloBytes.size(), 7u);
  const HelloReply hello = decodeHelloReply(helloBytes);
  EXPECT_EQ(hello.version, 1u);
  EXPECT_EQ(hello.traceCount, 1u);
  EXPECT_EQ(hello.frameEncoding, FrameEncoding::kRow);

  // Frame-carrying replies stay row-encoded and decode (with the v1
  // row decoder) to the same answers as a local row-context replay.
  ConnectionContext rowCtx;  // defaults to kRow — what a v1 peer gets
  WindowQuery q;
  q.t0 = 10 * kMs;
  q.t1 = 120 * kMs;
  const ByteWriter windowRequest = encodeWindowRequest(0, q);
  const std::vector<std::uint8_t> wireWindow = roundTrip(windowRequest);
  EXPECT_EQ(wireWindow,
            processRequest(local, windowRequest.view(), rowCtx).response);
  const WindowResult window =
      decodeWindowReply(wireWindow, FrameEncoding::kRow);
  const WindowResult direct = local.window(0, q);
  ASSERT_FALSE(direct.intervals.empty());
  ASSERT_EQ(window.intervals.size(), direct.intervals.size());
  for (std::size_t i = 0; i < window.intervals.size(); ++i) {
    EXPECT_EQ(window.intervals[i].start, direct.intervals[i].start) << i;
    EXPECT_EQ(window.intervals[i].dura, direct.intervals[i].dura) << i;
    EXPECT_EQ(window.intervals[i].stateId, direct.intervals[i].stateId)
        << i;
  }

  const ByteWriter frameRequest = encodeFrameAtRequest(0, 50 * kMs);
  const std::vector<std::uint8_t> wireFrame = roundTrip(frameRequest);
  EXPECT_EQ(wireFrame,
            processRequest(local, frameRequest.view(), rowCtx).response);
  const FrameReply frame = decodeFrameAtReply(wireFrame, FrameEncoding::kRow);
  EXPECT_GT(frame.data.intervals.size(), 0u);

  socket.close();
  server.stop();
}

TEST(ServerRoundTrip, TypedErrorsTravelTheWire) {
  const std::string path = writeSlog("roundtrip_err.slog");
  TraceServer server({path});
  TraceClient client("127.0.0.1", server.port());
  try {
    client.info(9);
    FAIL() << "bad trace id must fail";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadTrace);
  }
  // The connection stays usable after an error frame.
  EXPECT_EQ(client.info(0).path, path);
  server.stop();
}

TEST(ServerRoundTrip, StatsReflectServerSideCaching) {
  const std::string path = writeSlog("roundtrip_stats.slog");
  TraceServer server({path});
  TraceClient client("127.0.0.1", server.port());
  WindowQuery q;
  q.t0 = 0;
  q.t1 = 100 * kMs;
  client.window(0, q);
  const ServiceStats cold = client.stats();
  for (int i = 0; i < 5; ++i) client.window(0, q);
  const ServiceStats warm = client.stats();
  EXPECT_GT(warm.cache.hits, cold.cache.hits);
  EXPECT_EQ(warm.cache.misses, cold.cache.misses);  // frames were cached
  EXPECT_GT(warm.pool.executed, cold.pool.executed);
  server.stop();
}

TEST(ServerRoundTrip, ShutdownOpcodeStopsTheServer) {
  const std::string path = writeSlog("roundtrip_shutdown.slog");
  TraceServer server({path});
  const std::uint16_t port = server.port();
  {
    TraceClient client("127.0.0.1", port);
    client.shutdownServer();
  }
  for (int i = 0; i < 200 && !server.stopRequested(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(server.stopRequested());
  server.stop();
  EXPECT_THROW(TraceClient("127.0.0.1", port), IoError);
}

}  // namespace
}  // namespace ute
