// Wire-protocol tests: request/response round-trips through the same
// encode/decode pair the client and server use, error frames, version
// handshake, and rejection of malformed request bytes.
#include <gtest/gtest.h>

#include <filesystem>

#include "interval/standard_profile.h"
#include "server/protocol.h"
#include "slog/slog_writer.h"
#include "temp_dir.h"

namespace ute {
namespace {

/// One tiny SLOG file shared by every test in this file.
class ProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    path_ = new std::string(tempPath("protocol_test.slog"));
    const Profile profile = makeStandardProfile();
    SlogOptions options;
    options.recordsPerFrame = 32;
    SlogWriter w(*path_, options, profile,
                 {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                  {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
                 {{1, "Main Loop"}});
    for (int i = 0; i < 100; ++i) {
      ByteWriter extra;
      extra.u64(static_cast<Tick>(i) * kMs);
      w.addRecord(RecordView::parse(
          encodeRecordBody(
              makeIntervalType(kRunningState, Bebits::kComplete),
              static_cast<Tick>(i) * kMs, kMs / 2, 0, i % 2, 0,
              extra.view())
              .view()));
    }
    w.close();
    service_ = new TraceService({*path_});
  }
  static void TearDownTestSuite() {
    delete service_;
    service_ = nullptr;
    delete path_;
    path_ = nullptr;
  }

  static std::vector<std::uint8_t> exec(const ByteWriter& request) {
    return processRequest(*service_, request.view()).response;
  }

  static std::string* path_;
  static TraceService* service_;
};

std::string* ProtocolTest::path_ = nullptr;
TraceService* ProtocolTest::service_ = nullptr;

TEST_F(ProtocolTest, HelloHandshake) {
  const HelloReply reply = decodeHelloReply(exec(encodeHelloRequest()));
  EXPECT_EQ(reply.version, kProtocolVersion);
  EXPECT_EQ(reply.traceCount, 1u);
}

TEST_F(ProtocolTest, HelloVersionMismatchRejected) {
  ByteWriter bad;
  bad.u8(static_cast<std::uint8_t>(Opcode::kHello));
  bad.u32(kQueryMagic);
  bad.u16(kProtocolVersion + 1);
  try {
    decodeHelloReply(exec(bad));
    FAIL() << "mismatched version must be refused";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadVersion);
  }
}

TEST_F(ProtocolTest, HelloNegotiatesColumnarFrames) {
  ConnectionContext ctx;
  const RequestOutcome outcome =
      processRequest(*service_, encodeHelloRequest().view(), ctx);
  const HelloReply reply = decodeHelloReply(outcome.response);
  EXPECT_EQ(reply.version, kProtocolVersion);
  EXPECT_EQ(reply.traceCount, 1u);
  // Both sides handle columnar, so the server must prefer it — and must
  // record the choice on the connection for later frame replies.
  EXPECT_EQ(reply.frameEncoding, FrameEncoding::kColumnar);
  EXPECT_EQ(ctx.frameEncoding, FrameEncoding::kColumnar);
}

TEST_F(ProtocolTest, HelloRowOnlyClientKeepsRowFrames) {
  ConnectionContext ctx;
  const std::uint8_t rowOnly =
      1u << static_cast<std::uint8_t>(FrameEncoding::kRow);
  const RequestOutcome outcome =
      processRequest(*service_, encodeHelloRequest(rowOnly).view(), ctx);
  const HelloReply reply = decodeHelloReply(outcome.response);
  EXPECT_EQ(reply.version, kProtocolVersion);
  EXPECT_EQ(reply.frameEncoding, FrameEncoding::kRow);
  EXPECT_EQ(ctx.frameEncoding, FrameEncoding::kRow);
}

TEST_F(ProtocolTest, LegacyHelloGetsExactV1Reply) {
  ConnectionContext ctx;
  const RequestOutcome outcome =
      processRequest(*service_, encodeLegacyHelloRequest().view(), ctx);
  // The v1 reply layout is frozen: u8 ok, u16 version, u32 traceCount —
  // exactly 7 bytes, no encoding byte a v1 decoder would choke on.
  ASSERT_EQ(outcome.response.size(), 7u);
  const HelloReply reply = decodeHelloReply(outcome.response);
  EXPECT_EQ(reply.version, 1u);
  EXPECT_EQ(reply.traceCount, 1u);
  EXPECT_EQ(reply.frameEncoding, FrameEncoding::kRow);
  EXPECT_EQ(ctx.frameEncoding, FrameEncoding::kRow);
}

TEST_F(ProtocolTest, HelloWithNoMutualEncodingRejected) {
  ConnectionContext ctx;
  const RequestOutcome outcome =
      processRequest(*service_, encodeHelloRequest(0b100).view(), ctx);
  try {
    decodeHelloReply(outcome.response);
    FAIL() << "a hello with no mutually supported encoding must be refused";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadVersion);
  }
}

TEST_F(ProtocolTest, NegotiatedEncodingsDecodeToIdenticalWindows) {
  ConnectionContext row;
  processRequest(
      *service_,
      encodeHelloRequest(1u << static_cast<std::uint8_t>(FrameEncoding::kRow))
          .view(),
      row);
  ConnectionContext columnar;
  processRequest(*service_, encodeHelloRequest().view(), columnar);
  ASSERT_EQ(row.frameEncoding, FrameEncoding::kRow);
  ASSERT_EQ(columnar.frameEncoding, FrameEncoding::kColumnar);

  WindowQuery query;
  query.t0 = 0;
  query.t1 = 50 * kMs;
  const ByteWriter request = encodeWindowRequest(0, query);
  const std::vector<std::uint8_t> rowBytes =
      processRequest(*service_, request.view(), row).response;
  const std::vector<std::uint8_t> colBytes =
      processRequest(*service_, request.view(), columnar).response;
  // The wire bytes differ (that's the point of the negotiation)…
  EXPECT_NE(rowBytes, colBytes);
  // …but the decoded results must be exactly the same query answer.
  const WindowResult a = decodeWindowReply(rowBytes, FrameEncoding::kRow);
  const WindowResult b =
      decodeWindowReply(colBytes, FrameEncoding::kColumnar);
  EXPECT_EQ(a.t0, b.t0);
  EXPECT_EQ(a.t1, b.t1);
  ASSERT_FALSE(a.intervals.empty());
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    EXPECT_EQ(a.intervals[i].stateId, b.intervals[i].stateId) << i;
    EXPECT_EQ(a.intervals[i].start, b.intervals[i].start) << i;
    EXPECT_EQ(a.intervals[i].dura, b.intervals[i].dura) << i;
    EXPECT_EQ(a.intervals[i].node, b.intervals[i].node) << i;
    EXPECT_EQ(a.intervals[i].thread, b.intervals[i].thread) << i;
  }
  ASSERT_EQ(a.arrows.size(), b.arrows.size());
}

TEST_F(ProtocolTest, InfoStatesThreadsRoundTrip) {
  const SlogReader& reader = service_->trace(0);
  const TraceInfo info =
      decodeInfoReply(exec(encodeTraceRequest(Opcode::kInfo, 0)));
  EXPECT_EQ(info.path, *path_);
  EXPECT_EQ(info.totalStart, reader.totalStart());
  EXPECT_EQ(info.totalEnd, reader.totalEnd());
  EXPECT_EQ(info.frames, reader.frameIndex().size());

  const auto states =
      decodeStatesReply(exec(encodeTraceRequest(Opcode::kStates, 0)));
  ASSERT_EQ(states.size(), reader.states().size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_EQ(states[i].id, reader.states()[i].id);
    EXPECT_EQ(states[i].rgb, reader.states()[i].rgb);
    EXPECT_EQ(states[i].name, reader.states()[i].name);
  }

  const auto threads =
      decodeThreadsReply(exec(encodeTraceRequest(Opcode::kThreads, 0)));
  ASSERT_EQ(threads.size(), reader.threads().size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    EXPECT_EQ(threads[i].node, reader.threads()[i].node);
    EXPECT_EQ(threads[i].ltid, reader.threads()[i].ltid);
    EXPECT_EQ(threads[i].type, reader.threads()[i].type);
  }
}

TEST_F(ProtocolTest, PreviewRoundTrip) {
  const SlogPreview decoded =
      decodePreviewReply(exec(encodeTraceRequest(Opcode::kPreview, 0)));
  const SlogPreview& direct = service_->trace(0).preview();
  EXPECT_EQ(decoded.origin, direct.origin);
  EXPECT_EQ(decoded.binWidth, direct.binWidth);
  EXPECT_EQ(decoded.bins, direct.bins);
  ASSERT_EQ(decoded.perStateBinTime.size(), direct.perStateBinTime.size());
  for (std::size_t s = 0; s < decoded.perStateBinTime.size(); ++s) {
    EXPECT_EQ(decoded.perStateBinTime[s], direct.perStateBinTime[s]) << s;
  }
}

TEST_F(ProtocolTest, WindowRoundTripPreservesEveryField) {
  WindowQuery query;
  query.t0 = 10 * kMs;
  query.t1 = 60 * kMs;
  query.node = 1;
  const WindowResult direct = service_->window(0, query);
  ASSERT_FALSE(direct.intervals.empty());
  const WindowResult decoded =
      decodeWindowReply(exec(encodeWindowRequest(0, query)));
  EXPECT_EQ(decoded.t0, direct.t0);
  EXPECT_EQ(decoded.t1, direct.t1);
  ASSERT_EQ(decoded.intervals.size(), direct.intervals.size());
  for (std::size_t i = 0; i < decoded.intervals.size(); ++i) {
    const SlogInterval& a = decoded.intervals[i];
    const SlogInterval& b = direct.intervals[i];
    EXPECT_EQ(a.stateId, b.stateId);
    EXPECT_EQ(a.bebits, b.bebits);
    EXPECT_EQ(a.pseudo, b.pseudo);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.dura, b.dura);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.cpu, b.cpu);
    EXPECT_EQ(a.thread, b.thread);
  }
  EXPECT_EQ(decoded.arrows.size(), direct.arrows.size());
}

TEST_F(ProtocolTest, SummaryRoundTrip) {
  const auto direct = service_->summary(0, 0, 100 * kMs);
  const auto decoded =
      decodeSummaryReply(exec(encodeSummaryRequest(0, 0, 100 * kMs)));
  ASSERT_EQ(decoded.size(), direct.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].stateId, direct[i].stateId);
    EXPECT_EQ(decoded[i].ns, direct[i].ns);
  }
}

TEST_F(ProtocolTest, FrameAtRoundTrip) {
  const FrameReply reply =
      decodeFrameAtReply(exec(encodeFrameAtRequest(0, 40 * kMs)));
  const auto idx = service_->trace(0).frameIndexFor(40 * kMs);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(reply.frameIdx, *idx);
  const auto frame = service_->frame(0, *idx);
  ASSERT_EQ(reply.data.intervals.size(), frame->intervals.size());
  EXPECT_EQ(reply.entry.records,
            service_->trace(0).frameIndex()[*idx].records);
}

TEST_F(ProtocolTest, StatsDecode) {
  const ServiceStats stats = decodeStatsReply(exec(encodeStatsRequest()));
  const FrameCache::Stats direct = service_->cache().stats();
  EXPECT_EQ(stats.cache.hits + stats.cache.misses,
            direct.hits + direct.misses);
}

TEST_F(ProtocolTest, ErrorFramesCarryTypedCodes) {
  try {
    decodeInfoReply(exec(encodeTraceRequest(Opcode::kInfo, 99)));
    FAIL() << "bad trace id must be refused";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadTrace);
  }
  try {
    decodeWindowReply(exec(encodeSummaryRequest(0, 50, 50)));
    FAIL() << "empty window must be refused";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadWindow);
  }
  try {
    decodeFrameAtReply(
        exec(encodeFrameAtRequest(0, Tick{1} << 62)));
    FAIL() << "time outside the run must be refused";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadWindow);
  }
}

TEST_F(ProtocolTest, MalformedBytesAreBadRequests) {
  // Unknown opcode.
  ByteWriter unknown;
  unknown.u8(200);
  try {
    decodeOkReply(exec(unknown));
    FAIL();
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
  // Truncated window request (opcode byte only).
  ByteWriter truncated;
  truncated.u8(static_cast<std::uint8_t>(Opcode::kWindow));
  try {
    decodeWindowReply(exec(truncated));
    FAIL();
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
  // Empty payload.
  const auto outcome = processRequest(*service_, {});
  try {
    decodeOkReply(outcome.response);
    FAIL();
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
}

TEST_F(ProtocolTest, ForgedStateFilterCountIsABadRequest) {
  // op, trace id, t0, t1, node flag + id, thread flag + id: the state
  // count sits at byte 31. A count the request cannot hold is refused
  // before the server reserves room for it.
  WindowQuery query;
  query.t1 = 10 * kMs;
  query.states = {static_cast<std::uint32_t>(kRunningState)};
  const ByteWriter request = encodeWindowRequest(0, query);
  std::vector<std::uint8_t> bytes(request.view().begin(),
                                  request.view().end());
  for (std::size_t i = 31; i < 35; ++i) bytes.at(i) = 0xff;
  try {
    decodeWindowReply(processRequest(*service_, bytes).response);
    FAIL() << "a forged state count was accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest) << e.what();
  }
}

TEST_F(ProtocolTest, ShutdownOpcodeSignalsOutcome) {
  const RequestOutcome outcome =
      processRequest(*service_, encodeShutdownRequest().view());
  EXPECT_TRUE(outcome.shutdown);
  decodeOkReply(outcome.response);  // must be a success frame
}

}  // namespace
}  // namespace ute
