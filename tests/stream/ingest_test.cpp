// Live ingest (docs/STREAMING.md): the wire protocol round-trips and
// rejects malformed payloads with structured errors; the ingest server
// merges streamed sessions byte-identically to the batch pipeline,
// refuses bad hellos with a reply (not a bare EOF), treats a vanished
// session as an abort, withholds a records ack while the session's byte
// budget is full, and publishes the run to the query protocol's
// TailFrames/TailMetrics while it is in flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "clock/clock_model.h"
#include "interval/standard_profile.h"
#include "merge/merger.h"
#include "server/client.h"
#include "server/server.h"
#include "stream/ingest_client.h"
#include "stream/ingest_server.h"
#include "support/file_io.h"

#include <unistd.h>

namespace ute {
namespace {

std::string tempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

std::string writeNodeFile(const std::string& name, NodeId node,
                          double driftPpm, TickDelta offsetNs, int n) {
  LocalClockModel::Params params;
  params.driftPpm = driftPpm;
  params.offsetNs = offsetNs;
  const LocalClockModel clock(params);
  IntervalFileOptions options;
  options.profileVersion = kStandardProfileVersion;
  options.fieldSelectionMask = kNodeFileMask;
  std::vector<ThreadEntry> threads = {
      {node, 1000 + node, 10000 + node, node, 0, ThreadType::kMpi}};
  const std::string path = tempPath(name);
  IntervalFileWriter w(path, options, threads);
  const auto clockSync = [&](Tick trueNs) {
    ByteWriter extra;
    extra.u64(trueNs);
    return encodeRecordBody(
        makeIntervalType(kClockSyncState, Bebits::kComplete),
        clock.read(trueNs), 0, 0, node, 0, extra.view());
  };
  w.addRecord(clockSync(0).view());
  for (int i = 0; i < n; ++i) {
    const Tick t = static_cast<Tick>(i) * 2 * kMs;
    w.addRecord(encodeRecordBody(
                    makeIntervalType(kRunningState, Bebits::kComplete),
                    clock.read(t), clock.read(t + kMs) - clock.read(t), 0,
                    node, 0)
                    .view());
  }
  w.addRecord(clockSync(static_cast<Tick>(n) * 2 * kMs).view());
  w.close();
  return path;
}

struct InputFeed {
  std::vector<ThreadEntry> threads;
  std::vector<TimestampPair> pairs;
  std::vector<std::vector<std::uint8_t>> records;
};

InputFeed loadFeed(const std::string& path) {
  InputFeed feed;
  IntervalFileReader reader(path);
  feed.threads = reader.threads();
  auto stream = reader.records();
  RecordView view;
  while (stream.next(view)) {
    feed.records.emplace_back(view.body.begin(), view.body.end());
    if (view.eventType() == kClockSyncState &&
        view.body.size() >= kCommonPrefixBytes + 8) {
      TimestampPair p;
      p.local = view.start;
      std::uint64_t g = 0;
      for (int i = 0; i < 8; ++i) {
        g |= static_cast<std::uint64_t>(view.body[kCommonPrefixBytes + i])
             << (8 * i);
      }
      p.global = g;
      feed.pairs.push_back(p);
    }
  }
  return feed;
}

// --- protocol ---------------------------------------------------------------

TEST(IngestProtocol, EveryMessageRoundTrips) {
  const auto hello = encodeIngestHello(7);
  EXPECT_EQ(peekIngestOp(hello.view()), IngestOp::kHello);
  const IngestHello h = decodeIngestHello(hello.view());
  EXPECT_EQ(h.node, 7);
  EXPECT_EQ(h.version, kIngestVersion);

  std::vector<ThreadEntry> threads = {{3, 1003, 10003, 3, 0,
                                       ThreadType::kMpi},
                                      {3, 1004, 10004, 3, 1,
                                       ThreadType::kSystem}};
  const auto t = encodeIngestThreads(threads);
  EXPECT_EQ(peekIngestOp(t.view()), IngestOp::kThreads);
  const auto decodedThreads = decodeIngestThreads(t.view());
  ASSERT_EQ(decodedThreads.size(), 2u);
  EXPECT_EQ(decodedThreads[1].type, ThreadType::kSystem);

  const auto m = encodeIngestMarker(5, "solve phase");
  const auto [id, name] = decodeIngestMarker(m.view());
  EXPECT_EQ(id, 5u);
  EXPECT_EQ(name, "solve phase");

  std::vector<TimestampPair> pairs(3);
  pairs[1].global = 100;
  pairs[1].local = 105;
  const auto cp = encodeIngestClockPairs(pairs, /*final=*/true);
  const IngestClockPairs decodedPairs = decodeIngestClockPairs(cp.view());
  EXPECT_TRUE(decodedPairs.final);
  ASSERT_EQ(decodedPairs.pairs.size(), 3u);
  EXPECT_EQ(decodedPairs.pairs[1].local, 105u);

  std::vector<std::vector<std::uint8_t>> bodies = {{1, 2, 3}, {4, 5}};
  const auto r = encodeIngestRecords(bodies);
  const auto decodedBodies = decodeIngestRecords(r.view());
  ASSERT_EQ(decodedBodies.size(), bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    EXPECT_TRUE(std::equal(decodedBodies[i].begin(), decodedBodies[i].end(),
                           bodies[i].begin(), bodies[i].end()));
  }

  EXPECT_EQ(peekIngestOp(encodeIngestBye().view()), IngestOp::kBye);

  std::string message;
  const auto reply = encodeIngestReply(IngestStatus::kUnknownNode, "node 9");
  EXPECT_EQ(decodeIngestReply(reply, &message), IngestStatus::kUnknownNode);
  EXPECT_EQ(message, "node 9");
}

TEST(IngestProtocol, TruncatedAndCorruptedPayloadsThrowNeverCrash) {
  // Fuzz sweep: every prefix of every valid message, plus a corrupted op
  // byte, must either decode or throw IngestError — nothing else.
  std::vector<ThreadEntry> threads = {{0, 1000, 10000, 0, 0,
                                       ThreadType::kMpi}};
  std::vector<TimestampPair> pairs(5);
  std::vector<std::vector<std::uint8_t>> bodies = {{9, 9, 9, 9}};
  std::vector<std::vector<std::uint8_t>> messages;
  const auto keep = [&](const ByteWriter& w) {
    messages.emplace_back(w.view().begin(), w.view().end());
  };
  keep(encodeIngestHello(1));
  keep(encodeIngestThreads(threads));
  keep(encodeIngestMarker(2, "m"));
  keep(encodeIngestClockPairs(pairs, false));
  keep(encodeIngestRecords(bodies));
  keep(encodeIngestBye());

  const auto tryDecode = [](std::span<const std::uint8_t> payload) {
    switch (payload.empty() ? IngestOp::kBye : peekIngestOp(payload)) {
      case IngestOp::kHello:
        decodeIngestHello(payload);
        break;
      case IngestOp::kThreads:
        decodeIngestThreads(payload);
        break;
      case IngestOp::kMarker:
        decodeIngestMarker(payload);
        break;
      case IngestOp::kClockPairs:
        decodeIngestClockPairs(payload);
        break;
      case IngestOp::kRecords:
        decodeIngestRecords(payload);
        break;
      case IngestOp::kBye:
        break;
    }
  };

  int threw = 0;
  for (const auto& msg : messages) {
    for (std::size_t cut = 0; cut < msg.size(); ++cut) {
      std::vector<std::uint8_t> prefix(msg.begin(), msg.begin() + cut);
      try {
        tryDecode(prefix);
      } catch (const IngestError&) {
        ++threw;
      }
    }
    // Corrupt the op byte (valid and invalid neighbors alike).
    for (const std::uint8_t op : {0, 7, 42, 255}) {
      std::vector<std::uint8_t> twisted = msg;
      twisted[0] = op;
      try {
        tryDecode(twisted);
      } catch (const IngestError&) {
        ++threw;
      }
    }
  }
  EXPECT_GT(threw, 20);  // the sweep actually exercised failure paths

  // A hello with the wrong magic is the version-skew case.
  auto hello = encodeIngestHello(0);
  std::vector<std::uint8_t> wrongMagic(hello.view().begin(),
                                       hello.view().end());
  wrongMagic[1] ^= 0xff;
  try {
    decodeIngestHello(wrongMagic);
    FAIL() << "wrong magic accepted";
  } catch (const IngestError& e) {
    EXPECT_EQ(e.status(), IngestStatus::kBadVersion);
  }
}

/// A wire message with a u32 0xFFFFFFFF written at `at`.
std::vector<std::uint8_t> withMaxCount(const ByteWriter& w, std::size_t at) {
  std::vector<std::uint8_t> bytes(w.view().begin(), w.view().end());
  for (std::size_t i = 0; i < 4; ++i) bytes.at(at + i) = 0xff;
  return bytes;
}

void expectBadRequest(const std::function<void()>& decode) {
  try {
    decode();
    FAIL() << "a forged count was accepted";
  } catch (const IngestError& e) {
    EXPECT_EQ(e.status(), IngestStatus::kBadRequest) << e.what();
  }
}

TEST(IngestProtocol, ForgedThreadCountIsABadRequestBeforeAllocating) {
  const auto bytes = withMaxCount(
      encodeIngestThreads({{0, 1000, 10000, 0, 0, ThreadType::kMpi}}), 1);
  expectBadRequest([&] { decodeIngestThreads(bytes); });
}

TEST(IngestProtocol, ForgedClockPairCountIsABadRequestBeforeAllocating) {
  const std::vector<TimestampPair> pairs(2);
  const auto bytes = withMaxCount(encodeIngestClockPairs(pairs, false), 2);
  expectBadRequest([&] { decodeIngestClockPairs(bytes); });
}

TEST(IngestProtocol, UnknownThreadTypeIsABadRequest) {
  auto w = encodeIngestThreads({{0, 1000, 10000, 0, 0, ThreadType::kMpi}});
  std::vector<std::uint8_t> bytes(w.view().begin(), w.view().end());
  for (const std::uint8_t type : {3, 31, 32, 200, 255}) {
    bytes.back() = type;
    expectBadRequest([&] { decodeIngestThreads(bytes); });
  }
}

// --- server -----------------------------------------------------------------

TEST(IngestServer, StreamedSessionsMatchBatchMergeByteForByte) {
  const Profile profile = makeStandardProfile();
  std::vector<std::string> inputs;
  for (int node = 0; node < 3; ++node) {
    inputs.push_back(writeNodeFile(
        "ingest_eq_" + std::to_string(node) + ".uti", node,
        node * 9.0 - 9.0, node * 400, 150));
  }
  IntervalMerger batch(inputs, profile);
  const MergeResult batchResult = batch.mergeTo(tempPath("ingest_batch.uti"));

  IngestServerOptions options;
  options.expectedNodes = {0, 1, 2};
  options.outPath = tempPath("ingest_stream.uti");
  IngestServer server(profile, options);

  std::vector<std::thread> senders;
  for (int node = 0; node < 3; ++node) {
    senders.emplace_back([&, node] {
      const InputFeed feed = loadFeed(inputs[static_cast<std::size_t>(node)]);
      IngestClient client("127.0.0.1", server.port(),
                          static_cast<NodeId>(node));
      client.sendThreads(feed.threads);
      client.sendClockPairs(feed.pairs, /*final=*/true);
      for (const auto& body : feed.records) client.queueRecord(body);
      client.bye();
    });
  }
  for (auto& t : senders) t.join();
  const StreamMergeResult result = server.wait();

  EXPECT_EQ(result.recordsOut, batchResult.recordsOut);
  EXPECT_EQ(result.abortClosures, 0u);
  EXPECT_EQ(readWholeFile(tempPath("ingest_stream.uti")),
            readWholeFile(tempPath("ingest_batch.uti")));
}

TEST(IngestServer, BadHelloGetsStructuredReplyNotBareEof) {
  const Profile profile = makeStandardProfile();
  IngestServerOptions options;
  options.expectedNodes = {0};
  options.outPath = tempPath("ingest_badhello.uti");
  IngestServer server(profile, options);

  {
    // Wrong magic: the query protocol's hello, say, dialed at the wrong
    // port. The server must answer kBadVersion before closing.
    TcpSocket socket = TcpSocket::connectTo("127.0.0.1", server.port());
    auto hello = encodeIngestHello(0);
    std::vector<std::uint8_t> wrong(hello.view().begin(),
                                    hello.view().end());
    wrong[1] ^= 0xff;
    sendMessage(socket, wrong);
    const auto reply = recvMessage(socket);
    ASSERT_TRUE(reply.has_value()) << "EOF instead of a structured reply";
    std::string message;
    EXPECT_EQ(decodeIngestReply(*reply, &message),
              IngestStatus::kBadVersion);
    EXPECT_FALSE(message.empty());
  }
  {
    // A non-hello first message is a protocol violation, kBadRequest.
    TcpSocket socket = TcpSocket::connectTo("127.0.0.1", server.port());
    sendMessage(socket, encodeIngestBye().view());
    const auto reply = recvMessage(socket);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(decodeIngestReply(*reply), IngestStatus::kBadRequest);
  }
  {
    // An unexpected node id gets kUnknownNode (client-side: IngestError).
    EXPECT_THROW(IngestClient("127.0.0.1", server.port(), 99), IngestError);
  }
  server.stop();
}

TEST(IngestServer, DuplicateNodeClaimRefused) {
  const Profile profile = makeStandardProfile();
  IngestServerOptions options;
  options.expectedNodes = {0};
  options.outPath = tempPath("ingest_dup.uti");
  IngestServer server(profile, options);
  IngestClient first("127.0.0.1", server.port(), 0);
  try {
    IngestClient second("127.0.0.1", server.port(), 0);
    FAIL() << "duplicate claim accepted";
  } catch (const IngestError& e) {
    EXPECT_EQ(e.status(), IngestStatus::kBadRequest);
  }
  server.stop();
}

TEST(IngestServer, UnknownThreadTypeGetsBadRequest) {
  // A type byte of 200 would be a shift past the width of the merge's
  // thread-type mask; the session must refuse it before the merge sees it.
  const Profile profile = makeStandardProfile();
  IngestServerOptions options;
  options.expectedNodes = {0};
  options.outPath = tempPath("ingest_badtype.uti");
  IngestServer server(profile, options);
  TcpSocket socket = TcpSocket::connectTo("127.0.0.1", server.port());
  sendMessage(socket, encodeIngestHello(0).view());
  const auto helloReply = recvMessage(socket);
  ASSERT_TRUE(helloReply.has_value());
  ASSERT_EQ(decodeIngestReply(*helloReply), IngestStatus::kOk);

  auto threads =
      encodeIngestThreads({{0, 1000, 10000, 0, 0, ThreadType::kMpi}});
  std::vector<std::uint8_t> bytes(threads.view().begin(),
                                  threads.view().end());
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() - 1] = 200;  // the thread type byte
  sendMessage(socket, bytes);
  const auto reply = recvMessage(socket);
  ASSERT_TRUE(reply.has_value()) << "EOF instead of a structured reply";
  std::string message;
  EXPECT_EQ(decodeIngestReply(*reply, &message), IngestStatus::kBadRequest);
  EXPECT_NE(message.find("thread type"), std::string::npos) << message;
  server.stop();
}

TEST(IngestServer, DisconnectWithoutByeSynthesizesAbortClosures) {
  const Profile profile = makeStandardProfile();
  IngestServerOptions options;
  options.expectedNodes = {0, 1};
  options.outPath = tempPath("ingest_abort.uti");
  IngestServer server(profile, options);

  {
    // Node 0 ships a begin piece with no end and vanishes (no bye).
    IngestClient dying("127.0.0.1", server.port(), 0);
    dying.sendThreads({{0, 1000, 10000, 0, 0, ThreadType::kMpi}});
    dying.sendClockPairs({}, /*final=*/true);
    ByteWriter extra;
    extra.u32(1);
    extra.u64(0x1234);
    const ByteWriter body = encodeRecordBody(
        makeIntervalType(EventType::kUserMarker, Bebits::kBegin), 0, kMs, 0,
        0, 0, extra.view());
    dying.sendRecords({std::vector<std::uint8_t>(body.view().begin(),
                                                 body.view().end())});
  }  // destructor closes the socket abruptly

  {
    const auto path = writeNodeFile("ingest_abort_b.uti", 1, 0.0, 0, 30);
    const InputFeed feed = loadFeed(path);
    IngestClient healthy("127.0.0.1", server.port(), 1);
    healthy.sendThreads(feed.threads);
    healthy.sendClockPairs(feed.pairs, /*final=*/true);
    for (const auto& body : feed.records) healthy.queueRecord(body);
    healthy.bye();
  }

  const StreamMergeResult result = server.wait();
  EXPECT_EQ(result.abortClosures, 1u);
}

/// Running records on `node`'s one thread, 1 ms every 2 ms from index
/// `first`, on an identity clock.
std::vector<std::vector<std::uint8_t>> runningRecords(NodeId node, int first,
                                                      int n) {
  std::vector<std::vector<std::uint8_t>> bodies;
  for (int i = first; i < first + n; ++i) {
    const ByteWriter body = encodeRecordBody(
        makeIntervalType(kRunningState, Bebits::kComplete),
        static_cast<Tick>(i) * 2 * kMs, kMs, 0, node, 0);
    bodies.emplace_back(body.view().begin(), body.view().end());
  }
  return bodies;
}

std::size_t batchBytes(const std::vector<std::vector<std::uint8_t>>& bodies) {
  std::size_t bytes = 0;
  for (const auto& body : bodies) bytes += body.size();
  return bytes;
}

/// Two sessions against a 4 KiB budget. Node 1 sends only its thread
/// table and final clock pairs, so the merge cannot drain node 0. Node 0
/// has one batch acked; `overflow` is a batch that, with the first,
/// exceeds the budget.
struct BudgetStall {
  static constexpr std::size_t kBudget = 4096;

  explicit BudgetStall(const std::string& name)
      : server(profile, [&] {
          IngestServerOptions options;
          options.expectedNodes = {0, 1};
          options.outPath = tempPath(name);
          options.sessionBudgetBytes = kBudget;
          return options;
        }()),
        slow("127.0.0.1", server.port(), 1),
        fast("127.0.0.1", server.port(), 0) {
    slow.sendThreads({{1, 1001, 10001, 1, 0, ThreadType::kMpi}});
    slow.sendClockPairs({}, /*final=*/true);
    fast.sendThreads({{0, 1000, 10000, 0, 0, ThreadType::kMpi}});
    fast.sendClockPairs({}, /*final=*/true);
    const auto first = runningRecords(0, 0, 80);
    EXPECT_LT(batchBytes(first), kBudget);
    fast.sendRecords(first);  // fits: acked at once
    overflow = runningRecords(0, 80, 80);
    EXPECT_GT(batchBytes(first) + batchBytes(overflow), kBudget + 64);
  }

  Profile profile = makeStandardProfile();
  IngestServer server;
  IngestClient slow;
  IngestClient fast;
  std::vector<std::vector<std::uint8_t>> overflow;
};

TEST(IngestServer, FullBudgetWithholdsTheAckUntilTheMergeDrains) {
  BudgetStall stall("ingest_withheld.uti");
  std::atomic<bool> acked{false};
  std::thread sender([&] {
    try {
      stall.fast.sendRecords(stall.overflow);
      acked = true;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "withheld batch failed: " << e.what();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_FALSE(acked.load()) << "acked while the merge could not drain";

  // Node 1's records and bye let the merge drain node 0's buffer, which
  // releases the ack.
  const auto late = runningRecords(1, 0, 20);
  stall.slow.sendRecords(late);
  stall.slow.bye();
  sender.join();
  EXPECT_TRUE(acked.load());
  stall.fast.bye();
  const StreamMergeResult result = stall.server.wait();
  EXPECT_EQ(result.recordsOut, 180u);
  EXPECT_EQ(result.abortClosures, 0u);
}

TEST(IngestServer, StopAnswersAWithheldAckWithShuttingDown) {
  BudgetStall stall("ingest_withheld_stop.uti");
  std::atomic<bool> answered{false};
  IngestStatus status = IngestStatus::kOk;
  std::thread sender([&] {
    try {
      stall.fast.sendRecords(stall.overflow);
    } catch (const IngestError& e) {
      status = e.status();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "withheld batch failed: " << e.what();
    }
    answered = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  ASSERT_FALSE(answered.load()) << "answered while the merge could not drain";

  // The reactor's drain deadline is 5 s; a stop that waited for the
  // withheld ack would run into it.
  const auto start = std::chrono::steady_clock::now();
  stall.server.stop();
  const auto took = std::chrono::steady_clock::now() - start;
  sender.join();
  EXPECT_LT(took, std::chrono::seconds(2));
  EXPECT_EQ(status, IngestStatus::kShuttingDown);
}

// --- live tail through the query protocol -----------------------------------

TEST(LiveTail, TailFramesPagesExactlyOnceAndMetricsExtend) {
  const Profile profile = makeStandardProfile();
  std::vector<std::string> inputs = {
      writeNodeFile("live_a.uti", 0, 15.0, 200, 400),
      writeNodeFile("live_b.uti", 1, -25.0, 900, 400)};

  LiveFeed feed;
  IngestServerOptions options;
  options.expectedNodes = {0, 1};
  options.outPath = tempPath("live_out.uti");
  options.slogPath = tempPath("live_out.slog");
  options.merge.targetFrameBytes = 2048;  // many small .uti frames
  options.slog.recordsPerFrame = 64;      // many small SLOG frames to page
  IngestServer ingest(profile, options, &feed);

  ServerOptions serverOptions;
  serverOptions.liveFeed = &feed;
  serverOptions.liveName = "live run";
  TraceServer query({}, serverOptions);

  std::vector<std::thread> senders;
  for (int node = 0; node < 2; ++node) {
    senders.emplace_back([&, node] {
      try {
        const InputFeed f = loadFeed(inputs[static_cast<std::size_t>(node)]);
        IngestClient client("127.0.0.1", ingest.port(),
                            static_cast<NodeId>(node), /*maxBatchBytes=*/512);
        client.sendThreads(f.threads);
        client.sendClockPairs(f.pairs, /*final=*/true);
        for (const auto& body : f.records) client.queueRecord(body);
        client.bye();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "sender for node " << node << " died: " << e.what();
      }
    });
  }

  // Tail concurrently with the senders: page frames by cursor, recording
  // every offset seen. Exactly-once means no repeats across pages.
  TraceClient client("127.0.0.1", query.port());
  ASSERT_EQ(client.traceCount(), 1u);
  std::set<std::uint64_t> offsets;
  std::uint64_t cursor = 0;
  Tick lastWatermark = 0;
  bool finished = false;
  while (!finished) {
    const TailFramesReply page = client.tailFrames(0, cursor, 3);
    EXPECT_GE(page.watermark, lastWatermark);
    lastWatermark = page.watermark;
    for (const TailFrame& frame : page.frames) {
      EXPECT_TRUE(offsets.insert(frame.entry.offset).second)
          << "frame served twice";
      EXPECT_GT(frame.entry.records, 0u);
      EXPECT_FALSE(frame.data.intervals.empty());
    }
    cursor = page.nextCursor;
    finished = page.finished && page.frames.empty();
  }

  for (auto& t : senders) t.join();
  ingest.wait();

  // Every sealed frame was seen exactly once, and matches the file.
  SlogReader slog(tempPath("live_out.slog"));
  EXPECT_EQ(offsets.size(), slog.frameIndex().size());

  const TailMetricsReply metrics = client.tailMetrics(0);
  EXPECT_TRUE(metrics.finished);
  EXPECT_GT(metrics.sealedBins, 0u);
  EXPECT_GT(metrics.store.bins(), 0u);
  EXPECT_FALSE(metrics.blob.empty());

  // Random-access window queries need the finished file; on a live trace
  // they answer with a structured kBadRequest, not a hang or a crash.
  try {
    WindowQuery windowQuery;
    client.window(0, windowQuery);
    FAIL() << "window query on a live trace accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
}

}  // namespace
}  // namespace ute
