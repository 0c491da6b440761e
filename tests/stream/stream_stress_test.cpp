// Streaming ingest concurrency stress (docs/STREAMING.md), built to run
// under `ctest -L stress` in a -DUTE_SANITIZE=thread build: concurrent
// producer sessions against a tight byte budget, a tailing client that
// reconnects for every page yet must see every sealed frame exactly
// once, a session that goes silent past the timeout, and a mid-run
// server teardown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include "clock/clock_model.h"
#include "interval/standard_profile.h"
#include "server/client.h"
#include "server/server.h"
#include "slog/slog_reader.h"
#include "stream/ingest_client.h"
#include "stream/ingest_server.h"
#include "temp_dir.h"

namespace ute {
namespace {

std::vector<ThreadEntry> nodeThreads(NodeId node) {
  return {{node, 1000 + node, 10000 + node, node, 0, ThreadType::kMpi}};
}

/// Running records on one node's thread, 1 ms every 2 ms, drift-free
/// (identity clock fit keeps the fixture cheap — the stress here is
/// concurrency, not clock math).
std::vector<std::vector<std::uint8_t>> runningRecords(NodeId node, int n,
                                                      int firstIndex = 0) {
  std::vector<std::vector<std::uint8_t>> bodies;
  bodies.reserve(static_cast<std::size_t>(n));
  for (int i = firstIndex; i < firstIndex + n; ++i) {
    const Tick t = static_cast<Tick>(i) * 2 * kMs;
    const ByteWriter body =
        encodeRecordBody(makeIntervalType(kRunningState, Bebits::kComplete),
                         t, kMs, 0, node, 0);
    bodies.emplace_back(body.view().begin(), body.view().end());
  }
  return bodies;
}

TEST(StreamStress, TailFramesExactlyOnceAcrossReconnects) {
  const Profile profile = makeStandardProfile();
  constexpr int kNodes = 3;
  constexpr int kRecordsPerNode = 600;

  LiveFeed feed;
  IngestServerOptions options;
  options.expectedNodes = {0, 1, 2};
  options.outPath = tempPath("stress_tail.uti");
  options.slogPath = tempPath("stress_tail.slog");
  options.merge.targetFrameBytes = 1024;  // many small .uti frames
  options.slog.recordsPerFrame = 64;      // many small SLOG frames to page
  options.sessionBudgetBytes = 4096;      // budget churn under load
  IngestServer ingest(profile, options, &feed);

  ServerOptions serverOptions;
  serverOptions.liveFeed = &feed;
  TraceServer query({}, serverOptions);
  const std::uint16_t queryPort = query.port();

  std::vector<std::thread> senders;
  for (int node = 0; node < kNodes; ++node) {
    senders.emplace_back([&, node] {
      try {
        IngestClient client("127.0.0.1", ingest.port(),
                            static_cast<NodeId>(node), /*maxBatchBytes=*/256);
        client.sendThreads(nodeThreads(static_cast<NodeId>(node)));
        client.sendClockPairs({}, /*final=*/true);
        for (const auto& body :
             runningRecords(static_cast<NodeId>(node), kRecordsPerNode)) {
          client.queueRecord(body);
        }
        client.bye();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "sender for node " << node << " died: " << e.what();
      }
    });
  }

  // The tailer dials a fresh connection for every page — the reconnect
  // path — resuming from the cursor it saved. Exactly-once is the
  // invariant: no frame repeats, none missing at the end.
  std::set<std::uint64_t> offsets;
  std::thread tailer([&] {
    try {
      std::uint64_t cursor = 0;
      for (;;) {
        TraceClient client("127.0.0.1", queryPort);
        const TailFramesReply page = client.tailFrames(0, cursor, 2);
        for (const TailFrame& frame : page.frames) {
          ASSERT_TRUE(offsets.insert(frame.entry.offset).second)
              << "frame at offset " << frame.entry.offset << " served twice";
        }
        cursor = page.nextCursor;
        if (page.finished && page.frames.empty()) return;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "tailer died: " << e.what();
    }
  });

  for (auto& t : senders) t.join();
  const StreamMergeResult result = ingest.wait();
  tailer.join();

  EXPECT_EQ(result.abortClosures, 0u);
  SlogReader slog(tempPath("stress_tail.slog"));
  EXPECT_GT(slog.frameIndex().size(), 10u);
  EXPECT_EQ(offsets.size(), slog.frameIndex().size());
}

TEST(StreamStress, SilentSessionTimesOutAsAbort) {
  const Profile profile = makeStandardProfile();
  LiveFeed feed;
  IngestServerOptions options;
  options.expectedNodes = {0, 1};
  options.outPath = tempPath("stress_timeout.uti");
  options.sessionTimeoutMs = 300;
  IngestServer ingest(profile, options, &feed);

  std::atomic<bool> silentDone{false};
  std::thread silent([&] {
    try {
      IngestClient client("127.0.0.1", ingest.port(), 0);
      client.sendThreads(nodeThreads(0));
      client.sendClockPairs({}, /*final=*/true);
      // One open state, then silence long past the timeout. The server
      // must abort the session, not wait forever.
      ByteWriter extra;
      extra.u32(1);
      extra.u64(0);
      const ByteWriter body = encodeRecordBody(
          makeIntervalType(EventType::kUserMarker, Bebits::kBegin), 0, kMs,
          0, 0, 0, extra.view());
      client.sendRecords({std::vector<std::uint8_t>(body.view().begin(),
                                                    body.view().end())});
      std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    } catch (const std::exception&) {
      // The abort may surface as a failed send if we tried again; the
      // assertion below is about the server's view.
    }
    silentDone.store(true);
  });

  std::thread healthy([&] {
    IngestClient client("127.0.0.1", ingest.port(), 1);
    client.sendThreads(nodeThreads(1));
    client.sendClockPairs({}, /*final=*/true);
    for (const auto& body : runningRecords(1, 50)) client.queueRecord(body);
    client.bye();
  });

  const StreamMergeResult result = ingest.wait();
  EXPECT_EQ(result.abortClosures, 1u);  // the silent node's open marker
  healthy.join();
  silent.join();
  EXPECT_TRUE(silentDone.load());
}

TEST(StreamStress, StopMidRunTearsDownCleanly) {
  const Profile profile = makeStandardProfile();
  constexpr int kNodes = 3;
  IngestServerOptions options;
  options.expectedNodes = {0, 1, 2};
  options.outPath = tempPath("stress_stop.uti");
  options.slogPath = tempPath("stress_stop.slog");
  options.sessionBudgetBytes = 2048;  // acks are withheld often
  IngestServer ingest(profile, options);

  std::atomic<int> tablesSent{0};
  std::vector<std::thread> senders;
  for (int node = 0; node < kNodes; ++node) {
    senders.emplace_back([&, node] {
      try {
        IngestClient client("127.0.0.1", ingest.port(),
                            static_cast<NodeId>(node), /*maxBatchBytes=*/128);
        client.sendThreads(nodeThreads(static_cast<NodeId>(node)));
        client.sendClockPairs({}, /*final=*/true);
        tablesSent.fetch_add(1);
        // Stream until the rug is pulled (records stay in ascending end
        // order across rounds — the per-input stream contract).
        for (int round = 0; round < 1000; ++round) {
          for (const auto& body :
               runningRecords(static_cast<NodeId>(node), 50, round * 50)) {
            client.queueRecord(body);
          }
          client.flush();
        }
        client.bye();
      } catch (const std::exception&) {
        // kShuttingDown reply or a closed socket — both are the expected
        // shapes of a mid-run stop on the producer side.
      }
    });
  }

  while (tablesSent.load() < kNodes) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ingest.stop();  // joins everything; open sessions become aborts
  for (auto& t : senders) t.join();
}

}  // namespace
}  // namespace ute
