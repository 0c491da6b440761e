#include <gtest/gtest.h>

#include <filesystem>

#include "interval/standard_profile.h"
#include "slog/slog_reader.h"
#include "slog/slog_writer.h"

#include <unistd.h>

namespace ute {
namespace {

std::string tempPath(const std::string& name) {
  // Each TEST in this file runs as its own ctest process; prefixing the
  // pid keeps parallel processes from clobbering each other's fixtures.
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

std::vector<ThreadEntry> twoThreads() {
  return {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
          {1, 1001, 10001, 1, 0, ThreadType::kMpi}};
}

/// Merged-style record body (origStart appended, merged mask fields).
ByteWriter mergedBody(EventType event, Bebits bebits, Tick start, Tick dura,
                      NodeId node, LogicalThreadId thread,
                      const ByteWriter& args = {}) {
  ByteWriter extra;
  extra.bytes(args.view());
  extra.u64(start);  // origStart
  return encodeRecordBody(makeIntervalType(event, bebits), start, dura, 0,
                          node, thread, extra.view());
}

RecordView viewOf(const ByteWriter& body) {
  return RecordView::parse(body.view());
}

TEST(Slog, HeaderStatesAndThreadsRoundTrip) {
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("slog_header.slog");
  {
    SlogWriter w(path, SlogOptions{}, profile, twoThreads(),
                 {{1, "Main Loop"}});
    const ByteWriter r =
        mergedBody(kRunningState, Bebits::kComplete, 100, 900, 0, 0);
    w.addRecord(viewOf(r));
    w.close();
  }
  SlogReader r(path);
  EXPECT_EQ(r.totalStart(), 100u);
  EXPECT_EQ(r.totalEnd(), 1000u);
  ASSERT_EQ(r.threads().size(), 2u);
  EXPECT_EQ(r.threads()[1].node, 1);
  // Pre-registered states: Running + all MPI routines + the marker.
  EXPECT_EQ(r.stateName(static_cast<std::uint32_t>(kRunningState)),
            "Running");
  EXPECT_EQ(r.stateName(static_cast<std::uint32_t>(EventType::kMpiSend)),
            "MPI_Send");
  EXPECT_EQ(r.stateName(kMarkerStateBase + 1), "Main Loop");
  ASSERT_EQ(r.frameIndex().size(), 1u);
  EXPECT_EQ(r.frameIndex()[0].records, 1u);
}

TEST(Slog, FramesTileTimeAndLookupWorks) {
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("slog_frames.slog");
  SlogOptions options;
  options.recordsPerFrame = 100;
  {
    SlogWriter w(path, options, profile, twoThreads(), {});
    for (int i = 0; i < 1000; ++i) {
      w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kComplete,
                                    static_cast<Tick>(i) * kMs, kMs / 2, 0,
                                    0)));
    }
    w.close();
  }
  SlogReader r(path);
  ASSERT_EQ(r.frameIndex().size(), 10u);
  // Frames tile the run without gaps.
  Tick boundary = r.frameIndex().front().timeStart;
  for (const SlogFrameIndexEntry& e : r.frameIndex()) {
    EXPECT_EQ(e.timeStart, boundary);
    EXPECT_GE(e.timeEnd, e.timeStart);
    boundary = e.timeEnd;
  }
  // A time in the middle maps to the frame containing it; reading just
  // that frame yields records around that time.
  const Tick middle = 500 * kMs;
  const auto idx = r.frameIndexFor(middle);
  ASSERT_TRUE(idx.has_value());
  EXPECT_LE(r.frameIndex()[*idx].timeStart, middle);
  EXPECT_GE(r.frameIndex()[*idx].timeEnd, middle);
  const SlogFramePtr frame = r.readFrame(*idx);
  EXPECT_EQ(frame->intervals.size(), 100u);
  EXPECT_FALSE(r.frameIndexFor(5000 * kMs).has_value());
}

TEST(Slog, PseudoIntervalsRestateOpenStates) {
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("slog_pseudo.slog");
  SlogOptions options;
  options.recordsPerFrame = 50;
  {
    SlogWriter w(path, options, profile, twoThreads(), {{9, "phase"}});
    // A marker that stays open across several frames on thread (0,0).
    ByteWriter markerArgs;
    markerArgs.u32(9);
    markerArgs.u64(0x1);  // instrAddrBegin
    w.addRecord(viewOf(mergedBody(EventType::kUserMarker, Bebits::kBegin, 0,
                                  kMs, 0, 0, markerArgs)));
    for (int i = 1; i < 200; ++i) {
      w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kComplete,
                                    static_cast<Tick>(i) * kMs, kMs / 2, 1,
                                    0)));
    }
    ByteWriter endArgs;
    endArgs.u32(9);
    endArgs.u64(0x2);  // instrAddrEnd
    w.addRecord(viewOf(mergedBody(EventType::kUserMarker, Bebits::kEnd,
                                  200 * kMs, kMs, 0, 0, endArgs)));
    w.close();
  }
  SlogReader r(path);
  ASSERT_GE(r.frameIndex().size(), 3u);
  // Every frame after the first (while the marker is open) starts with
  // its pseudo-interval.
  for (std::size_t f = 1; f + 1 < r.frameIndex().size(); ++f) {
    const SlogFramePtr frame = r.readFrame(f);
    ASSERT_FALSE(frame->intervals.empty());
    const SlogInterval& first = frame->intervals.front();
    EXPECT_TRUE(first.pseudo);
    EXPECT_EQ(first.stateId, kMarkerStateBase + 9);
    EXPECT_EQ(first.dura, 0u);
    EXPECT_EQ(first.start, r.frameIndex()[f].timeStart);
  }
}

TEST(Slog, RestatementStaysWithinItsShareOfEachFrame) {
  // 32 open states against a 16-entry budget: counting pseudo-intervals
  // toward the budget alone, every later frame would be 32 restatements
  // and one real interval.
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("slog_share.slog");
  std::vector<ThreadEntry> threads;
  for (int t = 0; t <= 32; ++t) {
    threads.push_back({t, 1000 + t, 10000 + t, 0, t, ThreadType::kMpi});
  }
  SlogOptions options;
  options.recordsPerFrame = 16;
  constexpr int kReal = 2000;
  {
    SlogWriter w(path, options, profile, threads, {});
    for (int t = 0; t < 32; ++t) {
      w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kBegin, 0,
                                    static_cast<Tick>(t), 0, t)));
    }
    for (int i = 0; i < kReal; ++i) {
      w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kComplete,
                                    100 + static_cast<Tick>(i) * 10, 9, 0,
                                    32)));
    }
    w.close();
  }
  SlogReader r(path);
  const std::size_t frames = r.frameIndex().size();
  ASSERT_GT(frames, 2u);
  // close() seals the last frame whatever its share; every other frame
  // holds at least four real intervals per pseudo-interval.
  for (std::size_t f = 1; f + 1 < frames; ++f) {
    const SlogFramePtr frame = r.readFrame(f);
    std::size_t pseudo = 0;
    for (const SlogInterval& iv : frame->intervals) pseudo += iv.pseudo;
    EXPECT_GT(pseudo, 0u) << "frame " << f;
    EXPECT_LE(pseudo * 4, frame->intervals.size() - pseudo) << "frame " << f;
  }
  EXPECT_LE(frames, 4u + kReal / (4 * 32));
}

TEST(Slog, EndPieceWithoutMatchingBeginThrows) {
  const Profile profile = makeStandardProfile();
  {
    SlogWriter w(tempPath("slog_orphan_end.slog"), SlogOptions{}, profile,
                 twoThreads(), {});
    EXPECT_THROW(w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kEnd,
                                               0, 10, 0, 0))),
                 FormatError);
  }
  {
    // The end piece of another state than the one open on the thread.
    SlogWriter w(tempPath("slog_wrong_end.slog"), SlogOptions{}, profile,
                 twoThreads(), {});
    w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kBegin, 0, 10, 0,
                                  0)));
    ByteWriter barrierArgs;
    barrierArgs.i32(0);
    EXPECT_THROW(w.addRecord(viewOf(mergedBody(EventType::kMpiBarrier,
                                               Bebits::kEnd, 10, 10, 0, 0,
                                               barrierArgs))),
                 FormatError);
  }
}

TEST(Slog, ArrowsMatchedBySequenceNumber) {
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("slog_arrows.slog");
  {
    SlogWriter w(path, SlogOptions{}, profile, twoThreads(), {});
    // Send on (node 0, thread 0) with seqno 7...
    ByteWriter sendArgs;
    sendArgs.i32(1);    // destTask
    sendArgs.i32(3);    // tag
    sendArgs.u32(512);  // msgSizeSent
    sendArgs.u32(7);    // seqNo
    sendArgs.i32(0);    // comm
    w.addRecord(viewOf(mergedBody(EventType::kMpiSend, Bebits::kComplete,
                                  1000, 100, 0, 0, sendArgs)));
    // ... matched by a recv on (node 1, thread 0).
    ByteWriter recvArgs;
    recvArgs.i32(0);    // srcWanted
    recvArgs.i32(3);    // tagWanted
    recvArgs.i32(0);    // comm
    recvArgs.i32(0);    // srcTask
    recvArgs.i32(3);    // tagRecv
    recvArgs.u32(512);  // msgSizeRecv
    recvArgs.u32(7);    // seqNo
    w.addRecord(viewOf(mergedBody(EventType::kMpiRecv, Bebits::kComplete,
                                  1500, 300, 1, 0, recvArgs)));
    w.close();
    EXPECT_EQ(w.arrowsWritten(), 1u);
  }
  SlogReader r(path);
  const SlogFramePtr frame = r.readFrame(0);
  ASSERT_EQ(frame->arrows.size(), 1u);
  const SlogArrow& a = frame->arrows.front();
  EXPECT_EQ(a.srcNode, 0);
  EXPECT_EQ(a.dstNode, 1);
  EXPECT_EQ(a.sendTime, 1000u);
  EXPECT_EQ(a.recvTime, 1800u);
  EXPECT_EQ(a.bytes, 512u);
}

TEST(Slog, PreviewAccumulatesPerState) {
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("slog_preview.slog");
  {
    SlogWriter w(path, SlogOptions{}, profile, twoThreads(), {});
    w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kComplete, 0,
                                  10 * kMs, 0, 0)));
    ByteWriter barrierArgs;
    barrierArgs.i32(0);
    w.addRecord(viewOf(mergedBody(EventType::kMpiBarrier, Bebits::kComplete,
                                  10 * kMs, 5 * kMs, 0, 0, barrierArgs)));
    w.close();
  }
  SlogReader r(path);
  const SlogPreview& p = r.preview();
  // Row order matches the state table.
  double runningTime = 0;
  double barrierTime = 0;
  for (std::size_t s = 0; s < r.states().size(); ++s) {
    double total = 0;
    for (double v : p.perStateBinTime[s]) total += v;
    if (r.states()[s].id == static_cast<std::uint32_t>(kRunningState)) {
      runningTime = total;
    }
    if (r.states()[s].id ==
        static_cast<std::uint32_t>(EventType::kMpiBarrier)) {
      barrierTime = total;
    }
  }
  EXPECT_NEAR(runningTime, 10e6, 1.0);
  EXPECT_NEAR(barrierTime, 5e6, 1.0);
}

TEST(Slog, ClockSyncRecordsSkipped) {
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("slog_skipclock.slog");
  {
    SlogWriter w(path, SlogOptions{}, profile, twoThreads(), {});
    ByteWriter extra;
    extra.u64(123);   // globalTime
    extra.u64(100);   // origStart
    w.addRecord(RecordView::parse(
        encodeRecordBody(makeIntervalType(kClockSyncState, Bebits::kComplete),
                         100, 0, 0, 0, 0, extra.view())
            .view()));
    w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kComplete, 200,
                                  100, 0, 0)));
    w.close();
    EXPECT_EQ(w.intervalsWritten(), 1u);
  }
  SlogReader r(path);
  EXPECT_EQ(r.readFrame(0)->intervals.size(), 1u);
}

TEST(Slog, GarbageRejected) {
  const std::string path = tempPath("slog_garbage.slog");
  writeWholeFile(path, std::string(128, 'z'));
  EXPECT_THROW(SlogReader reader(path), FormatError);
}

}  // namespace
}  // namespace ute
