// StreamMerger (docs/STREAMING.md): the merge as a resumable state
// machine. The load-bearing property: a StreamMerger fed the same inputs
// — in arbitrary interleaved chunks, with advance() sprinkled anywhere —
// writes a merged file byte-identical to the batch IntervalMerger,
// because the watermark rule emits records in exactly the batch
// tournament order.
#include "stream/stream_merger.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <utility>
#include <vector>

#include "clock/clock_model.h"
#include "interval/standard_profile.h"
#include "merge/merger.h"
#include "support/file_io.h"

#include <unistd.h>

namespace ute {
namespace {

std::string tempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

/// Same drifting-node fixture as the batch merge tests.
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
    if (i % 100 == 99) w.addRecord(clockSync(t + 2 * kMs - 1).view());
  }
  w.addRecord(clockSync(static_cast<Tick>(n) * 2 * kMs).view());
  w.close();
  return path;
}

/// One input's record bodies and batch-style clock pairs, as a producer
/// session would ship them.
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

/// Streams `paths` through a StreamMerger the way records trickle in
/// over the network: uneven chunks, inputs interleaved, advance() between
/// every burst. With `abortAt`, input `abortAt->first` is torn down after
/// shipping `abortAt->second` records.
StreamMergeResult streamChunked(
    const Profile& profile, const std::vector<std::string>& paths,
    bool naive, const std::string& out,
    std::optional<std::pair<std::size_t, std::size_t>> abortAt = {}) {
  StreamMergeOptions options;
  options.useNaiveMerge = naive;
  StreamMerger stream(profile, options);
  std::vector<InputFeed> feeds;
  for (const std::string& path : paths) {
    const std::size_t i = stream.addInput();
    feeds.push_back(loadFeed(path));
    stream.setThreads(i, feeds.back().threads);
    stream.setClockPairs(i, feeds.back().pairs, /*final=*/true);
  }
  stream.openOutput(out);

  std::vector<std::size_t> cursor(feeds.size(), 0);
  bool progressed = true;
  std::size_t round = 0;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < feeds.size(); ++i) {
      if (!stream.inputOpen(i)) continue;
      const std::size_t chunk = 1 + (round + i * 3) % 17;
      for (std::size_t k = 0; k < chunk && cursor[i] < feeds[i].records.size();
           ++k) {
        if (abortAt && abortAt->first == i && cursor[i] == abortAt->second) {
          stream.abortInput(i);
          break;
        }
        stream.addRecord(i, feeds[i].records[cursor[i]++]);
        progressed = true;
      }
      stream.advance();
    }
    ++round;
  }
  const Tick beforeClose = stream.watermark();
  for (std::size_t i = 0; i < feeds.size(); ++i) stream.closeInput(i);
  StreamMergeResult result = stream.finish();
  EXPECT_GE(stream.watermark(), beforeClose);  // watermark is monotone
  return result;
}

TEST(StreamMerger, ChunkedInterleavedFeedMatchesBatchByteForByte) {
  const Profile profile = makeStandardProfile();
  // k=1 and k=4, each streamed under the tree and the naive scan: one
  // drain loop serves every case, so all must match the batch file.
  std::uint64_t fullRecordsOut = 0;
  for (int k : {4, 1}) {
    std::vector<std::string> inputs;
    for (int node = 0; node < k; ++node) {
      inputs.push_back(writeNodeFile(
          "smerge_eq_" + std::to_string(node) + ".uti", node,
          node * 12.5 - 20.0, node * 750, 300));
    }
    IntervalMerger batch(inputs, profile);
    const MergeResult batchResult =
        batch.mergeTo(tempPath("smerge_batch.uti"));
    if (k == 4) fullRecordsOut = batchResult.recordsOut;
    for (bool naive : {false, true}) {
      SCOPED_TRACE("k=" + std::to_string(k) + (naive ? " naive" : " tree"));
      const StreamMergeResult streamResult =
          streamChunked(profile, inputs, naive, tempPath("smerge_stream.uti"));
      EXPECT_EQ(streamResult.recordsOut, batchResult.recordsOut);
      EXPECT_EQ(streamResult.pseudoRecords, batchResult.pseudoRecords);
      ASSERT_EQ(streamResult.ratios.size(), batchResult.ratios.size());
      for (std::size_t i = 0; i < streamResult.ratios.size(); ++i) {
        EXPECT_EQ(streamResult.ratios[i], batchResult.ratios[i]) << i;
      }
      EXPECT_EQ(readWholeFile(tempPath("smerge_stream.uti")),
                readWholeFile(tempPath("smerge_batch.uti")));
    }
  }

  // One input torn down mid-feed: no batch twin exists, but the tree and
  // the naive scan must still agree byte for byte.
  std::vector<std::string> inputs;
  for (int node = 0; node < 4; ++node) {
    inputs.push_back(tempPath("smerge_eq_" + std::to_string(node) + ".uti"));
  }
  const auto abortAt = std::make_pair(std::size_t{2}, std::size_t{150});
  const StreamMergeResult tree = streamChunked(
      profile, inputs, false, tempPath("smerge_abort_tree.uti"), abortAt);
  const StreamMergeResult naive = streamChunked(
      profile, inputs, true, tempPath("smerge_abort_naive.uti"), abortAt);
  EXPECT_EQ(tree.recordsOut, naive.recordsOut);
  EXPECT_LT(tree.recordsOut, fullRecordsOut);
  EXPECT_EQ(readWholeFile(tempPath("smerge_abort_tree.uti")),
            readWholeFile(tempPath("smerge_abort_naive.uti")));
}

TEST(StreamMerger, OutOfOrderRecordsWithinAnInputRejected) {
  const Profile profile = makeStandardProfile();
  const auto path = writeNodeFile("smerge_ooo.uti", 0, 0.0, 0, 20);
  StreamMerger merger(profile);
  const std::size_t i = merger.addInput();
  InputFeed feed = loadFeed(path);
  merger.setThreads(i, feed.threads);
  merger.setClockPairs(i, feed.pairs, /*final=*/true);
  merger.openOutput(tempPath("smerge_ooo_out.uti"));
  merger.addRecord(i, feed.records[5]);
  EXPECT_THROW(merger.addRecord(i, feed.records[1]), FormatError);
}

TEST(StreamMerger, AbortSynthesizesEndPiecesForOpenStates) {
  const Profile profile = makeStandardProfile();
  IntervalFileOptions options;
  options.profileVersion = kStandardProfileVersion;
  options.fieldSelectionMask = kNodeFileMask;
  std::vector<ThreadEntry> threads = {
      {0, 1000, 10000, 0, 0, ThreadType::kMpi}};

  StreamMerger merger(profile);
  const std::size_t i = merger.addInput();
  merger.setThreads(i, threads);
  merger.addMarker(3, "torn phase");
  merger.setClockPairs(i, {}, /*final=*/true);  // identity fit, frozen
  merger.openOutput(tempPath("smerge_abort_out.uti"));

  // A marker begin piece with no end — the node dies mid-state.
  ByteWriter extra;
  extra.u32(3);       // markerId (always-field)
  extra.u64(0xabcd);  // instrAddrBegin
  merger.addRecord(
      i, encodeRecordBody(
             makeIntervalType(EventType::kUserMarker, Bebits::kBegin), 0,
             kMs, 0, 0, 0, extra.view())
             .view());
  merger.abortInput(i);
  EXPECT_FALSE(merger.inputOpen(i));
  const StreamMergeResult result = merger.finish();
  EXPECT_EQ(result.abortClosures, 1u);

  // The synthesized closure is a zero-duration end piece at the node's
  // frontier, carrying the marker's always-fields.
  IntervalFileReader merged(tempPath("smerge_abort_out.uti"));
  auto stream = merged.records();
  RecordView view;
  bool sawClosure = false;
  Tick lastEnd = 0;
  while (stream.next(view)) {
    EXPECT_GE(view.end(), lastEnd);
    lastEnd = view.end();
    if (view.eventType() == EventType::kUserMarker &&
        view.bebits() == Bebits::kEnd) {
      sawClosure = true;
      EXPECT_EQ(view.dura, 0u);
    }
  }
  EXPECT_TRUE(sawClosure);
}

TEST(StreamMerger, AbortClosesOnlyLiveStatesAfterSlotReuse) {
  const Profile profile = makeStandardProfile();
  std::vector<ThreadEntry> threads = {
      {0, 1000, 10000, 0, 0, ThreadType::kMpi},
      {0, 1000, 10001, 0, 1, ThreadType::kUser}};
  StreamMerger merger(profile);
  const std::size_t i = merger.addInput();
  merger.setThreads(i, threads);
  merger.addMarker(7, "outer");
  merger.addMarker(9, "inner");
  merger.setClockPairs(i, {}, /*final=*/true);  // identity fit, frozen
  const std::string out = tempPath("smerge_reuse_out.uti");
  merger.openOutput(out);

  Tick t = 0;
  const auto feed = [&](EventType type, Bebits bebits, LogicalThreadId thread,
                        std::uint32_t markerId = 0) {
    ByteWriter extra;
    if (type == EventType::kUserMarker) {
      extra.u32(markerId);
      extra.u64(0);  // instrAddrBegin / instrAddrEnd
    }
    t += 10;
    merger.addRecord(i, encodeRecordBody(makeIntervalType(type, bebits), t,
                                         1, 0, 0, thread, extra.view())
                            .view());
    merger.advance();
  };
  // Push three begins, pop two, push one into a freed slot.
  feed(EventType::kUserMarker, Bebits::kBegin, 1, 7);
  feed(kRunningState, Bebits::kBegin, 0);
  feed(EventType::kUserMarker, Bebits::kBegin, 1, 9);
  feed(EventType::kUserMarker, Bebits::kEnd, 1, 9);
  feed(EventType::kUserMarker, Bebits::kEnd, 1, 7);
  feed(kRunningState, Bebits::kBegin, 1);
  merger.abortInput(i);
  const StreamMergeResult result = merger.finish();

  // One closure per live state — the two Running states — and none for
  // the markers whose slots were popped.
  EXPECT_EQ(result.abortClosures, 2u);
  IntervalFileReader merged(out);
  auto stream = merged.records();
  RecordView view;
  std::vector<std::pair<EventType, LogicalThreadId>> closures;
  int markerEnds = 0;
  while (stream.next(view)) {
    if (view.bebits() != Bebits::kEnd) continue;
    if (view.eventType() == EventType::kUserMarker) ++markerEnds;
    if (view.dura == 0) closures.emplace_back(view.eventType(), view.thread);
  }
  EXPECT_EQ(markerEnds, 2);
  EXPECT_EQ(closures,
            (std::vector<std::pair<EventType, LogicalThreadId>>{
                {kRunningState, 0}, {kRunningState, 1}}));
}

TEST(StreamMerger, WaitingOnNamesTheStarvedInput) {
  const Profile profile = makeStandardProfile();
  const auto a = writeNodeFile("smerge_needs_a.uti", 0, 0.0, 0, 10);
  const auto b = writeNodeFile("smerge_needs_b.uti", 1, 0.0, 0, 10);
  StreamMerger merger(profile);
  InputFeed fa = loadFeed(a);
  InputFeed fb = loadFeed(b);
  const std::size_t ia = merger.addInput();
  const std::size_t ib = merger.addInput();
  merger.setThreads(ia, fa.threads);
  merger.setThreads(ib, fb.threads);
  merger.setClockPairs(ia, fa.pairs, /*final=*/true);
  merger.setClockPairs(ib, fb.pairs, /*final=*/true);
  merger.openOutput(tempPath("smerge_needs_out.uti"));
  EXPECT_EQ(merger.waitingOn(), std::nullopt);  // no advance() yet
  merger.advance();
  EXPECT_EQ(merger.waitingOn(), ia);  // nothing anywhere: lowest index

  for (const auto& r : fa.records) merger.addRecord(ia, r);
  EXPECT_GT(merger.bufferedBytes(ia), 0u);
  EXPECT_EQ(merger.bufferedBytes(ia), merger.bufferedBytes());
  merger.advance();
  // Input b sent nothing, so nothing can be emitted yet and a still
  // holds bytes; b is the one starving the merge.
  EXPECT_EQ(merger.waitingOn(), ib);
  EXPECT_GT(merger.bufferedBytes(ia), 0u);

  for (const auto& r : fb.records) merger.addRecord(ib, r);
  merger.closeInput(ia);
  merger.closeInput(ib);
  merger.finish();
  EXPECT_EQ(merger.waitingOn(), std::nullopt);
  EXPECT_EQ(merger.bufferedBytes(), 0u);
}

TEST(StreamMerger, DroppedRecordUnblocksAStalledInput) {
  // A stalled input's key is its frontier. A record the merge drops (a
  // ClockSync record, unless kept) still moves that frontier, and the
  // merge must notice without waiting for another input to change.
  const Profile profile = makeStandardProfile();
  StreamMerger merger(profile);
  const std::size_t ia = merger.addInput();
  const std::size_t ib = merger.addInput();
  merger.setThreads(ia, {{0, 1000, 10000, 0, 0, ThreadType::kMpi}});
  merger.setThreads(ib, {{1, 1001, 10001, 1, 0, ThreadType::kMpi}});
  merger.setClockPairs(ia, {}, /*final=*/true);  // identity fits, frozen
  merger.setClockPairs(ib, {}, /*final=*/true);
  merger.openOutput(tempPath("smerge_stale_out.uti"));

  const auto running = [](NodeId node, Tick start, Tick dura) {
    return encodeRecordBody(
        makeIntervalType(kRunningState, Bebits::kComplete), start, dura, 0,
        node, 0);
  };
  merger.addRecord(ia, running(0, 5, 5).view());     // ends at 10
  merger.addRecord(ib, running(1, 50, 50).view());   // ends at 100
  merger.advance();
  EXPECT_EQ(merger.recordsOut(), 1u);  // a's record; stalled on a
  EXPECT_EQ(merger.waitingOn(), ia);

  ByteWriter global;
  global.u64(200);
  merger.addRecord(
      ia, encodeRecordBody(
              makeIntervalType(kClockSyncState, Bebits::kComplete), 200, 0,
              0, 0, 0, global.view())
              .view());
  merger.advance();
  EXPECT_EQ(merger.recordsOut(), 2u);  // b's record, past a's old frontier
  EXPECT_EQ(merger.waitingOn(), ib);
}

}  // namespace
}  // namespace ute
