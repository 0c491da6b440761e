#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "interval/file_reader.h"
#include "interval/file_writer.h"
#include "interval/standard_profile.h"
#include "support/file_io.h"
#include "support/rng.h"
#include "temp_dir.h"

namespace ute {
namespace {

std::vector<ThreadEntry> sampleThreads() {
  return {
      {0, 1000, 10000, 0, 0, ThreadType::kMpi},
      {0, 1000, 10001, 0, 1, ThreadType::kUser},
      {-1, 1, 10002, 0, 2, ThreadType::kSystem},
  };
}

IntervalFileOptions smallFrames() {
  IntervalFileOptions o;
  o.profileVersion = kStandardProfileVersion;
  o.fieldSelectionMask = kNodeFileMask;
  o.targetFrameBytes = 1024;  // minimum: forces many frames
  o.framesPerDirectory = 4;   // and several directories
  return o;
}

ByteWriter runningPiece(Tick start, Tick dura, LogicalThreadId thread,
                        Bebits bebits = Bebits::kComplete) {
  return encodeRecordBody(makeIntervalType(kRunningState, bebits), start,
                          dura, 0, 0, thread);
}

TEST(IntervalFile, HeaderThreadsAndMarkersRoundTrip) {
  const std::string path = tempPath("ifile_header.uti");
  {
    IntervalFileWriter w(path, smallFrames(), sampleThreads());
    w.addMarker(1, "Initial Phase");
    w.addMarker(2, "Main Loop");
    w.addRecord(runningPiece(100, 50, 0).view());
    w.close();
  }
  IntervalFileReader r(path);
  EXPECT_EQ(r.header().profileVersion, kStandardProfileVersion);
  EXPECT_EQ(r.header().fieldSelectionMask, kNodeFileMask);
  EXPECT_FALSE(r.header().merged());
  EXPECT_EQ(r.header().totalRecords, 1u);
  EXPECT_EQ(r.header().minStart, 100u);
  EXPECT_EQ(r.header().maxEnd, 150u);
  ASSERT_EQ(r.threads().size(), 3u);
  EXPECT_EQ(r.threads()[0].type, ThreadType::kMpi);
  EXPECT_EQ(r.threads()[2].systemTid, 10002);
  ASSERT_EQ(r.markers().size(), 2u);
  EXPECT_EQ(r.markers().at(1), "Initial Phase");
  EXPECT_EQ(r.markers().at(2), "Main Loop");
}

TEST(IntervalFile, ConflictingMarkerStringsRejected) {
  IntervalFileWriter w(tempPath("ifile_marker_conflict.uti"), smallFrames(),
                       sampleThreads());
  w.addMarker(1, "A");
  EXPECT_NO_THROW(w.addMarker(1, "A"));
  EXPECT_THROW(w.addMarker(1, "B"), UsageError);
}

TEST(IntervalFile, OutOfOrderRecordsRejected) {
  IntervalFileWriter w(tempPath("ifile_order.uti"), smallFrames(),
                       sampleThreads());
  w.addRecord(runningPiece(100, 50, 0).view());  // end 150
  EXPECT_THROW(w.addRecord(runningPiece(10, 20, 0).view()), UsageError);
  // Equal end times are fine.
  EXPECT_NO_THROW(w.addRecord(runningPiece(150, 0, 0).view()));
}

TEST(IntervalFile, ManyRecordsAcrossDirectoriesStreamBack) {
  const std::string path = tempPath("ifile_many.uti");
  const int n = 2000;
  {
    IntervalFileWriter w(path, smallFrames(), sampleThreads());
    for (int i = 0; i < n; ++i) {
      w.addRecord(
          runningPiece(static_cast<Tick>(i) * 10, 8, i % 3).view());
    }
    w.close();
  }
  IntervalFileReader r(path);
  EXPECT_EQ(r.header().totalRecords, static_cast<std::uint64_t>(n));

  // The directory chain holds everything and is doubly linked.
  int dirs = 0;
  std::uint64_t frames = 0;
  std::uint64_t prev = 0;
  for (FrameDirectory dir = r.firstDirectory(); !dir.frames.empty();
       dir = r.readDirectory(dir.nextOffset)) {
    EXPECT_EQ(dir.prevOffset, prev);
    prev = dir.offset;
    ++dirs;
    frames += dir.frames.size();
    if (dir.nextOffset == 0) break;
  }
  EXPECT_GT(dirs, 2);
  EXPECT_EQ(r.countRecordsViaDirectories(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(r.totalElapsed(), static_cast<Tick>((n - 1) * 10 + 8));
  EXPECT_GT(frames, 8u);

  // Sequential streaming sees every record in order.
  auto stream = r.records();
  RecordView view;
  int count = 0;
  Tick lastEnd = 0;
  while (stream.next(view)) {
    EXPECT_GE(view.end(), lastEnd);
    lastEnd = view.end();
    EXPECT_EQ(view.thread, count % 3);
    ++count;
  }
  EXPECT_EQ(count, n);
}

/// Writes `n` running pieces with 1 KiB frames and `framesPerDirectory`
/// frames per directory; returns the path.
std::string writeChainedFile(const std::string& name, int n,
                             int framesPerDirectory) {
  const std::string path = tempPath(name);
  IntervalFileOptions options = smallFrames();
  options.framesPerDirectory = framesPerDirectory;
  IntervalFileWriter w(path, options, sampleThreads());
  for (int i = 0; i < n; ++i) {
    w.addRecord(runningPiece(static_cast<Tick>(i) * 10, 8, i % 2).view());
  }
  w.close();
  return path;
}

/// records() must yield exactly the records found by walking the
/// directory chain and splitting every frame by hand, byte for byte.
void expectStreamMatchesFrameWalk(const std::string& path) {
  IntervalFileReader reader(path);
  auto stream = reader.records();
  RecordView view;
  std::uint64_t count = 0;
  for (FrameDirectory dir = reader.firstDirectory(); !dir.frames.empty();
       dir = reader.readDirectory(dir.nextOffset)) {
    for (const FrameInfo& info : dir.frames) {
      const FrameBuf frame = reader.readFrame(info);
      ByteReader r(frame.bytes());
      while (!r.atEnd()) {
        const auto body = readLengthPrefixedRecord(r);
        ASSERT_TRUE(stream.next(view)) << "stream short at record " << count;
        ASSERT_TRUE(std::equal(body.begin(), body.end(), view.body.begin(),
                               view.body.end()))
            << "record " << count << " differs";
        ++count;
      }
    }
    if (dir.nextOffset == 0) break;
  }
  EXPECT_FALSE(stream.next(view)) << "stream longer than the frame walk";
  EXPECT_EQ(count, reader.header().totalRecords);
}

TEST(IntervalFile, RecordStreamMatchesFrameWalkAcrossDirectories) {
  // framesPerDirectory=4 forces several chained directories.
  const std::string path = writeChainedFile("ifile_chain.uti", 2000, 4);
  IntervalFileReader reader(path);
  EXPECT_EQ(reader.countRecordsViaDirectories(), 2000u);
  expectStreamMatchesFrameWalk(path);
}

TEST(IntervalFile, OversizedDirectoryUsesTailRead) {
  // 100 frames per directory exceed the 64-entry bulk readahead in
  // readDirectory, exercising the second (tail) read. Regression test:
  // the chain walk, record counts, and the record stream must agree.
  const std::string path = writeChainedFile("ifile_tail.uti", 4000, 100);
  IntervalFileReader reader(path);
  bool sawOversized = false;
  std::uint64_t frames = 0;
  for (FrameDirectory dir = reader.firstDirectory(); !dir.frames.empty();
       dir = reader.readDirectory(dir.nextOffset)) {
    frames += dir.frames.size();
    if (dir.frames.size() > 64) sawOversized = true;
    if (dir.nextOffset == 0) break;
  }
  ASSERT_TRUE(sawOversized) << "test needs a directory with > 64 frames";
  EXPECT_GT(frames, 100u);
  EXPECT_EQ(reader.countRecordsViaDirectories(), 4000u);
  expectStreamMatchesFrameWalk(path);
}

TEST(IntervalFile, CorruptSecondDirectoryThrowsFromRecordStream) {
  // Corrupt the second directory's size field: the stream delivers the
  // first directory's records, then throws FormatError mid-chain.
  const std::string path = writeChainedFile("ifile_corrupt.uti", 2000, 4);
  std::uint64_t secondDir = 0;
  std::uint64_t firstDirRecords = 0;
  {
    IntervalFileReader reader(path);
    const FrameDirectory first = reader.firstDirectory();
    secondDir = first.nextOffset;
    ASSERT_NE(secondDir, 0u);
    for (const FrameInfo& f : first.frames) firstDirRecords += f.records;
  }
  std::vector<std::uint8_t> bytes = readWholeFile(path);
  ASSERT_GT(bytes.size(), secondDir + 4);
  for (int i = 0; i < 4; ++i) bytes[secondDir + i] = 0xff;
  writeWholeFile(path, std::span<const std::uint8_t>(bytes));

  IntervalFileReader reader(path);
  auto stream = reader.records();
  RecordView view;
  std::uint64_t delivered = 0;
  EXPECT_THROW(
      {
        while (stream.next(view)) ++delivered;
      },
      FormatError);
  EXPECT_EQ(delivered, firstDirRecords);
}

TEST(IntervalFile, FrameContainingLocatesByTime) {
  const std::string path = tempPath("ifile_locate.uti");
  {
    IntervalFileWriter w(path, smallFrames(), sampleThreads());
    for (int i = 0; i < 1000; ++i) {
      w.addRecord(runningPiece(static_cast<Tick>(i) * 100, 90, 0).view());
    }
    w.close();
  }
  IntervalFileReader r(path);
  const auto frame = r.frameContaining(50'000);
  ASSERT_TRUE(frame.has_value());
  EXPECT_LE(frame->startTime, 50'000u);
  EXPECT_GE(frame->endTime, 50'000u);
  // Reading just that frame yields records overlapping the time.
  const auto bytes = r.readFrame(*frame);
  EXPECT_EQ(bytes.size(), frame->sizeBytes);
  EXPECT_FALSE(r.frameContaining(10'000'000).has_value());
}

IntervalFileOptions mergedSmallFrames() {
  IntervalFileOptions o = smallFrames();
  o.fieldSelectionMask = kMergedFileMask;
  o.merged = true;
  return o;
}

/// A merged-file Running piece on node 0 (origStart appended).
ByteWriter mergedRunning(Tick start, Tick dura, LogicalThreadId thread,
                         Bebits bebits = Bebits::kComplete) {
  ByteWriter origStart;
  origStart.u64(start);
  return encodeRecordBody(makeIntervalType(kRunningState, bebits), start,
                          dura, 0, 0, thread, origStart.view());
}

/// Per frame, in file order: (pseudo records, real records). Pseudo
/// records are the zero-duration continuations a frame starts with.
std::vector<std::pair<int, int>> frameShares(const std::string& path) {
  std::vector<std::pair<int, int>> shares;
  IntervalFileReader r(path);
  for (FrameDirectory dir = r.firstDirectory(); !dir.frames.empty();
       dir = r.readDirectory(dir.nextOffset)) {
    for (const FrameInfo& frame : dir.frames) {
      const FrameBuf bytes = r.readFrame(frame);
      ByteReader br = bytes.reader();
      int pseudo = 0;
      int real = 0;
      bool leading = shares.size() > 0;
      while (!br.atEnd()) {
        const RecordView v = RecordView::parse(readLengthPrefixedRecord(br));
        leading = leading && v.bebits() == Bebits::kContinuation &&
                  v.dura == 0;
        ++(leading ? pseudo : real);
      }
      shares.emplace_back(pseudo, real);
    }
    if (dir.nextOffset == 0) break;
  }
  return shares;
}

TEST(IntervalFile, MergedWriterRestatesOpenStatesAtFrameStarts) {
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("ifile_restate.uti");
  std::uint64_t pseudo = 0;
  {
    IntervalFileWriter w(path, mergedSmallFrames(), sampleThreads(),
                         &profile);
    // A Running state on thread 2 stays open across every frame.
    w.addRecord(mergedRunning(0, 5, 2, Bebits::kBegin).view());
    for (int i = 1; i < 500; ++i) {
      w.addRecord(mergedRunning(static_cast<Tick>(i) * 10, 9, 0).view());
    }
    EXPECT_EQ(w.openStates().stacks().at({0, 2}).size(), 1u);
    w.close();
    pseudo = w.pseudoRecordsWritten();
  }
  EXPECT_GT(pseudo, 3u);

  // Every frame after the first starts with the open state's
  // zero-duration continuation, at the previous frame's last end time.
  IntervalFileReader r(path);
  std::uint64_t frameIdx = 0;
  Tick prevEnd = 0;
  for (FrameDirectory dir = r.firstDirectory(); !dir.frames.empty();
       dir = r.readDirectory(dir.nextOffset)) {
    for (const FrameInfo& frame : dir.frames) {
      const FrameBuf bytes = r.readFrame(frame);
      ByteReader br = bytes.reader();
      const RecordView first = RecordView::parse(readLengthPrefixedRecord(br));
      if (frameIdx > 0) {
        EXPECT_EQ(first.bebits(), Bebits::kContinuation);
        EXPECT_EQ(first.dura, 0u);
        EXPECT_EQ(first.thread, 2);
        EXPECT_EQ(first.start, prevEnd);
      }
      prevEnd = frame.endTime;
      ++frameIdx;
    }
    if (dir.nextOffset == 0) break;
  }
  EXPECT_EQ(frameIdx, pseudo + 1);
}

TEST(IntervalFile, RestatementStaysWithinItsShareOfEachFrame) {
  // 64 threads hold open states: restating them takes 64 records, more
  // bytes than the whole 1 KiB frame budget. Sized by bytes alone, every
  // later frame would be 64 pseudo records and one real one.
  const Profile profile = makeStandardProfile();
  std::vector<ThreadEntry> threads;
  for (int t = 0; t <= 64; ++t) {
    threads.push_back({0, 1000, 10000 + t, 0, t, ThreadType::kUser});
  }
  const std::string path = tempPath("ifile_share.uti");
  constexpr int kReal = 4000;
  {
    IntervalFileWriter w(path, mergedSmallFrames(), threads, &profile);
    for (int t = 0; t < 64; ++t) {
      w.addRecord(mergedRunning(0, static_cast<Tick>(t), t,
                                Bebits::kBegin).view());
    }
    for (int i = 0; i < kReal; ++i) {
      w.addRecord(mergedRunning(100 + static_cast<Tick>(i) * 10, 9, 64)
                      .view());
    }
    w.close();
  }
  const auto shares = frameShares(path);
  ASSERT_GT(shares.size(), 2u);
  // close() seals the last frame whatever its share; every other frame
  // after the first holds at least four real records per pseudo record.
  for (std::size_t f = 1; f + 1 < shares.size(); ++f) {
    EXPECT_LE(shares[f].first * 4, shares[f].second) << "frame " << f;
  }
  // One frame per 4 x 64 real records, plus the first few; by bytes
  // alone this file had one frame per real record.
  EXPECT_LE(shares.size(), 4u + kReal / (4 * 64));
}

TEST(IntervalFile, EmptyFileIsValid) {
  const std::string path = tempPath("ifile_empty.uti");
  {
    IntervalFileWriter w(path, smallFrames(), sampleThreads());
    w.close();
  }
  IntervalFileReader r(path);
  EXPECT_EQ(r.header().totalRecords, 0u);
  auto stream = r.records();
  RecordView view;
  EXPECT_FALSE(stream.next(view));
  EXPECT_FALSE(r.frameContaining(0).has_value());
}

TEST(IntervalFile, GarbageRejected) {
  const std::string path = tempPath("ifile_garbage.uti");
  writeWholeFile(path, std::string(200, 'x'));
  EXPECT_THROW(IntervalFileReader reader(path), FormatError);
}

TEST(IntervalFile, ProfileVersionCheck) {
  const std::string path = tempPath("ifile_version.uti");
  {
    IntervalFileWriter w(path, smallFrames(), sampleThreads());
    w.close();
  }
  IntervalFileReader r(path);
  EXPECT_NO_THROW(r.checkProfile(makeStandardProfile()));
  ProfileBuilder other(999);
  other.record(1, "x");
  other.scalar("type", DataType::kU32);
  const Profile wrong = other.build();
  EXPECT_THROW(r.checkProfile(wrong), FormatError);
}

class IntervalFileFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalFileFuzzTest, RandomRecordsRoundTripExactly) {
  Rng rng(GetParam());
  const std::string path =
      tempPath("ifile_fuzz_" + std::to_string(GetParam()) + ".uti");
  IntervalFileOptions options = smallFrames();
  options.targetFrameBytes = 1024 + rng.below(4096);
  options.framesPerDirectory = 2 + static_cast<int>(rng.below(10));

  std::vector<std::vector<std::uint8_t>> originals;
  Tick t = 0;
  {
    IntervalFileWriter w(path, options, sampleThreads());
    const int n = 200 + static_cast<int>(rng.below(800));
    for (int i = 0; i < n; ++i) {
      t += rng.below(1000);
      const Tick dura = rng.below(500);
      ByteWriter extra;
      const int extraWords = static_cast<int>(rng.below(4));
      for (int e = 0; e < extraWords; ++e) {
        extra.u32(static_cast<std::uint32_t>(rng.next()));
      }
      // Use a synthetic type id so no profile validation applies; the
      // format itself is self-describing at the framing level.
      const ByteWriter body = encodeRecordBody(
          static_cast<IntervalType>(4000 + extraWords), t > dura ? t - dura : 0,
          dura, static_cast<std::int32_t>(rng.below(8)), 0,
          static_cast<LogicalThreadId>(rng.below(3)), extra.view());
      originals.emplace_back(body.view().begin(), body.view().end());
      w.addRecord(body.view());
    }
    w.close();
  }

  IntervalFileReader r(path);
  auto stream = r.records();
  RecordView view;
  std::size_t idx = 0;
  while (stream.next(view)) {
    ASSERT_LT(idx, originals.size());
    EXPECT_TRUE(std::equal(view.body.begin(), view.body.end(),
                           originals[idx].begin(), originals[idx].end()))
        << "record " << idx << " differs";
    ++idx;
  }
  EXPECT_EQ(idx, originals.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalFileFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace ute
