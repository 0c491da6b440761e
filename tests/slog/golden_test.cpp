// Golden-file drift detection for the v2 columnar format. The checked-in
// tests/data/golden_v2.slog was produced by exactly the record sequence
// below; two tests pin the format from both sides:
//   - encoder drift: re-writing those records today must reproduce the
//     golden file byte for byte (the encoding is deterministic — any
//     diff means the on-disk format changed and needs a version bump);
//   - decoder drift: decoding the golden bytes must yield the exact
//     record values, so future readers keep reading today's files.
// Regenerate (only with an intentional, versioned format change):
//   UTE_REGEN_GOLDEN=1 ./slog_tests --gtest_filter='SlogGolden.*'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "interval/standard_profile.h"
#include "slog/slog_codec.h"
#include "slog/slog_reader.h"
#include "slog/slog_writer.h"
#include "support/file_io.h"
#include "temp_dir.h"

namespace ute {
namespace {

std::string goldenPath() {
  return std::string(UTE_TEST_DATA_DIR) + "/golden_v2.slog";
}

/// Merged-style record body (origStart appended).
ByteWriter mergedBody(EventType event, Bebits bebits, Tick start, Tick dura,
                      NodeId node, LogicalThreadId thread,
                      const ByteWriter& args = {}) {
  ByteWriter extra;
  extra.bytes(args.view());
  extra.u64(start);  // origStart
  return encodeRecordBody(makeIntervalType(event, bebits), start, dura, 0,
                          node, thread, extra.view());
}

/// The frozen record sequence behind the golden file: running intervals
/// on two nodes (dictionary-friendly state ids, delta-friendly starts),
/// matched send/recv pairs (arrows), and a cross-frame marker (pseudo
/// intervals) — every v2 column kind is exercised.
std::string writeGoldenRecords(const std::string& path) {
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.recordsPerFrame = 48;
  options.formatVersion = 2;
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {{3, "golden phase"}});
  ByteWriter markerBegin;
  markerBegin.u32(3);
  markerBegin.u64(0x10);  // instrAddrBegin
  w.addRecord(RecordView::parse(
      mergedBody(EventType::kUserMarker, Bebits::kBegin, 0, kMs, 0, 0,
                 markerBegin)
          .view()));
  for (int i = 0; i < 220; ++i) {
    w.addRecord(RecordView::parse(
        mergedBody(kRunningState, Bebits::kComplete,
                   static_cast<Tick>(i) * kMs + (i % 7) * 1000,
                   kMs / 2 + (i % 3) * 100, i % 2, 0)
            .view()));
    if (i % 20 == 5) {
      const std::uint32_t seq = static_cast<std::uint32_t>(i);
      ByteWriter sendArgs;
      sendArgs.i32(1);                    // destTask
      sendArgs.i32(9);                    // tag
      sendArgs.u32(256u + (i % 4) * 64);  // msgSizeSent
      sendArgs.u32(seq);                  // seqNo
      sendArgs.i32(0);                    // comm
      w.addRecord(RecordView::parse(
          mergedBody(EventType::kMpiSend, Bebits::kComplete,
                     static_cast<Tick>(i) * kMs, kMs / 4, 0, 0, sendArgs)
              .view()));
      ByteWriter recvArgs;
      recvArgs.i32(0);                    // srcWanted
      recvArgs.i32(9);                    // tagWanted
      recvArgs.i32(0);                    // comm
      recvArgs.i32(0);                    // srcTask
      recvArgs.i32(9);                    // tagRecv
      recvArgs.u32(256u + (i % 4) * 64);  // msgSizeRecv
      recvArgs.u32(seq);                  // seqNo
      w.addRecord(RecordView::parse(
          mergedBody(EventType::kMpiRecv, Bebits::kComplete,
                     static_cast<Tick>(i) * kMs + kMs / 3, kMs / 4, 1, 0,
                     recvArgs)
              .view()));
    }
  }
  ByteWriter markerEnd;
  markerEnd.u32(3);
  markerEnd.u64(0x20);  // instrAddrEnd
  w.addRecord(RecordView::parse(
      mergedBody(EventType::kUserMarker, Bebits::kEnd, 220 * kMs, kMs, 0, 0,
                 markerEnd)
          .view()));
  w.close();
  return path;
}

TEST(SlogGolden, EncoderReproducesGoldenFileByteForByte) {
  const std::string fresh =
      writeGoldenRecords(tempPath("golden_regen.slog"));
  if (std::getenv("UTE_REGEN_GOLDEN") != nullptr) {
    std::filesystem::create_directories(
        std::filesystem::path(goldenPath()).parent_path());
    std::filesystem::copy_file(
        fresh, goldenPath(),
        std::filesystem::copy_options::overwrite_existing);
    GTEST_SKIP() << "regenerated " << goldenPath();
  }
  const std::vector<std::uint8_t> expected = readWholeFile(goldenPath());
  const std::vector<std::uint8_t> got = readWholeFile(fresh);
  ASSERT_EQ(got.size(), expected.size())
      << "encoder output size drifted from the golden v2 file";
  EXPECT_TRUE(got == expected)
      << "encoder bytes drifted from the golden v2 file — if the format "
         "change is intentional, bump kSlogVersion and regenerate with "
         "UTE_REGEN_GOLDEN=1";
}

// Pinned decode facts for tests/data/golden_v2.slog (printed by a
// UTE_REGEN_GOLDEN=1 run of the test below).
constexpr std::uint64_t kGoldenIntervals = 249;
constexpr std::uint64_t kGoldenChecksum = 12334099028435356886ull;

TEST(SlogGolden, DecoderReadsGoldenFileExactly) {
  SlogReader r(goldenPath());
  EXPECT_EQ(r.formatVersion(), 2u);
  ASSERT_GE(r.frameIndex().size(), 4u);
  EXPECT_EQ(r.totalStart(), 0u);

  // Aggregate ground truth over every frame, folded into one FNV-1a
  // checksum over every decoded field — a decoder that misreads any
  // lane of any column changes the sum. The pinned constants were
  // computed from this build's decode of the golden bytes at the time
  // the file was frozen.
  std::uint64_t checksum = 1469598103934665603ull;  // FNV offset basis
  const auto fold = [&checksum](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      checksum ^= (v >> (8 * b)) & 0xff;
      checksum *= 1099511628211ull;  // FNV prime
    }
  };
  std::uint64_t intervals = 0;
  std::uint64_t arrows = 0;
  for (std::size_t f = 0; f < r.frameIndex().size(); ++f) {
    const SlogFramePtr frame = r.readFrame(f);
    EXPECT_EQ(r.frameIndex()[f].encoding,
              static_cast<std::uint32_t>(FrameEncoding::kColumnar));
    EXPECT_EQ(frame->intervals.size() + frame->arrows.size(),
              r.frameIndex()[f].records);
    for (const SlogInterval& in : frame->intervals) {
      ++intervals;
      fold(in.stateId);
      fold(static_cast<std::uint64_t>(in.bebits) |
           (in.pseudo ? 0x100u : 0u));
      fold(in.start);
      fold(in.dura);
      fold(static_cast<std::uint32_t>(in.node));
      fold(static_cast<std::uint32_t>(in.cpu));
      fold(static_cast<std::uint32_t>(in.thread));
    }
    for (const SlogArrow& a : frame->arrows) {
      ++arrows;
      fold(static_cast<std::uint32_t>(a.srcNode));
      fold(static_cast<std::uint32_t>(a.srcThread));
      fold(a.sendTime);
      fold(static_cast<std::uint32_t>(a.dstNode));
      fold(static_cast<std::uint32_t>(a.dstThread));
      fold(a.recvTime);
      fold(a.bytes);
    }
  }
  if (std::getenv("UTE_REGEN_GOLDEN") != nullptr) {
    std::printf("golden decode: %llu intervals, %llu arrows, "
                "checksum %llu\n",
                static_cast<unsigned long long>(intervals),
                static_cast<unsigned long long>(arrows),
                static_cast<unsigned long long>(checksum));
    GTEST_SKIP() << "regeneration run — update the pinned constants";
  }
  EXPECT_EQ(arrows, 11u);
  EXPECT_EQ(intervals, kGoldenIntervals);
  EXPECT_EQ(checksum, kGoldenChecksum)
      << "decoded golden fields drifted — the v2 decoder no longer reads "
         "frozen files the way it did when they were written";

  // Spot-check the very first frame's first records exactly.
  const SlogFramePtr first = r.readFrame(0);
  ASSERT_FALSE(first->intervals.empty());
  const SlogInterval& marker = first->intervals.front();
  EXPECT_EQ(marker.stateId, kMarkerStateBase + 3);
  EXPECT_EQ(marker.start, 0u);
  EXPECT_EQ(marker.node, 0);
}

}  // namespace
}  // namespace ute
