// SLOG window views: an arbitrary time range assembled from only the
// frames it intersects, with states entering from the left completed by
// the first frame's pseudo-intervals.
#include <gtest/gtest.h>

#include <filesystem>

#include "interval/file_writer.h"
#include "interval/standard_profile.h"
#include "stats/engine.h"
#include "slog/slog_reader.h"
#include "slog/slog_writer.h"
#include "viz/timeline_model.h"
#include "temp_dir.h"

namespace ute {
namespace {

/// One long marker [0, 200ms) over steady Running pieces, framed every
/// 40 records.
std::string makeSlog() {
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("window_view.slog");
  SlogOptions options;
  options.recordsPerFrame = 40;
  SlogWriter w(path, options, profile,
               {{0, 1, 2, 0, 0, ThreadType::kMpi}}, {{3, "phase"}});
  const auto add = [&](EventType event, Bebits bebits, Tick start, Tick dura,
                       ByteWriter args = {}) {
    args.u64(start);  // origStart
    const ByteWriter body = encodeRecordBody(makeIntervalType(event, bebits),
                                             start, dura, 0, 0, 0,
                                             args.view());
    w.addRecord(RecordView::parse(body.view()));
  };
  ByteWriter markerArgs;
  markerArgs.u32(3);
  markerArgs.u64(0x1);
  add(EventType::kUserMarker, Bebits::kBegin, 0, kMs, markerArgs);
  for (int i = 1; i < 200; ++i) {
    add(kRunningState, Bebits::kComplete, static_cast<Tick>(i) * kMs,
        kMs / 2);
  }
  ByteWriter endArgs;
  endArgs.u32(3);
  endArgs.u64(0x2);
  add(EventType::kUserMarker, Bebits::kEnd, 200 * kMs, kMs, endArgs);
  w.close();
  return path;
}

TEST(SlogWindowView, SpansMultipleFrames) {
  SlogReader slog(makeSlog());
  ASSERT_GE(slog.frameIndex().size(), 3u);

  // A window covering the middle of the run, crossing frame boundaries.
  const Tick t0 = 50 * kMs;
  const Tick t1 = 150 * kMs;
  const TimeSpaceModel m = buildSlogWindowView(slog, t0, t1);
  EXPECT_EQ(m.minTime, t0);
  EXPECT_EQ(m.maxTime, t1);

  // The long marker (open across the whole window) renders as a pseudo
  // segment spanning the window; Running pieces fill the rest.
  bool markerSpansWindow = false;
  int runningSegments = 0;
  for (const VizTimeline& row : m.rows) {
    for (const VizSegment& s : row.segments) {
      EXPECT_GE(s.start, t0);
      EXPECT_LE(s.end, t1);
      if (s.colorKey == kMarkerStateBase + 3 && s.pseudo &&
          s.start == t0 && s.end == t1) {
        markerSpansWindow = true;
      }
      if (s.colorKey == static_cast<std::uint32_t>(kRunningState)) {
        ++runningSegments;
      }
    }
  }
  EXPECT_TRUE(markerSpansWindow);
  // ~100 Running pieces fall inside [50ms, 150ms].
  EXPECT_GE(runningSegments, 95);
  EXPECT_LE(runningSegments, 105);
}

TEST(SlogWindowView, SingleFrameWindowMatchesFrameView) {
  SlogReader slog(makeSlog());
  const SlogFrameIndexEntry& entry = slog.frameIndex()[1];
  const TimeSpaceModel window =
      buildSlogWindowView(slog, entry.timeStart, entry.timeEnd);
  const TimeSpaceModel frame = buildSlogFrameView(slog, 1);
  ASSERT_EQ(window.rows.size(), frame.rows.size());
  // Same segment counts per row (geometry identical up to clipping).
  for (std::size_t r = 0; r < window.rows.size(); ++r) {
    EXPECT_EQ(window.rows[r].segments.size(), frame.rows[r].segments.size());
  }
}

TEST(SlogWindowView, RejectsBadWindows) {
  SlogReader slog(makeSlog());
  EXPECT_THROW(buildSlogWindowView(slog, 100, 100), UsageError);
  EXPECT_THROW(buildSlogWindowView(slog, 900 * kSec, 901 * kSec), UsageError);
}

TEST(StatsStddev, ComputesPopulationDeviation) {
  // Validate against a hand-computed case via a tiny interval file.
  const Profile profile = makeStandardProfile();
  IntervalFileOptions options;
  options.profileVersion = kStandardProfileVersion;
  options.fieldSelectionMask = kNodeFileMask;
  const std::string path = tempPath("stddev.uti");
  {
    IntervalFileWriter w(path, options,
                         {{0, 1, 2, 0, 0, ThreadType::kMpi}});
    // Durations 1s, 3s: mean 2, population stddev 1.
    w.addRecord(encodeRecordBody(
                    makeIntervalType(kRunningState, Bebits::kComplete), 0,
                    kSec, 0, 0, 0)
                    .view());
    w.addRecord(encodeRecordBody(
                    makeIntervalType(kRunningState, Bebits::kComplete),
                    2 * kSec, 3 * kSec, 0, 0, 0)
                    .view());
    w.close();
  }
  IntervalFileReader file(path);
  StatsEngine engine(profile);
  const auto tables = engine.runProgram(
      "table name=t x=(\"node\", node) y=(\"sd\", dura, stddev)", file);
  ASSERT_EQ(tables[0].rows.size(), 1u);
  EXPECT_EQ(tables[0].cell(0, "sd"), "1");
}

}  // namespace
}  // namespace ute
