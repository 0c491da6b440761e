// The per-frame time index (slog/frame_time_index.h): which frames get
// one, and that the range it gives a window never leaves out an interval
// the window overlaps. Query results over indexed and unindexed frames
// are compared with full scans in tests/server/service_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>

#include "slog/frame_time_index.h"
#include "support/rng.h"

namespace ute {
namespace {

SlogInterval interval(Tick start, Tick dura, bool pseudo = false) {
  SlogInterval r;
  r.start = start;
  r.dura = dura;
  r.pseudo = pseudo;
  return r;
}

/// `pseudo` pseudo-intervals, then `real` real ones in ascending end
/// order; one in eight is long, so start order differs from end order.
SlogFrameData writerLayout(Rng& rng, std::size_t pseudo, std::size_t real) {
  SlogFrameData frame;
  for (std::size_t i = 0; i < pseudo; ++i) {
    frame.intervals.push_back(interval(rng.below(1000), 0, true));
  }
  std::vector<SlogInterval> reals;
  for (std::size_t i = 0; i < real; ++i) {
    const Tick end = 1000 + rng.below(10000);
    const Tick dura = rng.below(8) == 0 ? rng.below(3000) : rng.below(50);
    reals.push_back(interval(end - dura, dura));
  }
  std::sort(reals.begin(), reals.end(),
            [](const SlogInterval& a, const SlogInterval& b) {
              return a.end() < b.end();
            });
  frame.intervals.insert(frame.intervals.end(), reals.begin(), reals.end());
  return frame;
}

TEST(FrameTimeIndex, WriterLayoutIsIndexed) {
  Rng rng(1);
  SlogFrameData frame = writerLayout(rng, 3, 200);
  indexFrameTimes(frame);
  EXPECT_EQ(frame.pseudoPrefix, 3u);
  ASSERT_EQ(frame.startFloors.size(), (203 + 63) / 64);
  EXPECT_TRUE(std::is_sorted(frame.startFloors.begin(),
                             frame.startFloors.end()));
  Tick lowest = frame.intervals.back().start;
  for (std::size_t i = frame.intervals.size(); i-- > 3;) {
    lowest = std::min(lowest, frame.intervals[i].start);
    if (i % kStartFloorBlock == 0) {
      EXPECT_EQ(frame.startFloors[i / kStartFloorBlock], lowest) << i;
    }
  }
}

TEST(FrameTimeIndex, OtherLayoutsStayUnindexed) {
  Rng rng(2);
  SlogFrameData pseudoLate = writerLayout(rng, 2, 100);
  pseudoLate.intervals.insert(pseudoLate.intervals.begin() + 50,
                              interval(5, 0, true));
  SlogFrameData descending = writerLayout(rng, 2, 100);
  std::swap(descending.intervals[10], descending.intervals[90]);
  for (SlogFrameData* frame : {&pseudoLate, &descending}) {
    indexFrameTimes(*frame);
    EXPECT_TRUE(frame->startFloors.empty());
    EXPECT_EQ(frame->pseudoPrefix, 0u);
    const IntervalReach reach = intervalsReaching(*frame, 2000, 3000);
    EXPECT_EQ(reach.pseudoEnd, 0u);
    EXPECT_EQ(reach.begin, 0u);
    EXPECT_EQ(reach.end, frame->intervals.size());
  }
}

TEST(FrameTimeIndex, ReachHoldsEveryOverlappingInterval) {
  Rng rng(3);
  std::size_t tested = 0;
  std::size_t inReach = 0;
  for (int round = 0; round < 200; ++round) {
    SlogFrameData frame =
        writerLayout(rng, rng.below(4), rng.below(400));
    indexFrameTimes(frame);
    ASSERT_EQ(frame.startFloors.empty(), frame.intervals.empty());
    for (int w = 0; w < 20; ++w) {
      // Narrow windows, as a viewer zoomed into part of a frame sends.
      const Tick t0 = rng.below(12000);
      const Tick t1 = t0 + rng.below(500);
      const IntervalReach reach = intervalsReaching(frame, t0, t1);
      ASSERT_EQ(reach.pseudoEnd, frame.pseudoPrefix);
      ASSERT_LE(reach.pseudoEnd, reach.begin);
      ASSERT_LE(reach.begin, reach.end);
      ASSERT_LE(reach.end, frame.intervals.size());
      for (std::size_t i = frame.pseudoPrefix; i < frame.intervals.size();
           ++i) {
        const SlogInterval& r = frame.intervals[i];
        if (i >= reach.begin && i < reach.end) continue;
        EXPECT_TRUE(r.end() < t0 || r.start > t1)
            << "interval " << i << " [" << r.start << ", " << r.end()
            << "] left out of [" << t0 << ", " << t1 << "]";
      }
      tested += frame.intervals.size() - frame.pseudoPrefix;
      inReach += reach.end - reach.begin;
    }
  }
  // The index has to narrow the scan, not only keep it correct.
  EXPECT_LT(inReach * 2, tested);
}

TEST(FrameTimeIndex, EmptyAndPseudoOnlyFrames) {
  SlogFrameData empty;
  indexFrameTimes(empty);
  const IntervalReach none = intervalsReaching(empty, 0, 10);
  EXPECT_EQ(none.end, 0u);

  SlogFrameData pseudoOnly;
  pseudoOnly.intervals = {interval(1, 0, true), interval(2, 0, true)};
  indexFrameTimes(pseudoOnly);
  EXPECT_EQ(pseudoOnly.pseudoPrefix, 2u);
  const IntervalReach reach = intervalsReaching(pseudoOnly, 0, 10);
  EXPECT_EQ(reach.pseudoEnd, 2u);
  EXPECT_EQ(reach.begin, 2u);
  EXPECT_EQ(reach.end, 2u);
}

}  // namespace
}  // namespace ute
