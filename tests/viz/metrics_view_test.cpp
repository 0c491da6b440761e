// Heatmap renderers over a hand-built metrics store: row/column shape,
// intensity scaling, metric-kind parsing, and well-formed SVG output.
#include <gtest/gtest.h>

#include <filesystem>

#include "interval/standard_profile.h"
#include "slog/slog_writer.h"
#include "viz/metrics_view.h"
#include "temp_dir.h"

namespace ute {
namespace {

/// Two tasks; task 0 runs for the first half of the span, task 1 for the
/// second half — an unmistakable diagonal in any heatmap.
MetricsStore diagonalStore() {
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("metrics_view.slog");
  {
    SlogWriter w(path, SlogOptions{}, profile,
                 {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                  {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
                 {});
    ByteWriter extraA;
    extraA.u64(0);
    w.addRecord(RecordView::parse(
        encodeRecordBody(makeIntervalType(kRunningState, Bebits::kComplete),
                         0, 500 * kMs, 0, 0, 0, extraA.view())
            .view()));
    ByteWriter extraB;
    extraB.u64(500 * kMs);
    w.addRecord(RecordView::parse(
        encodeRecordBody(makeIntervalType(kRunningState, Bebits::kComplete),
                         500 * kMs, 500 * kMs, 0, 1, 0, extraB.view())
            .view()));
    w.close();
  }
  SlogReader reader(path);
  MetricsOptions options;
  options.bins = 10;
  return computeMetrics(reader, options);
}

TEST(MetricsView, ParseMetricKindRoundTrips) {
  for (MetricKind kind :
       {MetricKind::kBusy, MetricKind::kMpi, MetricKind::kIo,
        MetricKind::kMarker, MetricKind::kIdle, MetricKind::kCommFraction,
        MetricKind::kLateSender, MetricKind::kSendBytes,
        MetricKind::kRecvBytes}) {
    const auto parsed = parseMetricKind(metricKindName(kind));
    ASSERT_TRUE(parsed.has_value()) << metricKindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parseMetricKind("bogus").has_value());
}

TEST(MetricsView, AsciiHeatmapShowsTheDiagonal) {
  const MetricsStore store = diagonalStore();
  const std::string out =
      renderMetricsHeatmapAscii(store, MetricKind::kBusy, 10);

  // One header line, one row per task, one footer line.
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n';
  EXPECT_EQ(lines, 4u);
  EXPECT_NE(out.find("task 0"), std::string::npos);
  EXPECT_NE(out.find("task 1"), std::string::npos);
  EXPECT_NE(out.find("scale: 9"), std::string::npos);

  // Task 0's row is hot then cold; task 1's the reverse.
  const std::size_t row0 = out.find("task 0");
  const std::size_t bar0 = out.find('|', row0);
  const std::size_t row1 = out.find("task 1");
  const std::size_t bar1 = out.find('|', row1);
  EXPECT_EQ(out[bar0 + 1], '9');   // first bin of task 0: full
  EXPECT_EQ(out[bar0 + 10], ' ');  // last bin of task 0: empty
  EXPECT_EQ(out[bar1 + 1], ' ');
  EXPECT_EQ(out[bar1 + 10], '9');
}

TEST(MetricsView, MetricCellMatchesStoreAccessors) {
  const MetricsStore store = diagonalStore();
  EXPECT_EQ(metricCell(store, MetricKind::kBusy, 0, 0),
            static_cast<double>(store.timeNs(StateClass::kBusy, 0, 0)));
  EXPECT_EQ(metricCell(store, MetricKind::kIdle, 0, 1),
            static_cast<double>(store.idleNs(0, 1)));
  // commFraction per cell stays within [0, 1].
  for (std::uint32_t b = 0; b < store.bins(); ++b) {
    for (std::uint32_t k = 0; k < store.taskCount(); ++k) {
      const double v = metricCell(store, MetricKind::kCommFraction, b, k);
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(MetricsView, CommFractionCellIsCappedAtOne) {
  // Two overlapping MPI intervals on task 0's one thread put 2 ms of MPI
  // time into each 1 ms bin: the cell shows the store's capped fraction.
  MetricsStore store(0, 4 * kMs, 4,
                     {{0, 1000, 10000, 0, 0, ThreadType::kMpi}});
  SlogFrameData frame;
  for (EventType state : {EventType::kMpiSend, EventType::kMpiWait}) {
    SlogInterval r;
    r.stateId = static_cast<std::uint32_t>(state);
    r.dura = 4 * kMs;
    frame.intervals.push_back(r);
  }
  store.addFrame(frame);
  ASSERT_EQ(store.timeNs(StateClass::kMpi, 0, 0), 2 * kMs);
  for (std::uint32_t b = 0; b < store.bins(); ++b) {
    EXPECT_EQ(metricCell(store, MetricKind::kCommFraction, b, 0), 1.0) << b;
  }
  const std::string out =
      renderMetricsHeatmapAscii(store, MetricKind::kCommFraction, 2);
  EXPECT_NE(out.find("|99|"), std::string::npos) << out;
  EXPECT_NE(out.find("scale: 9 = 100.0% per cell"), std::string::npos)
      << out;
}

TEST(MetricsView, SvgHeatmapIsWellFormed) {
  const MetricsStore store = diagonalStore();
  const std::string svg =
      renderMetricsHeatmapSvg(store, MetricKind::kBusy);
  EXPECT_EQ(svg.rfind("<svg ", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("metrics heatmap: busy"), std::string::npos);
  // Both task rows and the derived strip are drawn.
  EXPECT_NE(svg.find("task 0"), std::string::npos);
  EXPECT_NE(svg.find("task 1"), std::string::npos);
  EXPECT_NE(svg.find("commfrac"), std::string::npos);
  // Open and close tags balance.
  std::size_t opens = 0, closes = 0;
  for (std::size_t p = svg.find("<rect"); p != std::string::npos;
       p = svg.find("<rect", p + 1)) {
    ++opens;
  }
  for (std::size_t p = svg.find("/>"); p != std::string::npos;
       p = svg.find("/>", p + 1)) {
    ++closes;
  }
  EXPECT_GT(opens, 2u);
  EXPECT_GE(closes, opens);
}

}  // namespace
}  // namespace ute
