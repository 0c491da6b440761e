// Byte pins of the renderers' text outputs. Every ASCII rendering (the
// timeline, the preview, the statistics heatmap and the metrics
// heatmap) and the timeline and preview SVGs are drawn from fixed,
// hand-built inputs and their FNV-1a-64 digests compared with constants
// recorded from the output. The two heatmap SVGs may change their
// geometry and colours, so only the text they carry is pinned: the
// ordered contents of their <text> elements (title, row labels, axis
// labels and values).
//
// A failure prints the rendering and its digest. Update a constant only
// for an intended change of the drawn output.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "interval/field.h"
#include "slog/preview.h"
#include "support/hash.h"
#include "trace/events.h"
#include "viz/ascii_render.h"
#include "viz/metrics_view.h"
#include "viz/stats_viewer.h"
#include "viz/svg_render.h"

namespace ute {
namespace {

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void expectDigest(const std::string& out, std::uint64_t expected) {
  EXPECT_EQ(hex(fnv1a64(out)), hex(expected)) << out;
}

/// The ordered contents of every <text> element of an SVG document.
std::string svgTexts(const std::string& svg) {
  std::string texts;
  for (std::size_t at = svg.find("<text"); at != std::string::npos;
       at = svg.find("<text", at + 1)) {
    const std::size_t open = svg.find('>', at) + 1;
    texts += svg.substr(open, svg.find("</text>", open) - open);
    texts += '\n';
  }
  return texts;
}

TimeSpaceModel timelineModel() {
  TimeSpaceModel m;
  m.title = "pinned";
  m.kind = ViewKind::kThreadActivity;
  m.minTime = 1000;
  m.maxTime = 9000;
  VizTimeline t0;
  t0.label = "n0.t0";
  t0.segments = {{1, 1000, 4000, 0, false},
                 {2, 4000, 5200, 1, false},
                 {1, 5200, 9000, 0, false}};
  VizTimeline t1;
  t1.label = "n1.t0 <main>";
  t1.segments = {{1, 1500, 3000, 0, true},
                 {3, 3000, 6100, 1, false},
                 {2, 6100, 6150, 2, false}};
  VizTimeline t2;
  t2.label = "n1.t1";
  m.rows = {t0, t1, t2};
  m.arrows = {{0, 1, 4000, 6100, 64}, {1, 0, 6150, 8000, 1024}};
  m.legend[1] = {"Running", 0x4c72b0};
  m.legend[2] = {"MPI_Send", 0xdd8452};
  m.legend[3] = {"IoRead & more", 0x55a868};
  return m;
}

SlogPreview previewData(std::vector<SlogStateDef>& states) {
  PreviewAccumulator acc(64, kMs);
  acc.add(1, 0, 20 * kMs);
  acc.add(2, 10 * kMs, 5 * kMs);
  acc.add(3, 3 * kMs, 2 * kMs + 300);
  acc.add(1, 40 * kMs, 31 * kMs);
  acc.add(3, 70 * kMs, 9 * kMs);
  states = {{1, "Running", 0x4c72b0},
            {2, "MPI_Send", 0xdd8452},
            {3, "IoWrite", 0x55a868}};
  return acc.snapshot({1, 2, 3});
}

StatsTable statsTable() {
  StatsTable table;
  table.name = "interesting_by_node_bin";
  table.headers = {"node", "bin", "sum(duration)"};
  table.rows = {{"0", "0", "1.0"},  {"0", "1", "0.5"},  {"0", "5", "1.0"},
                {"1", "0", "0.25"}, {"1", "5", "0.75"}, {"10", "3", "2.5"},
                {"2", "2", "0.01"}, {"2", "4", "-1"},   {"2", "6", "x"}};
  return table;
}

/// Three tasks over 24 ms in 24 bins; task 2 has two threads, so its
/// wall time per bin is twice the others'. Busy time ramps across the
/// tasks, MPI sends and waits fill part of each step, and every wait
/// ends at an arrow whose send came late.
MetricsStore metricsStore() {
  const std::vector<ThreadEntry> threads = {
      {0, 1000, 10000, 0, 0, ThreadType::kMpi},
      {1, 1001, 10001, 1, 0, ThreadType::kMpi},
      {2, 1002, 10002, 2, 0, ThreadType::kMpi},
      {2, 1002, 10003, 2, 1, ThreadType::kUser},
      {-1, 1003, 10004, 2, 2, ThreadType::kSystem}};
  MetricsStore store(0, 24 * kMs, 24, threads);
  SlogFrameData frame;
  const auto interval = [&frame](EventType state, Tick start, Tick dura,
                                 NodeId node, LogicalThreadId thread) {
    SlogInterval r;
    r.stateId = static_cast<std::uint32_t>(state);
    r.start = start;
    r.dura = dura;
    r.node = node;
    r.thread = thread;
    frame.intervals.push_back(r);
  };
  for (int step = 0; step < 12; ++step) {
    const Tick t = static_cast<Tick>(step) * 2 * kMs;
    for (int task = 0; task < 3; ++task) {
      const Tick busy = kMs / 4 + static_cast<Tick>(task * step) * 40000;
      interval(kRunningState, t, busy, task, 0);
      if ((step + task) % 3 == 0) {
        interval(EventType::kMpiSend, t + busy, kMs / 2, task, 0);
      }
    }
    interval(kRunningState, t + kMs, 3 * kMs / 2, 2, 1);
    interval(EventType::kIoWrite, t + kMs / 8, kMs / 16, 1, 0);
    // Task 1 waits for task 0's message, which is sent late.
    const Tick waitStart = t + kMs / 2;
    const Tick recvEnd = t + kMs + kMs / 4;
    interval(EventType::kMpiWait, waitStart, recvEnd - waitStart, 1, 0);
    SlogArrow a;
    a.srcNode = 0;
    a.srcThread = 0;
    a.sendTime = t + kMs - static_cast<Tick>(step) * 20000;
    a.dstNode = 1;
    a.dstThread = 0;
    a.recvTime = recvEnd;
    a.bytes = 512u * static_cast<std::uint32_t>(step + 1);
    frame.arrows.push_back(a);
  }
  interval(static_cast<EventType>(kMarkerStateBase + 1), 3 * kMs, 5 * kMs,
           2, 0);
  store.addFrame(frame);
  return store;
}

TEST(RenderPin, TimelineAscii) {
  const TimeSpaceModel m = timelineModel();
  expectDigest(renderAscii(m, {.columns = 40}), 0x495e26326fcf0c95ull);
  expectDigest(renderAscii(m, {.columns = 10, .legend = false}),
               0x90a84d8048dabc14ull);
}

TEST(RenderPin, TimelineSvg) {
  expectDigest(renderSvg(timelineModel()), 0x412d5fbffeedd923ull);
  SvgOptions narrow;
  narrow.width = 640;
  narrow.legend = false;
  expectDigest(renderSvg(timelineModel(), narrow), 0x88dcd08e11c6878aull);
}

TEST(RenderPin, PreviewAsciiAndSvg) {
  std::vector<SlogStateDef> states;
  const SlogPreview p = previewData(states);
  expectDigest(renderPreviewAscii(p, states, 20), 0x4fab50080887209bull);
  expectDigest(renderPreviewAscii(p, states, 7), 0x63eebc727995edcdull);
  expectDigest(renderPreviewSvg(p, states, 20), 0x0b4d2815ef377f26ull);
}

TEST(RenderPin, StatsHeatmapAscii) {
  expectDigest(
      renderStatsHeatmapAscii(statsTable(), "bin", "node", "sum(duration)"),
      0x73b6afc4f663dcb7ull);
  expectDigest(
      renderStatsHeatmapAscii(statsTable(), "node", "bin", "sum(duration)"),
      0xa5f6143f58a561f6ull);
}

TEST(RenderPin, MetricsHeatmapAscii) {
  const MetricsStore store = metricsStore();
  const std::pair<MetricKind, std::uint64_t> pins[] = {
      {MetricKind::kBusy, 0x0502ef2b69c46256ull},
      {MetricKind::kMpi, 0x0bbaf52e114f517aull},
      {MetricKind::kIo, 0x547e8091e1b4281full},
      {MetricKind::kMarker, 0xace3f2d2c5355a51ull},
      {MetricKind::kIdle, 0x78d6b711715bf9c5ull},
      {MetricKind::kCommFraction, 0x649b4a34005afea9ull},
      {MetricKind::kLateSender, 0xec5693761e8e9b6dull},
      {MetricKind::kSendBytes, 0x3a773084f0fff5ceull},
      {MetricKind::kRecvBytes, 0x77ea965cc3d6c598ull},
  };
  for (const auto& [kind, digest] : pins) {
    SCOPED_TRACE(metricKindName(kind));
    expectDigest(renderMetricsHeatmapAscii(store, kind, 100), digest);
  }
  // Fewer columns than bins: each column sums an uneven run of bins.
  expectDigest(renderMetricsHeatmapAscii(store, MetricKind::kBusy, 7),
               0xc5ea2091b03f386bull);
  expectDigest(
      renderMetricsHeatmapAscii(store, MetricKind::kCommFraction, 7),
      0x80670a709128e2c8ull);
}

TEST(RenderPin, HeatmapSvgTexts) {
  expectDigest(svgTexts(renderStatsHeatmapSvg(statsTable(), "bin", "node",
                                              "sum(duration)")),
               0x92875519ec718614ull);
  const MetricsStore store = metricsStore();
  expectDigest(svgTexts(renderMetricsHeatmapSvg(store, MetricKind::kBusy)),
               0x1ce5a8401894d38full);
  expectDigest(
      svgTexts(renderMetricsHeatmapSvg(store, MetricKind::kCommFraction)),
      0xfe586eadf5b30fbaull);
}

}  // namespace
}  // namespace ute
