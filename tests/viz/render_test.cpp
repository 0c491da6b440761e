#include <gtest/gtest.h>

#include "slog/preview.h"
#include "support/text.h"
#include "viz/ascii_render.h"
#include "viz/stats_viewer.h"
#include "viz/svg_render.h"

namespace ute {
namespace {

TimeSpaceModel sampleModel() {
  TimeSpaceModel m;
  m.title = "sample";
  m.kind = ViewKind::kThreadActivity;
  m.minTime = 0;
  m.maxTime = 1000;
  VizTimeline t0;
  t0.label = "n0.t0";
  t0.segments.push_back({1, 0, 500, 0, false});
  t0.segments.push_back({2, 500, 1000, 1, false});
  VizTimeline t1;
  t1.label = "n0.t1";
  t1.segments.push_back({1, 250, 750, 0, true});
  m.rows = {t0, t1};
  m.arrows.push_back({0, 1, 100, 600, 64});
  m.legend[1] = {"Running", 0x4c72b0};
  m.legend[2] = {"MPI_Send", 0xdd8452};
  return m;
}

TEST(AsciiRender, DrawsRowsGlyphsAndLegend) {
  const std::string out = renderAscii(sampleModel(), {.columns = 20});
  EXPECT_NE(out.find("n0.t0"), std::string::npos);
  EXPECT_NE(out.find("n0.t1"), std::string::npos);
  // First half of row 0 is Running ('r'), second half MPI_Send ('S').
  EXPECT_NE(out.find("rrrrrrrrrrSSSSSSSSSS"), std::string::npos);
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("r=Running"), std::string::npos);
  EXPECT_NE(out.find("S=MPI_Send"), std::string::npos);
}

TEST(AsciiRender, DeeperSegmentsWinOverlaps) {
  TimeSpaceModel m = sampleModel();
  m.rows[0].segments.push_back({2, 0, 1000, 2, false});  // covers all
  const std::string out = renderAscii(m, {.columns = 10, .legend = false});
  EXPECT_NE(out.find("SSSSSSSSSS"), std::string::npos);
}

TEST(SvgRender, ProducesWellFormedDocument) {
  const std::string svg = renderSvg(sampleModel());
  EXPECT_EQ(svg.find("<svg"), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // Two segment rects with the legend colors, plus an arrow line.
  EXPECT_NE(svg.find("#4c72b0"), std::string::npos);
  EXPECT_NE(svg.find("#dd8452"), std::string::npos);
  EXPECT_NE(svg.find("<line"), std::string::npos);
  EXPECT_NE(svg.find("n0.t0"), std::string::npos);
  // Pseudo segments get a dashed outline.
  EXPECT_NE(svg.find("stroke-dasharray"), std::string::npos);
  // Time axis labels in seconds.
  EXPECT_NE(svg.find("s</text>"), std::string::npos);
}

TEST(SvgRender, EscapesXmlInLabels) {
  TimeSpaceModel m = sampleModel();
  m.legend[3] = {"a<b&c", 0x112233};
  m.rows[0].segments.push_back({3, 0, 10, 0, false});
  const std::string svg = renderSvg(m);
  EXPECT_EQ(svg.find("a<b&c"), std::string::npos);
  EXPECT_NE(svg.find("a&lt;b&amp;c"), std::string::npos);
}

TEST(PreviewRender, AsciiAndSvg) {
  PreviewAccumulator acc(64, kMs);
  acc.add(1, 0, 20 * kMs);
  acc.add(2, 10 * kMs, 5 * kMs);
  const SlogPreview p = acc.snapshot({1, 2});
  std::vector<SlogStateDef> states = {{1, "Running", 0x4c72b0},
                                      {2, "MPI_Send", 0xdd8452}};
  const std::string ascii = renderPreviewAscii(p, states, 20);
  EXPECT_NE(ascii.find("Running"), std::string::npos);
  EXPECT_NE(ascii.find("MPI_Send"), std::string::npos);
  const std::string svg = renderPreviewSvg(p, states, 20);
  EXPECT_EQ(svg.find("<svg"), 0u);
  EXPECT_NE(svg.find("Running"), std::string::npos);
}

TEST(StatsViewer, HeatmapAsciiShowsGapsForEmptyBins) {
  StatsTable table;
  table.name = "interesting_by_node_bin";
  table.headers = {"node", "bin", "sum(duration)"};
  table.rows = {{"0", "0", "1.0"}, {"0", "1", "0.5"}, {"0", "5", "1.0"},
                {"1", "0", "0.25"}, {"1", "5", "0.75"}};
  const std::string out =
      renderStatsHeatmapAscii(table, "bin", "node", "sum(duration)");
  // Bins 2..4 are filled in as blank columns (integer gap filling).
  EXPECT_NE(out.find("|"), std::string::npos);
  const auto lines = splitString(out, '\n');
  ASSERT_GE(lines.size(), 3u);
  // Row "0": intensity, intensity, 3 blanks, intensity.
  const std::string& row0 = lines[1];
  const auto bar = row0.substr(row0.find('|') + 1, 6);
  EXPECT_NE(bar[0], ' ');
  EXPECT_NE(bar[1], ' ');
  EXPECT_EQ(bar[2], ' ');
  EXPECT_EQ(bar[3], ' ');
  EXPECT_EQ(bar[4], ' ');
  EXPECT_NE(bar[5], ' ');
}

TEST(StatsViewer, HeatmapSvgRendersCells) {
  StatsTable table;
  table.name = "t";
  table.headers = {"x", "y", "v"};
  table.rows = {{"0", "0", "2.0"}, {"1", "0", "1.0"}};
  const std::string svg = renderStatsHeatmapSvg(table, "x", "y", "v");
  EXPECT_EQ(svg.find("<svg"), 0u);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("y=0"), std::string::npos);
}

TEST(StatsViewer, UnknownColumnThrows) {
  StatsTable table;
  table.name = "t";
  table.headers = {"a", "b"};
  table.rows = {{"1", "2"}};
  EXPECT_THROW(renderStatsHeatmapAscii(table, "a", "b", "missing"),
               UsageError);
}

TEST(StatsViewer, HeatmapSvgEscapesLabels) {
  // Table names, column names and y values are user text (a y value can
  // be a marker string); markup characters in them must be escaped or
  // the SVG is not well-formed XML.
  StatsTable table;
  table.name = "send & recv";
  table.headers = {"x", "<y>", "v"};
  table.rows = {{"0", "<main> & \"loop\"", "2.0"}, {"1", "a", "1.0"}};
  const std::string svg = renderStatsHeatmapSvg(table, "x", "<y>", "v");
  EXPECT_NE(svg.find("send &amp; recv"), std::string::npos);
  EXPECT_NE(svg.find("&lt;y&gt;=&lt;main&gt; &amp; &quot;loop&quot;"),
            std::string::npos);
  // Every '<' opens one of the renderer's own elements, every '&' an
  // entity.
  for (std::size_t i = svg.find('<'); i != std::string::npos;
       i = svg.find('<', i + 1)) {
    const std::string tag = svg.substr(i, 5);
    EXPECT_TRUE(tag == "<svg " || tag == "</svg" || tag == "<rect" ||
                tag == "<text" || tag == "</tex")
        << "raw '<' at " << i << ": " << svg.substr(i, 20);
  }
  for (std::size_t i = svg.find('&'); i != std::string::npos;
       i = svg.find('&', i + 1)) {
    const std::string rest = svg.substr(i, 6);
    EXPECT_TRUE(rest.rfind("&amp;", 0) == 0 || rest.rfind("&lt;", 0) == 0 ||
                rest.rfind("&gt;", 0) == 0 || rest.rfind("&quot;", 0) == 0)
        << "raw '&' at " << i << ": " << svg.substr(i, 20);
  }
}

}  // namespace
}  // namespace ute
