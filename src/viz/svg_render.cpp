#include "viz/svg_render.h"

#include <algorithm>
#include <cmath>

#include "slog/preview.h"
#include "support/text.h"

namespace ute {

namespace {

std::string rgbHex(std::uint32_t rgb) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "#%06x", rgb & 0xffffff);
  return buf;
}

void rect(std::string& svg, double x, double y, double w, double h,
          const std::string& fill, const std::string& extra = "") {
  svg += "<rect x=\"" + fixed(x, 2) + "\" y=\"" + fixed(y, 2) + "\" width=\"" +
         fixed(std::max(w, 0.5), 2) + "\" height=\"" + fixed(h, 2) +
         "\" fill=\"" + fill + "\"" + extra + "/>\n";
}

void text(std::string& svg, double x, double y, const std::string& s,
          int size = 11, const std::string& extra = "") {
  svg += "<text x=\"" + fixed(x, 1) + "\" y=\"" + fixed(y, 1) +
         "\" font-family=\"sans-serif\" font-size=\"" + std::to_string(size) +
         "\"" + extra + ">" + escapeXml(s) + "</text>\n";
}

}  // namespace

std::string renderSvg(const TimeSpaceModel& model, const SvgOptions& options) {
  const int chartLeft = options.labelWidth;
  const int chartWidth = options.width - chartLeft - 10;
  const int topMargin = 28;
  const int axisHeight = 24;
  const int legendRows =
      options.legend
          ? static_cast<int>((model.legend.size() + 4) / 5)
          : 0;
  const int legendHeight = legendRows * 18 + (legendRows > 0 ? 8 : 0);
  const int height = topMargin +
                     static_cast<int>(model.rows.size()) * options.rowHeight +
                     axisHeight + legendHeight + 8;

  const double tMin = static_cast<double>(model.minTime);
  const double tMax = static_cast<double>(std::max(model.maxTime,
                                                   model.minTime + 1));
  const auto xOf = [&](Tick t) {
    return chartLeft + (static_cast<double>(t) - tMin) / (tMax - tMin) *
                           chartWidth;
  };

  std::string svg = "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
                    std::to_string(options.width) + "\" height=\"" +
                    std::to_string(height) + "\">\n";
  rect(svg, 0, 0, options.width, height, "#ffffff");
  text(svg, 8, 18, model.title + " (" + viewKindName(model.kind) + ")", 13,
       " font-weight=\"bold\"");

  // Row backgrounds, labels and segments.
  for (std::size_t r = 0; r < model.rows.size(); ++r) {
    const double y = topMargin + static_cast<double>(r) * options.rowHeight;
    rect(svg, chartLeft, y, chartWidth, options.rowHeight - 2,
         r % 2 == 0 ? "#f4f4f4" : "#ececec");
    text(svg, 4, y + options.rowHeight * 0.7, model.rows[r].label, 10);
    for (const VizSegment& seg : model.rows[r].segments) {
      const double x0 = xOf(seg.start);
      const double x1 = xOf(seg.end);
      const double inset = std::min<double>(seg.depth * 3.0,
                                            options.rowHeight / 3.0);
      const auto legendIt = model.legend.find(seg.colorKey);
      const std::uint32_t rgb =
          legendIt != model.legend.end() ? legendIt->second.second : 0x888888;
      rect(svg, x0, y + 1 + inset, x1 - x0, options.rowHeight - 4 - 2 * inset,
           rgbHex(rgb),
           seg.pseudo ? " stroke=\"#333\" stroke-dasharray=\"2,2\"" : "");
    }
  }

  // Message arrows.
  for (const VizArrow& a : model.arrows) {
    const double x0 = xOf(a.fromTime);
    const double x1 = xOf(a.toTime);
    const double y0 = topMargin + (a.fromRow + 0.5) * options.rowHeight;
    const double y1 = topMargin + (a.toRow + 0.5) * options.rowHeight;
    svg += "<line x1=\"" + fixed(x0, 1) + "\" y1=\"" + fixed(y0, 1) +
           "\" x2=\"" + fixed(x1, 1) + "\" y2=\"" + fixed(y1, 1) +
           "\" stroke=\"#222\" stroke-width=\"1\"/>\n";
    svg += "<circle cx=\"" + fixed(x1, 1) + "\" cy=\"" + fixed(y1, 1) +
           "\" r=\"2.2\" fill=\"#222\"/>\n";
  }

  // Time axis (seconds).
  const double axisY =
      topMargin + static_cast<double>(model.rows.size()) * options.rowHeight +
      14;
  for (int i = 0; i <= 10; ++i) {
    const double frac = i / 10.0;
    const double x = chartLeft + frac * chartWidth;
    const double tSec = (tMin + frac * (tMax - tMin)) / 1e9;
    svg += "<line x1=\"" + fixed(x, 1) + "\" y1=\"" + fixed(axisY - 10, 1) +
           "\" x2=\"" + fixed(x, 1) + "\" y2=\"" + fixed(axisY - 4, 1) +
           "\" stroke=\"#666\"/>\n";
    text(svg, x - 12, axisY + 8, fixed(tSec, 3) + "s", 9);
  }

  // Legend.
  if (options.legend) {
    double lx = chartLeft;
    double ly = axisY + 24;
    int col = 0;
    for (const auto& [key, entry] : model.legend) {
      rect(svg, lx, ly - 9, 10, 10, rgbHex(entry.second));
      text(svg, lx + 14, ly, entry.first, 10);
      lx += chartWidth / 5.0;
      if (++col % 5 == 0) {
        lx = chartLeft;
        ly += 18;
      }
    }
  }

  svg += "</svg>\n";
  return svg;
}

std::string renderPreviewSvg(const SlogPreview& preview,
                             const std::vector<SlogStateDef>& states,
                             std::uint32_t bins, const SvgOptions& options) {
  const SlogPreview p = rebinPreview(preview, bins);
  const int chartLeft = options.labelWidth;
  const int chartWidth = options.width - chartLeft - 10;
  const int chartHeight = 180;
  const int legendRows = static_cast<int>((states.size() + 4) / 5);
  const int height = 28 + chartHeight + 30 + legendRows * 18 + 8;

  // Column totals scale the stacked bars.
  double maxTotal = 1.0;
  for (std::uint32_t b = 0; b < p.bins; ++b) {
    double total = 0;
    for (const auto& row : p.perStateBinTime) total += row[b];
    maxTotal = std::max(maxTotal, total);
  }

  std::string svg = "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
                    std::to_string(options.width) + "\" height=\"" +
                    std::to_string(height) + "\">\n";
  rect(svg, 0, 0, options.width, height, "#ffffff");
  text(svg, 8, 18, "preview: state time per bin", 13, " font-weight=\"bold\"");

  const double binW = static_cast<double>(chartWidth) / p.bins;
  for (std::uint32_t b = 0; b < p.bins; ++b) {
    double y = 28.0 + chartHeight;
    for (std::size_t s = 0; s < p.perStateBinTime.size(); ++s) {
      const double v = p.perStateBinTime[s][b];
      if (v <= 0) continue;
      const double h = v / maxTotal * chartHeight;
      y -= h;
      rect(svg, chartLeft + b * binW, y, binW - 0.5, h,
           rgbHex(states[s].rgb));
    }
  }

  const double axisY = 28.0 + chartHeight + 14;
  const double totalSec =
      static_cast<double>(p.binWidth) * p.bins / 1e9;
  for (int i = 0; i <= 10; ++i) {
    const double frac = i / 10.0;
    text(svg, chartLeft + frac * chartWidth - 12, axisY + 6,
         fixed(frac * totalSec, 1) + "s", 9);
  }

  double lx = chartLeft;
  double ly = axisY + 28;
  int col = 0;
  for (const SlogStateDef& s : states) {
    rect(svg, lx, ly - 9, 10, 10, rgbHex(s.rgb));
    text(svg, lx + 14, ly, s.name, 10);
    lx += chartWidth / 5.0;
    if (++col % 5 == 0) {
      lx = chartLeft;
      ly += 18;
    }
  }
  svg += "</svg>\n";
  return svg;
}

}  // namespace ute
