#include "viz/heatmap.h"

#include <algorithm>
#include <cstdio>

namespace ute {

namespace {

constexpr int kTop = 28;  // below the title

/// White (t = 0) to deep blue (t = 1).
std::string shade(double t) {
  t = std::clamp(t, 0.0, 1.0);
  char fill[8];
  std::snprintf(fill, sizeof fill, "#%02x%02x%02x",
                static_cast<int>(255 - t * (255 - 0x2f)),
                static_cast<int>(255 - t * (255 - 0x4b)),
                static_cast<int>(255 - t * (255 - 0x7c)));
  return fill;
}

}  // namespace

double heatmapMax(const std::vector<std::vector<double>>& values) {
  double max = 0;
  for (const auto& row : values) {
    for (double v : row) max = std::max(max, v);
  }
  return max;
}

std::string renderHeatmapAscii(const Heatmap& map) {
  std::size_t labelWidth = 0;
  for (const std::string& label : map.rowLabels) {
    labelWidth = std::max(labelWidth, label.size());
  }
  std::string out = map.title.empty() ? "" : map.title + "\n";
  for (std::size_t r = 0; r < map.values.size(); ++r) {
    out += map.rowLabels[r];
    out.append(labelWidth - map.rowLabels[r].size(), ' ');
    out += " |";
    for (double v : map.values[r]) {
      if (v <= 0 || map.scale <= 0) {
        out += ' ';
      } else {
        out += static_cast<char>(
            '0' + std::min(9, static_cast<int>(v / map.scale * 9.0) + 1));
      }
    }
    out += "|\n";
  }
  return out;
}

HeatmapSvg openHeatmapSvg(const Heatmap& map, const SvgOptions& options,
                          int footerHeight) {
  const auto rows = static_cast<int>(map.values.size());
  HeatmapSvg out;
  out.footerTop = kTop + rows * options.rowHeight;
  out.svg = openSvg(options.width,
                    static_cast<int>(out.footerTop) + footerHeight, map.title);
  for (int r = 0; r < rows; ++r) {
    const double y = kTop + r * options.rowHeight;
    const auto& row = map.values[static_cast<std::size_t>(r)];
    const double cellWidth = static_cast<double>(svgChartWidth(options)) /
                             static_cast<double>(row.size());
    svgText(out.svg, 4, y + options.rowHeight * 0.7,
            map.rowLabels[static_cast<std::size_t>(r)], 10);
    for (std::size_t c = 0; c < row.size(); ++c) {
      svgRect(out.svg, options.labelWidth + c * cellWidth, y, cellWidth,
              options.rowHeight - 2,
              shade(map.scale > 0 ? row[c] / map.scale : 0));
    }
  }
  return out;
}

}  // namespace ute
