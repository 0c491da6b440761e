// The one heatmap renderer, shared by the statistics viewer (Section
// 3.2, Figure 6) and the time-resolved metrics views: a title, one
// labelled row per series, and a grid of values drawn as 0-9 glyphs in
// a terminal or as shaded cells in an SVG document. Callers build the
// grid and add only their own header and footer lines.
#pragma once

#include <string>
#include <vector>

#include "viz/svg_render.h"

namespace ute {

struct Heatmap {
  /// The title line; an ASCII heatmap with an empty title has none.
  std::string title;
  /// One label per row (labels past the last row only widen the ASCII
  /// label column).
  std::vector<std::string> rowLabels;
  /// values[row][column].
  std::vector<std::vector<double>> values;
  /// The value drawn darkest (glyph 9).
  double scale = 0;
};

/// The largest value of a grid (0 for an empty or all-negative grid).
double heatmapMax(const std::vector<std::vector<double>>& values);

/// The title line, then "label |glyphs|" per row, labels padded to one
/// width. A value v draws as min(9, int(v / scale * 9) + 1), or blank
/// when v <= 0.
std::string renderHeatmapAscii(const Heatmap& map);

struct HeatmapSvg {
  /// An open document: the caller appends its footer, then "</svg>\n".
  std::string svg;
  /// The y just below the last row.
  double footerTop = 0;
};

/// The title, the label column and one row of cells per row, shaded
/// from white (0) to deep blue (scale), across svgChartWidth(options);
/// `footerHeight` pixels are left below the rows.
HeatmapSvg openHeatmapSvg(const Heatmap& map, const SvgOptions& options,
                          int footerHeight);

}  // namespace ute
