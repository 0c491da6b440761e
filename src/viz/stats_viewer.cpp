#include "viz/stats_viewer.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "support/errors.h"
#include "support/text.h"
#include "viz/heatmap.h"

namespace ute {

namespace {

std::size_t columnIndex(const StatsTable& table, const std::string& name) {
  for (std::size_t i = 0; i < table.headers.size(); ++i) {
    if (table.headers[i] == name) return i;
  }
  throw UsageError("stats viewer: no column '" + name + "' in table " +
                   table.name);
}

/// Numeric-aware ordering so bin "10" sorts after bin "9".
bool valueLess(const std::string& a, const std::string& b) {
  try {
    return parseF64(a) < parseF64(b);
  } catch (const ParseError&) {
    return a < b;
  }
}

/// One row per distinct y value, one column per distinct x value (a gap
/// in integer x values is filled with empty columns); a missing or
/// non-numeric cell is 0. Rows are labelled with their y value; the
/// scale is the largest value in the table (1 when none is positive).
Heatmap buildGrid(const StatsTable& table, const std::string& xCol,
                  const std::string& yCol, const std::string& valueCol) {
  const std::size_t xi = columnIndex(table, xCol);
  const std::size_t yi = columnIndex(table, yCol);
  const std::size_t vi = columnIndex(table, valueCol);

  std::set<std::string, decltype(&valueLess)> xSet(&valueLess);
  std::set<std::string, decltype(&valueLess)> ySet(&valueLess);
  for (const auto& row : table.rows) {
    xSet.insert(row[xi]);
    ySet.insert(row[yi]);
  }
  std::vector<std::string> xs(xSet.begin(), xSet.end());
  const std::vector<std::string> ys(ySet.begin(), ySet.end());

  // When the x values are all small non-negative integers (e.g. time
  // bins), fill the gaps so empty bins render as blank columns instead
  // of silently disappearing.
  bool integers = !xs.empty();
  long lo = 0, hi = 0;
  for (std::size_t i = 0; integers && i < xs.size(); ++i) {
    try {
      const double v = parseF64(xs[i]);
      if (v != std::floor(v) || v < 0 || v > 10000) {
        integers = false;
        break;
      }
      const long iv = static_cast<long>(v);
      if (i == 0) lo = hi = iv;
      lo = std::min(lo, iv);
      hi = std::max(hi, iv);
    } catch (const ParseError&) {
      integers = false;
    }
  }
  if (integers && hi - lo + 1 > static_cast<long>(xs.size())) {
    xs.clear();
    for (long v = lo; v <= hi; ++v) xs.push_back(std::to_string(v));
  }

  const auto indexOf = [](const std::vector<std::string>& values,
                          const std::string& v) {
    return static_cast<std::size_t>(
        std::find(values.begin(), values.end(), v) - values.begin());
  };
  Heatmap map;
  map.title = table.name + ": " + valueCol + " by (" + xCol + ", " + yCol +
              ")";
  map.rowLabels = ys;
  map.values.assign(ys.size(), std::vector<double>(xs.size(), 0.0));
  for (const auto& row : table.rows) {
    double v = 0.0;
    try {
      v = parseF64(row[vi]);
    } catch (const ParseError&) {
      continue;
    }
    map.values[indexOf(ys, row[yi])][indexOf(xs, row[xi])] = v;
    map.scale = std::max(map.scale, v);
  }
  if (map.scale <= 0) map.scale = 1.0;
  return map;
}

}  // namespace

std::string renderStatsHeatmapSvg(const StatsTable& table,
                                  const std::string& xCol,
                                  const std::string& yCol,
                                  const std::string& valueCol,
                                  const SvgOptions& options) {
  Heatmap map = buildGrid(table, xCol, yCol, valueCol);
  for (std::string& label : map.rowLabels) label = yCol + "=" + label;
  HeatmapSvg out = openHeatmapSvg(map, options, 30);
  svgText(out.svg, options.labelWidth, out.footerTop + 22,
          xCol + " →  (max " + fixed(map.scale, 3) + ")", 10);
  return out.svg + "</svg>\n";
}

std::string renderStatsHeatmapAscii(const StatsTable& table,
                                    const std::string& xCol,
                                    const std::string& yCol,
                                    const std::string& valueCol) {
  return renderHeatmapAscii(buildGrid(table, xCol, yCol, valueCol));
}

}  // namespace ute
