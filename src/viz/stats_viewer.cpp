#include "viz/stats_viewer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "support/errors.h"
#include "support/text.h"

namespace ute {

namespace {

struct Grid {
  std::vector<std::string> xs;  ///< sorted distinct x values
  std::vector<std::string> ys;  ///< sorted distinct y values
  std::map<std::pair<std::size_t, std::size_t>, double> cells;  ///< (y,x)->v
  double maxValue = 0.0;
};

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

Grid buildGrid(const StatsTable& table, const std::string& xCol,
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
  Grid grid;
  grid.xs.assign(xSet.begin(), xSet.end());
  grid.ys.assign(ySet.begin(), ySet.end());

  // When the x values are all small non-negative integers (e.g. time
  // bins), fill the gaps so empty bins render as blank columns instead
  // of silently disappearing.
  bool integers = !grid.xs.empty();
  long lo = 0, hi = 0;
  for (std::size_t i = 0; integers && i < grid.xs.size(); ++i) {
    try {
      const double v = parseF64(grid.xs[i]);
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
  if (integers && hi - lo + 1 > static_cast<long>(grid.xs.size())) {
    grid.xs.clear();
    for (long v = lo; v <= hi; ++v) grid.xs.push_back(std::to_string(v));
  }

  const auto indexOf = [](const std::vector<std::string>& values,
                          const std::string& v) {
    return static_cast<std::size_t>(
        std::find(values.begin(), values.end(), v) - values.begin());
  };
  for (const auto& row : table.rows) {
    double v = 0.0;
    try {
      v = parseF64(row[vi]);
    } catch (const ParseError&) {
      continue;
    }
    grid.cells[{indexOf(grid.ys, row[yi]), indexOf(grid.xs, row[xi])}] = v;
    grid.maxValue = std::max(grid.maxValue, v);
  }
  if (grid.maxValue <= 0) grid.maxValue = 1.0;
  return grid;
}

}  // namespace

std::string renderStatsHeatmapSvg(const StatsTable& table,
                                  const std::string& xCol,
                                  const std::string& yCol,
                                  const std::string& valueCol, int width) {
  const Grid grid = buildGrid(table, xCol, yCol, valueCol);
  const int labelWidth = 70;
  const int cellH = 22;
  const int top = 28;
  const int height = top + static_cast<int>(grid.ys.size()) * cellH + 30;
  const double cellW =
      static_cast<double>(width - labelWidth - 10) /
      static_cast<double>(std::max<std::size_t>(grid.xs.size(), 1));

  std::string svg = "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
                    std::to_string(width) + "\" height=\"" +
                    std::to_string(height) + "\">\n";
  svg += "<rect width=\"" + std::to_string(width) + "\" height=\"" +
         std::to_string(height) + "\" fill=\"#ffffff\"/>\n";
  svg += "<text x=\"8\" y=\"18\" font-family=\"sans-serif\" font-size=\"13\" "
         "font-weight=\"bold\">" +
         escapeXml(table.name + ": " + valueCol + " by (" + xCol + ", " +
                   yCol + ")") +
         "</text>\n";

  for (std::size_t y = 0; y < grid.ys.size(); ++y) {
    svg += "<text x=\"4\" y=\"" +
           fixed(top + y * cellH + cellH * 0.7, 1) +
           "\" font-family=\"sans-serif\" font-size=\"10\">" +
           escapeXml(yCol + "=" + grid.ys[y]) + "</text>\n";
    for (std::size_t x = 0; x < grid.xs.size(); ++x) {
      const auto it = grid.cells.find({y, x});
      const double v = it == grid.cells.end() ? 0.0 : it->second;
      const int shade =
          255 - static_cast<int>(std::round(v / grid.maxValue * 200.0));
      char color[8];
      std::snprintf(color, sizeof color, "#%02x%02xff", shade, shade);
      svg += "<rect x=\"" + fixed(labelWidth + x * cellW, 1) + "\" y=\"" +
             std::to_string(top + y * cellH) + "\" width=\"" +
             fixed(std::max(cellW - 1, 1.0), 1) + "\" height=\"" +
             std::to_string(cellH - 2) + "\" fill=\"" + color + "\"/>\n";
    }
  }
  svg += "<text x=\"" + std::to_string(labelWidth) + "\" y=\"" +
         std::to_string(height - 8) +
         "\" font-family=\"sans-serif\" font-size=\"10\">" +
         escapeXml(xCol) + " →  (max " + fixed(grid.maxValue, 3) +
         ")</text>\n";
  svg += "</svg>\n";
  return svg;
}

std::string renderStatsHeatmapAscii(const StatsTable& table,
                                    const std::string& xCol,
                                    const std::string& yCol,
                                    const std::string& valueCol) {
  const Grid grid = buildGrid(table, xCol, yCol, valueCol);
  std::size_t labelWidth = 0;
  for (const auto& y : grid.ys) labelWidth = std::max(labelWidth, y.size());

  std::string out = table.name + ": " + valueCol + " by (" + xCol + ", " +
                    yCol + ")\n";
  for (std::size_t y = 0; y < grid.ys.size(); ++y) {
    out += grid.ys[y];
    out.append(labelWidth - grid.ys[y].size(), ' ');
    out += " |";
    for (std::size_t x = 0; x < grid.xs.size(); ++x) {
      const auto it = grid.cells.find({y, x});
      const double v = it == grid.cells.end() ? 0.0 : it->second;
      if (v <= 0) {
        out += ' ';
      } else {
        out += static_cast<char>(
            '0' + std::min(9, static_cast<int>(v / grid.maxValue * 9.0) + 1));
      }
    }
    out += "|\n";
  }
  return out;
}

}  // namespace ute
