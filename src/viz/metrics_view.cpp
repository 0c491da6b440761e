#include "viz/metrics_view.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "support/text.h"

namespace ute {

namespace {

/// Heatmap cells rebin as numerator/denominator pairs so fractions stay
/// fractions when several bins collapse into one display column.
struct CellParts {
  double num = 0;
  double den = 0;  ///< 0 for absolute metrics (cell = num)
};

CellParts cellParts(const MetricsStore& store, MetricKind kind,
                    std::uint32_t bin, std::uint32_t task) {
  switch (kind) {
    case MetricKind::kBusy:
      return {static_cast<double>(
                  store.timeNs(StateClass::kBusy, bin, task)), 0};
    case MetricKind::kMpi:
      return {static_cast<double>(
                  store.timeNs(StateClass::kMpi, bin, task)), 0};
    case MetricKind::kIo:
      return {static_cast<double>(
                  store.timeNs(StateClass::kIo, bin, task)), 0};
    case MetricKind::kMarker:
      return {static_cast<double>(
                  store.timeNs(StateClass::kMarker, bin, task)), 0};
    case MetricKind::kIdle:
      return {static_cast<double>(store.idleNs(bin, task)), 0};
    case MetricKind::kCommFraction: {
      const Tick lo = std::min(store.binStart(bin), store.binEnd(bin));
      const double wall =
          static_cast<double>(store.binEnd(bin) - lo) *
          store.threadsPerTask()[task];
      return {static_cast<double>(
                  store.timeNs(StateClass::kMpi, bin, task)),
              wall};
    }
    case MetricKind::kLateSender:
      return {static_cast<double>(store.lateSenderNs(bin, task)), 0};
    case MetricKind::kSendBytes:
      return {static_cast<double>(store.sendBytes(bin, task)), 0};
    case MetricKind::kRecvBytes:
      return {static_cast<double>(store.recvBytes(bin, task)), 0};
  }
  return {};
}

bool isFractionKind(MetricKind kind) {
  return kind == MetricKind::kCommFraction;
}

/// The display grid: `columns` x taskCount cell values, each column
/// aggregating a contiguous run of store bins.
std::vector<std::vector<double>> displayGrid(const MetricsStore& store,
                                             MetricKind kind,
                                             std::uint32_t columns) {
  columns = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(columns, store.bins()));
  std::vector<std::vector<double>> grid(
      store.taskCount(), std::vector<double>(columns, 0.0));
  for (std::uint32_t k = 0; k < store.taskCount(); ++k) {
    for (std::uint32_t c = 0; c < columns; ++c) {
      const std::uint32_t lo = store.bins() * c / columns;
      const std::uint32_t hi = store.bins() * (c + 1) / columns;
      CellParts total;
      for (std::uint32_t b = lo; b < hi; ++b) {
        const CellParts p = cellParts(store, kind, b, k);
        total.num += p.num;
        total.den += p.den;
      }
      grid[k][c] = isFractionKind(kind)
                       ? (total.den > 0 ? total.num / total.den : 0.0)
                       : total.num;
    }
  }
  return grid;
}

double gridMax(const std::vector<std::vector<double>>& grid) {
  double maxV = 0;
  for (const auto& row : grid) {
    for (double v : row) maxV = std::max(maxV, v);
  }
  return maxV;
}

std::string formatCellValue(MetricKind kind, double v) {
  if (isFractionKind(kind)) return fixed(v * 100.0, 1) + "%";
  if (kind == MetricKind::kSendBytes || kind == MetricKind::kRecvBytes) {
    return withCommas(static_cast<std::uint64_t>(v)) + " B";
  }
  return fixed(v / 1e6, 3) + "ms";
}

/// Run-wide peaks of the derived series, shared by both footers.
void derivedPeaks(const MetricsStore& store, double& peakComm,
                  double& peakImbalance) {
  peakComm = 0;
  peakImbalance = 0;
  for (std::uint32_t b = 0; b < store.bins(); ++b) {
    peakComm = std::max(peakComm, store.commFraction(b));
    peakImbalance = std::max(peakImbalance, store.loadImbalance(b));
  }
}

}  // namespace

const char* metricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kBusy: return "busy";
    case MetricKind::kMpi: return "mpi";
    case MetricKind::kIo: return "io";
    case MetricKind::kMarker: return "marker";
    case MetricKind::kIdle: return "idle";
    case MetricKind::kCommFraction: return "commfrac";
    case MetricKind::kLateSender: return "latesender";
    case MetricKind::kSendBytes: return "sendbytes";
    case MetricKind::kRecvBytes: return "recvbytes";
  }
  return "?";
}

std::optional<MetricKind> parseMetricKind(std::string_view name) {
  for (MetricKind kind :
       {MetricKind::kBusy, MetricKind::kMpi, MetricKind::kIo,
        MetricKind::kMarker, MetricKind::kIdle, MetricKind::kCommFraction,
        MetricKind::kLateSender, MetricKind::kSendBytes,
        MetricKind::kRecvBytes}) {
    if (name == metricKindName(kind)) return kind;
  }
  return std::nullopt;
}

double metricCell(const MetricsStore& store, MetricKind kind,
                  std::uint32_t bin, std::uint32_t task) {
  const CellParts p = cellParts(store, kind, bin, task);
  if (isFractionKind(kind)) return p.den > 0 ? p.num / p.den : 0.0;
  return p.num;
}

std::string renderMetricsHeatmapAscii(const MetricsStore& store,
                                      MetricKind kind, int columns) {
  const auto grid = displayGrid(
      store, kind, static_cast<std::uint32_t>(std::max(columns, 1)));
  const double maxV = gridMax(grid);
  const double spanSec =
      static_cast<double>(store.totalEnd() - store.origin()) / 1e9;

  std::string out = "metric " + std::string(metricKindName(kind)) + ": " +
                    std::to_string(store.bins()) + " bins of " +
                    fixed(static_cast<double>(store.binWidth()) / 1e6, 3) +
                    "ms over " + fixed(spanSec, 6) + "s\n";
  std::size_t labelWidth = 0;
  for (TaskId task : store.tasks()) {
    labelWidth = std::max(labelWidth,
                          ("task " + std::to_string(task)).size());
  }
  for (std::uint32_t k = 0; k < store.taskCount(); ++k) {
    const std::string label = "task " + std::to_string(store.tasks()[k]);
    out += label;
    out.append(labelWidth - label.size(), ' ');
    out += " |";
    for (double v : grid[k]) {
      if (v <= 0 || maxV <= 0) {
        out += ' ';
      } else {
        const int level =
            std::min(9, static_cast<int>(v / maxV * 9.0) + 1);
        out += static_cast<char>('0' + level);
      }
    }
    out += "|\n";
  }
  double peakComm = 0;
  double peakImbalance = 0;
  derivedPeaks(store, peakComm, peakImbalance);
  out += "scale: 9 = " + formatCellValue(kind, maxV) +
         " per cell; peak commfrac " + fixed(peakComm * 100.0, 1) +
         "%, peak imbalance " + fixed(peakImbalance, 3) + "\n";
  return out;
}

std::string renderMetricsHeatmapSvg(const MetricsStore& store,
                                    MetricKind kind,
                                    const SvgOptions& options) {
  const int chartLeft = options.labelWidth;
  const int chartWidth = options.width - chartLeft - 10;
  const std::uint32_t columns = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(store.bins(),
                                 static_cast<std::uint32_t>(chartWidth / 3)));
  const auto grid = displayGrid(store, kind, columns);
  const double maxV = gridMax(grid);

  const int topMargin = 28;
  const int stripHeight = 40;  // derived commfrac/imbalance series
  const int axisHeight = 24;
  const int rows = static_cast<int>(store.taskCount());
  const int height = topMargin + rows * options.rowHeight + stripHeight +
                     axisHeight + 16;

  std::string svg = "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
                    std::to_string(options.width) + "\" height=\"" +
                    std::to_string(height) + "\">\n";
  svg += "<rect width=\"" + std::to_string(options.width) + "\" height=\"" +
         std::to_string(height) + "\" fill=\"#ffffff\"/>\n";
  svg += "<text x=\"8\" y=\"18\" font-family=\"sans-serif\" "
         "font-size=\"13\" font-weight=\"bold\">metrics heatmap: " +
         std::string(metricKindName(kind)) + " (max " +
         formatCellValue(kind, maxV) + "/cell)</text>\n";

  const double cellW = static_cast<double>(chartWidth) / columns;
  for (int k = 0; k < rows; ++k) {
    const double y =
        topMargin + static_cast<double>(k) * options.rowHeight;
    svg += "<text x=\"4\" y=\"" + fixed(y + options.rowHeight * 0.7, 1) +
           "\" font-family=\"sans-serif\" font-size=\"10\">task " +
           std::to_string(store.tasks()[static_cast<std::size_t>(k)]) +
           "</text>\n";
    for (std::uint32_t c = 0; c < columns; ++c) {
      const double v =
          maxV > 0 ? grid[static_cast<std::size_t>(k)][c] / maxV : 0;
      // White (cold) to the palette's deep blue (hot).
      const int rr = static_cast<int>(255 - v * (255 - 0x2f));
      const int gg = static_cast<int>(255 - v * (255 - 0x4b));
      const int bb = static_cast<int>(255 - v * (255 - 0x7c));
      char fill[8];
      std::snprintf(fill, sizeof fill, "#%02x%02x%02x", rr, gg, bb);
      svg += "<rect x=\"" + fixed(chartLeft + c * cellW, 2) + "\" y=\"" +
             fixed(y, 2) + "\" width=\"" + fixed(cellW + 0.3, 2) +
             "\" height=\"" + std::to_string(options.rowHeight - 2) +
             "\" fill=\"" + fill + "\"/>\n";
    }
  }

  // Derived series strip: communication fraction (filled) and load
  // imbalance (line), both on a 0..1 scale.
  const double stripTop = topMargin + rows * options.rowHeight + 8;
  svg += "<text x=\"4\" y=\"" + fixed(stripTop + 10, 1) +
         "\" font-family=\"sans-serif\" font-size=\"9\">commfrac/"
         "imbalance</text>\n";
  std::string line;
  for (std::uint32_t c = 0; c < columns; ++c) {
    const std::uint32_t lo = store.bins() * c / columns;
    const std::uint32_t hi = store.bins() * (c + 1) / columns;
    double comm = 0;
    double imbalance = 0;
    for (std::uint32_t b = lo; b < hi; ++b) {
      comm = std::max(comm, store.commFraction(b));
      imbalance = std::max(imbalance, store.loadImbalance(b));
    }
    const double x = chartLeft + c * cellW;
    svg += "<rect x=\"" + fixed(x, 2) + "\" y=\"" +
           fixed(stripTop + (1 - comm) * (stripHeight - 8), 2) +
           "\" width=\"" + fixed(cellW + 0.3, 2) + "\" height=\"" +
           fixed(comm * (stripHeight - 8), 2) +
           "\" fill=\"#dd8452\" fill-opacity=\"0.7\"/>\n";
    line += c == 0 ? 'M' : 'L';
    line += fixed(x + cellW / 2, 1);
    line += ' ';
    line += fixed(stripTop + (1 - imbalance) * (stripHeight - 8), 1);
    line += ' ';
  }
  svg += "<path d=\"" + line +
         "\" stroke=\"#c44e52\" fill=\"none\" stroke-width=\"1.2\"/>\n";

  // Time axis (seconds since the run start).
  const double axisY = stripTop + stripHeight + 4;
  const double spanSec =
      static_cast<double>(store.totalEnd() - store.origin()) / 1e9;
  for (int i = 0; i <= 10; ++i) {
    const double frac = i / 10.0;
    const double x = chartLeft + frac * chartWidth;
    svg += "<line x1=\"" + fixed(x, 1) + "\" y1=\"" + fixed(axisY - 8, 1) +
           "\" x2=\"" + fixed(x, 1) + "\" y2=\"" + fixed(axisY - 2, 1) +
           "\" stroke=\"#888\"/>\n";
    svg += "<text x=\"" + fixed(x - 12, 1) + "\" y=\"" +
           fixed(axisY + 10, 1) +
           "\" font-family=\"sans-serif\" font-size=\"9\">" +
           fixed(frac * spanSec, 4) + "s</text>\n";
  }
  svg += "</svg>\n";
  return svg;
}

}  // namespace ute
