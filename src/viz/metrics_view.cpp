#include "viz/metrics_view.h"

#include <algorithm>
#include <utility>

#include "support/text.h"
#include "viz/heatmap.h"

namespace ute {

namespace {

std::uint64_t binCell(const MetricsStore& store, MetricKind kind,
                      std::uint32_t bin, std::uint32_t task) {
  switch (kind) {
    case MetricKind::kBusy:
      return store.timeNs(StateClass::kBusy, bin, task);
    case MetricKind::kMpi: return store.timeNs(StateClass::kMpi, bin, task);
    case MetricKind::kIo: return store.timeNs(StateClass::kIo, bin, task);
    case MetricKind::kMarker:
      return store.timeNs(StateClass::kMarker, bin, task);
    case MetricKind::kIdle: return store.idleNs(bin, task);
    case MetricKind::kLateSender: return store.lateSenderNs(bin, task);
    case MetricKind::kSendBytes: return store.sendBytes(bin, task);
    case MetricKind::kRecvBytes: return store.recvBytes(bin, task);
    case MetricKind::kCommFraction: break;  // a ratio, not a sum
  }
  return 0;
}

/// A task's value over bins [lo, hi): the sum of its cells, or for the
/// fraction the store's commFraction over the range, so a display
/// column that spans several bins stays a fraction.
double rangeCell(const MetricsStore& store, MetricKind kind,
                 std::uint32_t lo, std::uint32_t hi, std::uint32_t task) {
  if (kind == MetricKind::kCommFraction) {
    return store.commFraction(lo, hi, task);
  }
  std::uint64_t total = 0;
  for (std::uint32_t b = lo; b < hi; ++b) {
    total += binCell(store, kind, b, task);
  }
  return static_cast<double>(total);
}

/// The store bins [lo, hi) shown in display column `c` of `columns`.
std::pair<std::uint32_t, std::uint32_t> columnBins(const MetricsStore& store,
                                                   std::uint32_t c,
                                                   std::uint32_t columns) {
  return {store.bins() * c / columns, store.bins() * (c + 1) / columns};
}

/// One row per task and `columns` display columns, scaled to the
/// hottest cell; `columns` is clamped in place to [1, bins].
Heatmap metricsGrid(const MetricsStore& store, MetricKind kind,
                    std::uint32_t& columns) {
  columns = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(columns, store.bins()));
  Heatmap map;
  for (std::uint32_t k = 0; k < store.taskCount(); ++k) {
    map.rowLabels.push_back("task " + std::to_string(store.tasks()[k]));
    std::vector<double>& row = map.values.emplace_back(columns, 0.0);
    for (std::uint32_t c = 0; c < columns; ++c) {
      const auto [lo, hi] = columnBins(store, c, columns);
      row[c] = rangeCell(store, kind, lo, hi, k);
    }
  }
  map.scale = heatmapMax(map.values);
  return map;
}

std::string formatCellValue(MetricKind kind, double v) {
  if (kind == MetricKind::kCommFraction) return fixed(v * 100.0, 1) + "%";
  if (kind == MetricKind::kSendBytes || kind == MetricKind::kRecvBytes) {
    return withCommas(static_cast<std::uint64_t>(v)) + " B";
  }
  return fixed(v / 1e6, 3) + "ms";
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
  return rangeCell(store, kind, bin, bin + 1, task);
}

std::string renderMetricsHeatmapAscii(const MetricsStore& store,
                                      MetricKind kind, int columns) {
  auto shown = static_cast<std::uint32_t>(std::max(columns, 1));
  Heatmap map = metricsGrid(store, kind, shown);
  const double spanSec =
      static_cast<double>(store.totalEnd() - store.origin()) / 1e9;
  map.title = "metric " + std::string(metricKindName(kind)) + ": " +
              std::to_string(store.bins()) + " bins of " +
              fixed(static_cast<double>(store.binWidth()) / 1e6, 3) +
              "ms over " + fixed(spanSec, 6) + "s";
  const MetricsStore::Peaks peaks = store.peaks(0, store.bins());
  return renderHeatmapAscii(map) + "scale: 9 = " +
         formatCellValue(kind, map.scale) + " per cell; peak commfrac " +
         fixed(peaks.commFraction * 100.0, 1) + "%, peak imbalance " +
         fixed(peaks.loadImbalance, 3) + "\n";
}

std::string renderMetricsHeatmapSvg(const MetricsStore& store,
                                    MetricKind kind,
                                    const SvgOptions& options) {
  auto columns = static_cast<std::uint32_t>(svgChartWidth(options) / 3);
  Heatmap map = metricsGrid(store, kind, columns);
  map.title = "metrics heatmap: " + std::string(metricKindName(kind)) +
              " (max " + formatCellValue(kind, map.scale) + "/cell)";
  const int stripHeight = 40;  // derived commfrac/imbalance series
  HeatmapSvg out = openHeatmapSvg(map, options, stripHeight + 40);
  const double cellWidth =
      static_cast<double>(svgChartWidth(options)) / columns;

  // Derived series strip: the peak communication fraction (filled) and
  // load imbalance (line) of each column's bins, both on a 0..1 scale.
  const double stripTop = out.footerTop + 8;
  const double stripScale = stripHeight - 8;
  svgText(out.svg, 4, stripTop + 10, "commfrac/imbalance", 9);
  std::string line;
  for (std::uint32_t c = 0; c < columns; ++c) {
    const auto [lo, hi] = columnBins(store, c, columns);
    const MetricsStore::Peaks peaks = store.peaks(lo, hi);
    const double x = options.labelWidth + c * cellWidth;
    svgRect(out.svg, x, stripTop + (1 - peaks.commFraction) * stripScale,
            cellWidth, peaks.commFraction * stripScale, "#dd8452",
            " fill-opacity=\"0.7\"");
    line += c == 0 ? 'M' : 'L';
    line += fixed(x + cellWidth / 2, 1) + ' ' +
            fixed(stripTop + (1 - peaks.loadImbalance) * stripScale, 1) + ' ';
  }
  out.svg += "<path d=\"" + line +
             "\" stroke=\"#c44e52\" fill=\"none\" stroke-width=\"1.2\"/>\n";

  // Time axis (seconds since the run start).
  const double axisY = stripTop + stripHeight + 4;
  const double spanSec =
      static_cast<double>(store.totalEnd() - store.origin()) / 1e9;
  for (int i = 0; i <= 10; ++i) {
    const double frac = i / 10.0;
    const double x = options.labelWidth + frac * svgChartWidth(options);
    out.svg += "<line x1=\"" + fixed(x, 1) + "\" y1=\"" +
               fixed(axisY - 8, 1) + "\" x2=\"" + fixed(x, 1) + "\" y2=\"" +
               fixed(axisY - 2, 1) + "\" stroke=\"#888\"/>\n";
    svgText(out.svg, x - 12, axisY + 10, fixed(frac * spanSec, 4) + "s", 9);
  }
  out.svg += "</svg>\n";
  return out.svg;
}

}  // namespace ute
