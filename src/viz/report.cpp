#include "viz/report.h"

#include "analysis/metrics.h"
#include "interval/file_reader.h"
#include "slog/slog_reader.h"
#include "stats/engine.h"
#include "support/text.h"
#include "viz/metrics_view.h"
#include "viz/svg_render.h"
#include "viz/timeline_model.h"

namespace ute {

namespace {

std::string tableHtml(const StatsTable& table) {
  std::string out = "<h3>" + escapeXml(table.name) + "</h3>\n<table>\n<tr>";
  for (const std::string& h : table.headers) {
    out += "<th>" + escapeXml(h) + "</th>";
  }
  out += "</tr>\n";
  // Large tables (e.g. 50-bin sweeps) are capped for readability.
  const std::size_t maxRows = 60;
  for (std::size_t i = 0; i < table.rows.size() && i < maxRows; ++i) {
    out += "<tr>";
    for (const std::string& cell : table.rows[i]) {
      out += "<td>" + escapeXml(cell) + "</td>";
    }
    out += "</tr>\n";
  }
  if (table.rows.size() > maxRows) {
    out += "<tr><td colspan=\"" + std::to_string(table.headers.size()) +
           "\">… " + std::to_string(table.rows.size() - maxRows) +
           " more rows</td></tr>\n";
  }
  out += "</table>\n";
  return out;
}

}  // namespace

std::string buildHtmlReport(const std::string& mergedPath,
                            const Profile& profile,
                            const ReportOptions& options) {
  std::string html =
      "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>" +
      escapeXml(options.title) +
      "</title>\n<style>\n"
      "body { font-family: sans-serif; margin: 2em; max-width: " +
      std::to_string(options.svgWidth + 60) +
      "px; }\n"
      "table { border-collapse: collapse; margin: 0.5em 0 1.5em; }\n"
      "th, td { border: 1px solid #ccc; padding: 2px 8px; font-size: 13px;"
      " text-align: right; }\n"
      "th { background: #f0f0f0; }\n"
      "h2 { border-bottom: 1px solid #ddd; padding-bottom: 4px; }\n"
      "</style>\n</head>\n<body>\n<h1>" +
      escapeXml(options.title) + "</h1>\n";

  IntervalFileReader merged(mergedPath);
  merged.checkProfile(profile);
  const IntervalFileHeader& h = merged.header();
  html += "<p>" + escapeXml(mergedPath) + " — " +
          withCommas(h.totalRecords) + " interval records, " +
          std::to_string(h.threadCount) + " threads, " +
          std::to_string(merged.markers().size()) + " markers, time span " +
          fixed(static_cast<double>(h.maxEnd - h.minStart) / 1e9, 3) +
          " s</p>\n";

  SvgOptions svg;
  svg.width = options.svgWidth;

  if (!options.slogPath.empty()) {
    SlogReader slog(options.slogPath);
    html += "<h2>Preview</h2>\n";
    html += renderPreviewSvg(slog.preview(), slog.states(), 50, svg);

    if (options.metricsBins > 0) {
      MetricsOptions metricsOptions;
      metricsOptions.bins = options.metricsBins;
      const MetricsStore metrics = computeMetrics(slog, metricsOptions);
      html += "<h2>Time-resolved metrics</h2>\n";
      for (MetricKind kind : {MetricKind::kBusy, MetricKind::kMpi,
                              MetricKind::kCommFraction}) {
        html += "<h3>" + std::string(metricKindName(kind)) + "</h3>\n" +
                renderMetricsHeatmapSvg(metrics, kind, svg);
      }
    }
  }

  const auto addView = [&](ViewKind kind, bool connect,
                           const std::string& heading) {
    IntervalFileReader reader(mergedPath);
    ViewOptions view;
    view.kind = kind;
    view.connectPieces = connect;
    const TimeSpaceModel model = buildView(reader, profile, view);
    html += "<h2>" + heading + "</h2>\n" + renderSvg(model, svg);
  };
  if (options.threadActivity) {
    addView(ViewKind::kThreadActivity, true, "Thread activity");
  }
  if (options.processorActivity) {
    addView(ViewKind::kProcessorActivity, false, "Processor activity");
  }
  if (options.stateActivity) {
    addView(ViewKind::kStateActivity, false, "State activity");
  }

  html += "<h2>Statistics</h2>\n";
  StatsEngine engine(profile);
  IntervalFileReader statsReader(mergedPath);
  const auto tables = engine.runProgram(
      options.statsProgram.empty() ? predefinedTablesProgram()
                                   : options.statsProgram,
      statsReader);
  for (const StatsTable& table : tables) html += tableHtml(table);

  html += "</body>\n</html>\n";
  return html;
}

}  // namespace ute
