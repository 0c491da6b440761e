// Self-contained SVG rendering of time-space diagrams and previews — the
// Jumpshot display surface of this reproduction (the data model is
// identical; the widget toolkit is SVG instead of Java Swing).
#pragma once

#include <string>

#include "slog/slog_format.h"
#include "viz/timeline_model.h"

namespace ute {

struct SvgOptions {
  int width = 1200;
  int rowHeight = 22;
  int labelWidth = 90;
  bool legend = true;
};

/// Width of the plot area right of the label column.
int svgChartWidth(const SvgOptions& options);

/// Appends a <rect> (at least 0.5 wide) and a <text> element (escaped,
/// sans-serif); `extra` holds further attributes, with a leading space.
void svgRect(std::string& svg, double x, double y, double w, double h,
             const std::string& fill, const std::string& extra = "");
void svgText(std::string& svg, double x, double y, const std::string& s,
             int size = 11, const std::string& extra = "");

/// Starts a standalone SVG document: the <svg> element, a white
/// background and `title` in bold at the top left. The caller closes it
/// with "</svg>\n".
std::string openSvg(int width, int height, const std::string& title);

/// Renders a time-space diagram (any of the four views, or a SLOG frame
/// view) as a standalone SVG document.
std::string renderSvg(const TimeSpaceModel& model, const SvgOptions& options = {});

/// Renders the whole-run preview (Figure 7's summary window): stacked
/// per-state time histograms over the run, rebinned to `bins` columns.
std::string renderPreviewSvg(const SlogPreview& preview,
                             const std::vector<SlogStateDef>& states,
                             std::uint32_t bins = 50,
                             const SvgOptions& options = {});

}  // namespace ute
