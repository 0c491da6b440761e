// Statistics viewer (Section 3.2, Figure 6): renders the statistics
// utility's tables graphically. The paper's figure shows, per node, the
// summed duration of interesting intervals across 50 time bins of the
// run; the heatmap/stacked-bars here carry the same information.
#pragma once

#include <string>

#include "stats/engine.h"
#include "viz/svg_render.h"

namespace ute {

/// Renders a (xCol, yCol) -> valueCol table as an SVG heatmap
/// (viz/heatmap.h): one row per distinct yCol value, one column per
/// distinct xCol value, cell intensity proportional to valueCol.
std::string renderStatsHeatmapSvg(const StatsTable& table,
                                  const std::string& xCol,
                                  const std::string& yCol,
                                  const std::string& valueCol,
                                  const SvgOptions& options = {});

/// Text version for terminals and tests (0-9 intensities).
std::string renderStatsHeatmapAscii(const StatsTable& table,
                                    const std::string& xCol,
                                    const std::string& yCol,
                                    const std::string& valueCol);

}  // namespace ute
