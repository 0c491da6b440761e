#include "viz/ascii_render.h"

#include <algorithm>
#include <cmath>

#include "slog/preview.h"
#include "support/text.h"
#include "viz/heatmap.h"

namespace ute {

namespace {

char glyphFor(const std::string& name) {
  if (name.empty()) return '#';
  if (name == "Running") return 'r';
  if (startsWith(name, "MPI_")) {
    // Initial of the routine: S(end), R(ecv), B(arrier/cast), A(llreduce)...
    return name.size() > 4 ? name[4] : 'M';
  }
  return static_cast<char>(std::toupper(static_cast<unsigned char>(name[0])));
}

}  // namespace

std::string renderAscii(const TimeSpaceModel& model,
                        const AsciiOptions& options) {
  const int cols = std::max(options.columns, 10);
  const double tMin = static_cast<double>(model.minTime);
  const double tMax =
      static_cast<double>(std::max(model.maxTime, model.minTime + 1));
  const double span = tMax - tMin;

  std::size_t labelWidth = 0;
  for (const VizTimeline& row : model.rows) {
    labelWidth = std::max(labelWidth, row.label.size());
  }

  std::string out = model.title + " (" + viewKindName(model.kind) + ")\n";
  for (const VizTimeline& row : model.rows) {
    std::string line(static_cast<std::size_t>(cols), '.');
    std::vector<std::uint8_t> depth(static_cast<std::size_t>(cols), 0);
    std::vector<bool> used(static_cast<std::size_t>(cols), false);
    for (const VizSegment& seg : row.segments) {
      const int c0 = static_cast<int>((static_cast<double>(seg.start) - tMin) /
                                      span * cols);
      int c1 = static_cast<int>(
          std::ceil((static_cast<double>(seg.end) - tMin) / span * cols));
      if (c1 <= c0) c1 = c0 + 1;
      const auto legendIt = model.legend.find(seg.colorKey);
      const char glyph = legendIt != model.legend.end()
                             ? glyphFor(legendIt->second.first)
                             : '#';
      for (int c = std::max(c0, 0); c < std::min(c1, cols); ++c) {
        const auto idx = static_cast<std::size_t>(c);
        if (!used[idx] || seg.depth >= depth[idx]) {
          line[idx] = glyph;
          used[idx] = true;
          depth[idx] = seg.depth;
        }
      }
    }
    out += row.label;
    out.append(labelWidth - row.label.size(), ' ');
    out += " |" + line + "|\n";
  }

  if (options.legend && !model.legend.empty()) {
    out += "legend:";
    for (const auto& [key, entry] : model.legend) {
      out += " ";
      out.push_back(glyphFor(entry.first));
      out += "=" + entry.first;
    }
    out += "\n";
  }
  return out;
}

std::string renderPreviewAscii(const SlogPreview& preview,
                               const std::vector<SlogStateDef>& states,
                               std::uint32_t bins) {
  Heatmap map;
  map.values = rebinPreview(preview, bins).perStateBinTime;
  for (const SlogStateDef& s : states) map.rowLabels.push_back(s.name);
  map.scale = std::max(1.0, heatmapMax(map.values));
  return renderHeatmapAscii(map);
}

}  // namespace ute
