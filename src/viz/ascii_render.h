// Plain-text rendering of time-space diagrams — one character column per
// time slice, one line per timeline. Used by the CLI tools for terminal
// output and by the test suite, which asserts on the drawn picture
// (idle threads, CPU migration, state layering) instead of on pixels.
#pragma once

#include <string>

#include "slog/slog_format.h"
#include "viz/timeline_model.h"

namespace ute {

struct AsciiOptions {
  int columns = 100;
  bool legend = true;
};

/// Each timeline becomes "label |XXXX....|" where each column shows the
/// initial of the state occupying most of that time slice ('.' = no
/// activity). Deeper-nested segments win ties.
std::string renderAscii(const TimeSpaceModel& model,
                        const AsciiOptions& options = {});

/// Preview as a heatmap (viz/heatmap.h) with one row per state, no
/// title line.
std::string renderPreviewAscii(const SlogPreview& preview,
                               const std::vector<SlogStateDef>& states,
                               std::uint32_t bins = 50);

}  // namespace ute
