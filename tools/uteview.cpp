// uteview — the visualization front end (Section 4): multiple time-space
// diagrams from one interval file, plus the SLOG preview and frame view.
//
// Usage (interval-file views):
//   uteview --input MERGED.uti [--profile profile.ute]
//           --view thread|cpu|thread-cpu|cpu-thread|state [--connected]
//           [--window T0:T1] [--ascii-cols N] [--svg OUT.svg]
// Usage (SLOG preview / frame display, Figure 7):
//   uteview --slog RUN.slog --preview [--svg OUT.svg]
//   uteview --slog RUN.slog --frame-at SECONDS [--svg OUT.svg]
//   uteview --slog RUN.slog --window T0:T1 [--svg OUT.svg]
// Usage (metrics heatmaps, from a SLOG file, a .utm file, or a server):
//   uteview --slog RUN.slog --metrics KIND [--bins N] [--jobs N]
//   uteview --utm RUN.utm --metrics KIND
//   uteview --connect HOST:PORT [--trace I] --metrics KIND [--bins N]
//   (KIND: busy|mpi|io|marker|idle|commfrac|latesender|sendbytes|recvbytes)
#include <cstdio>
#include <exception>
#include <functional>

#include "analysis/metrics.h"
#include "interval/standard_profile.h"
#include "server/client.h"
#include "slog/slog_reader.h"
#include "support/cli.h"
#include "support/file_io.h"
#include "support/text.h"
#include "viz/ascii_render.h"
#include "viz/metrics_view.h"
#include "viz/svg_render.h"
#include "viz/timeline_model.h"

namespace {

using namespace ute;

/// Prints an ASCII rendering; given --svg FILE, also writes `svg()` there.
int show(const CliParser& cli, const std::string& ascii,
         const std::function<std::string()>& svg) {
  std::printf("%s", ascii.c_str());
  if (const auto path = cli.value("svg")) {
    writeWholeFile(*path, svg());
    std::printf("wrote %s\n", path->c_str());
  }
  return 0;
}

int showModel(const CliParser& cli, const TimeSpaceModel& model,
              int asciiCols) {
  AsciiOptions ascii;
  ascii.columns = asciiCols;
  return show(cli, renderAscii(model, ascii), [&] { return renderSvg(model); });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ute;
  try {
    CliParser cli(argc, argv,
                  {"input", "profile", "view", "window", "svg", "slog",
                   "frame-at", "ascii-cols", "metrics", "bins", "jobs",
                   "utm", "connect", "host", "port", "trace"},
                  {"preview", "connected", "system-threads"});
    const int asciiCols =
        static_cast<int>(cli.valueOr("ascii-cols", std::uint64_t{100}));

    if (cli.value("utm") || cli.endpoint() ||
        (cli.value("slog") && cli.value("metrics"))) {
      const std::string kindName = cli.valueOr("metrics", std::string("busy"));
      const auto kind = parseMetricKind(kindName);
      if (!kind) {
        std::fprintf(stderr, "unknown --metrics kind '%s'\n",
                     kindName.c_str());
        return 2;
      }
      const MetricsStore store = loadMetricsStore(cli);
      return show(cli, renderMetricsHeatmapAscii(store, *kind, asciiCols),
                  [&] { return renderMetricsHeatmapSvg(store, *kind); });
    }

    if (const auto slogPath = cli.value("slog")) {
      SlogReader slog(*slogPath);
      if (cli.hasFlag("preview")) {
        return show(cli, renderPreviewAscii(slog.preview(), slog.states(), 50),
                    [&] {
                      return renderPreviewSvg(slog.preview(), slog.states(),
                                              50);
                    });
      }
      if (const auto window = cli.value("window")) {
        const auto parts = splitString(*window, ':');
        if (parts.size() != 2) {
          std::fprintf(stderr, "--window wants T0:T1 (seconds)\n");
          return 2;
        }
        const Tick t0 = slog.totalStart() +
                        static_cast<Tick>(parseF64(parts[0]) * 1e9);
        const Tick t1 = slog.totalStart() +
                        static_cast<Tick>(parseF64(parts[1]) * 1e9);
        return showModel(cli, buildSlogWindowView(slog, t0, t1), asciiCols);
      }
      const double atSec = cli.valueOr("frame-at", 0.0);
      const Tick t = slog.totalStart() +
                     static_cast<Tick>(atSec * 1e9);
      const auto frame = slog.frameIndexFor(t);
      if (!frame) {
        std::fprintf(stderr, "no frame contains t=%.3fs\n", atSec);
        return 1;
      }
      return showModel(cli, buildSlogFrameView(slog, *frame), asciiCols);
    }

    const std::string input = cli.valueOr("input", std::string());
    if (input.empty()) {
      std::fprintf(stderr, "usage: uteview --input MERGED.uti --view ...\n");
      return 2;
    }
    const Profile profile = loadProfileOrStandard(
        cli.valueOr("profile", std::string(kStandardProfileFileName)));

    ViewOptions options;
    const std::string view = cli.valueOr("view", std::string("thread"));
    if (view == "thread") options.kind = ViewKind::kThreadActivity;
    else if (view == "cpu") options.kind = ViewKind::kProcessorActivity;
    else if (view == "thread-cpu") options.kind = ViewKind::kThreadProcessor;
    else if (view == "cpu-thread") options.kind = ViewKind::kProcessorThread;
    else if (view == "state") options.kind = ViewKind::kStateActivity;
    else {
      std::fprintf(stderr, "unknown --view '%s'\n", view.c_str());
      return 2;
    }
    options.connectPieces = cli.hasFlag("connected");
    options.includeSystemThreads = cli.hasFlag("system-threads");
    if (const auto window = cli.value("window")) {
      const auto parts = splitString(*window, ':');
      if (parts.size() == 2) {
        options.window = {static_cast<Tick>(parseF64(parts[0]) * 1e9),
                          static_cast<Tick>(parseF64(parts[1]) * 1e9)};
      }
    }

    IntervalFileReader file(input);
    file.checkProfile(profile);
    return showModel(cli, buildView(file, profile, options), asciiCols);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uteview: %s\n", e.what());
    return 1;
  }
}
