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

#include "analysis/metrics.h"
#include "analysis/metrics_io.h"
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

int showMetrics(const MetricsStore& store, const std::string& kindName,
                const CliParser& cli, int asciiCols) {
  const auto kind = parseMetricKind(kindName);
  if (!kind) {
    std::fprintf(stderr, "unknown --metrics kind '%s'\n", kindName.c_str());
    return 2;
  }
  std::printf("%s", renderMetricsHeatmapAscii(store, *kind, asciiCols)
                        .c_str());
  if (const auto svg = cli.value("svg")) {
    writeWholeFile(*svg, renderMetricsHeatmapSvg(store, *kind));
    std::printf("wrote %s\n", svg->c_str());
  }
  return 0;
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

    if (const auto utmPath = cli.value("utm")) {
      const MetricsReader metricsFile(*utmPath);
      return showMetrics(metricsFile.store(),
                         cli.valueOr("metrics", std::string("busy")), cli,
                         asciiCols);
    }
    if (const auto endpoint = cli.endpoint()) {
      TraceClient client(endpoint->host, endpoint->port);
      const std::uint32_t traceId = cli.traceId();
      const auto bins =
          static_cast<std::uint32_t>(cli.valueOr("bins", std::uint64_t{0}));
      const MetricsStore store = client.metrics(traceId, bins);
      return showMetrics(store, cli.valueOr("metrics", std::string("busy")),
                         cli, asciiCols);
    }

    if (const auto slogPath = cli.value("slog")) {
      SlogReader slog(*slogPath);
      if (const auto metricKindName = cli.value("metrics")) {
        MetricsOptions metricsOptions;
        metricsOptions.bins = static_cast<std::uint32_t>(
            cli.valueOr("bins", std::uint64_t{240}));
        metricsOptions.jobs =
            static_cast<int>(cli.valueOr("jobs", std::uint64_t{0}));
        const MetricsStore store = computeMetrics(slog, metricsOptions);
        return showMetrics(store, *metricKindName, cli, asciiCols);
      }
      if (cli.hasFlag("preview")) {
        std::printf("%s", renderPreviewAscii(slog.preview(), slog.states(),
                                             50)
                              .c_str());
        if (const auto svg = cli.value("svg")) {
          writeWholeFile(*svg,
                         renderPreviewSvg(slog.preview(), slog.states(), 50));
          std::printf("wrote %s\n", svg->c_str());
        }
        return 0;
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
        const TimeSpaceModel model = buildSlogWindowView(slog, t0, t1);
        AsciiOptions ascii;
        ascii.columns = asciiCols;
        std::printf("%s", renderAscii(model, ascii).c_str());
        if (const auto svg = cli.value("svg")) {
          writeWholeFile(*svg, renderSvg(model));
          std::printf("wrote %s\n", svg->c_str());
        }
        return 0;
      }
      const double atSec = cli.valueOr("frame-at", 0.0);
      const Tick t = slog.totalStart() +
                     static_cast<Tick>(atSec * 1e9);
      const auto frame = slog.frameIndexFor(t);
      if (!frame) {
        std::fprintf(stderr, "no frame contains t=%.3fs\n", atSec);
        return 1;
      }
      const TimeSpaceModel model = buildSlogFrameView(slog, *frame);
      AsciiOptions ascii;
      ascii.columns = asciiCols;
      std::printf("%s", renderAscii(model, ascii).c_str());
      if (const auto svg = cli.value("svg")) {
        writeWholeFile(*svg, renderSvg(model));
        std::printf("wrote %s\n", svg->c_str());
      }
      return 0;
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
    const TimeSpaceModel model = buildView(file, profile, options);
    AsciiOptions ascii;
    ascii.columns = asciiCols;
    std::printf("%s", renderAscii(model, ascii).c_str());
    if (const auto svg = cli.value("svg")) {
      writeWholeFile(*svg, renderSvg(model));
      std::printf("wrote %s\n", svg->c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uteview: %s\n", e.what());
    return 1;
  }
}
