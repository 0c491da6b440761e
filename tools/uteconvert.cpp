// uteconvert — the convert utility (Section 3.1): raw event trace files
// to per-node interval files, with cross-task marker unification.
//
// Usage:
//   uteconvert [--out PREFIX] [--frame-bytes N] [--jobs N]
//              RAW.0.utr RAW.1.utr ...
//
// --jobs N converts up to N per-node files concurrently (0 = one worker
// per hardware thread); the outputs are byte-identical to --jobs 1.
// Prints per-file statistics including sec/event, the metric of Table 1.
#include <chrono>
#include <cstdio>
#include <exception>

#include "convert/converter.h"
#include "support/cli.h"
#include "support/text.h"

int main(int argc, char** argv) {
  using namespace ute;
  try {
    CliParser cli(argc, argv, {"out", "frame-bytes", "frames-per-dir",
                               "jobs"},
                  {});
    if (cli.positional().empty()) {
      std::fprintf(stderr,
                   "usage: uteconvert [--out PREFIX] RAW.0.utr ...\n");
      return 2;
    }
    ConvertOptions options;
    options.targetFrameBytes = static_cast<std::size_t>(
        cli.valueOr("frame-bytes", std::uint64_t{32} << 10));
    options.framesPerDirectory = static_cast<int>(
        cli.valueOr("frames-per-dir", std::uint64_t{64}));
    options.jobs = static_cast<int>(cli.valueOr("jobs", std::uint64_t{1}));

    std::string outPrefix = cli.valueOr("out", std::string());
    if (outPrefix.empty()) {
      // Derive from the first input: "x.0.utr" -> "x".
      outPrefix = cli.positional().front();
      const auto pos = outPrefix.find(".");
      if (pos != std::string::npos) outPrefix.resize(pos);
    }

    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<ConvertResult> results =
        convertRun(cli.positional(), outPrefix, options);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::uint64_t events = 0;
    std::uint64_t intervals = 0;
    for (const ConvertResult& r : results) {
      events += r.rawEvents;
      intervals += r.intervalRecords;
      std::printf("%s: %s events -> %s intervals\n", r.outputPath.c_str(),
                  withCommas(r.rawEvents).c_str(),
                  withCommas(r.intervalRecords).c_str());
    }
    std::printf("convert: %s events in %.3f s (%.7f sec/event)\n",
                withCommas(events).c_str(), seconds,
                events == 0 ? 0.0 : seconds / static_cast<double>(events));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uteconvert: %s\n", e.what());
    return 1;
  }
}
