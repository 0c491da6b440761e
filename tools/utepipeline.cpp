// utepipeline — the whole offline utility chain in one command:
// raw per-node trace files -> per-node interval files (convert) ->
// merged interval file + SLOG file in one pass (slogmerge).
//
// Usage:
//   utepipeline --out PREFIX [--jobs N] [--no-slog]
//               [--profile profile.ute] [--method rms|last|piecewise]
//               [--frame-bytes N] [--slog-v1 | --slog-v2]
//               RAW.0.utr RAW.1.utr ...
//
// Produces PREFIX.<node>.uti, PREFIX.merged.uti and (unless --no-slog)
// PREFIX.slog. --jobs N runs per-node conversions and the merge's pass-1
// clock fits on N workers; every output is byte-identical to --jobs 1
// (the determinism guarantee documented in docs/PIPELINE.md).
#include <cstdio>
#include <exception>

#include "interval/standard_profile.h"
#include "support/cli.h"
#include "support/text.h"
#include "workloads/pipeline.h"

int main(int argc, char** argv) {
  using namespace ute;
  try {
    CliParser cli(argc, argv,
                  {"out", "profile", "method", "frame-bytes", "jobs"},
                  {"no-slog", "slog-v1", "slog-v2"});
    if (cli.positional().empty() || !cli.value("out")) {
      std::fprintf(stderr,
                   "usage: utepipeline --out PREFIX [--jobs N] [--no-slog] "
                   "RAW.0.utr ...\n");
      return 2;
    }
    const std::string prefix = *cli.value("out");
    const int jobs = static_cast<int>(cli.valueOr("jobs", std::uint64_t{1}));

    const Profile profile = loadProfileOrStandard(
        cli.valueOr("profile", std::string(kStandardProfileFileName)));

    ChainOptions options;
    options.writeSlog = !cli.hasFlag("no-slog");
    options.convert.jobs = jobs;
    options.convert.targetFrameBytes = static_cast<std::size_t>(
        cli.valueOr("frame-bytes", std::uint64_t{32} << 10));
    options.merge.jobs = jobs;
    options.merge.targetFrameBytes = options.convert.targetFrameBytes;
    if (!applyChainFlags(cli, options.merge, options.slog)) return 2;

    const ChainResult run =
        convertAndMerge(cli.positional(), prefix, profile, options);

    const double total = run.convertSeconds + run.mergeSeconds;
    std::printf("convert: %s events -> %zu interval files in %.3f s\n",
                withCommas(run.rawEvents).c_str(), run.intervalFiles.size(),
                run.convertSeconds);
    std::printf("merge:   %s records (+%s pseudo) -> %s in %.3f s\n",
                withCommas(run.merge.recordsOut).c_str(),
                withCommas(run.merge.pseudoRecords).c_str(),
                run.mergedFile.c_str(), run.mergeSeconds);
    if (options.writeSlog) {
      std::printf("slog:    %s intervals, %s arrows -> %s\n",
                  withCommas(run.slogIntervals).c_str(),
                  withCommas(run.slogArrows).c_str(), run.slogFile.c_str());
    }
    std::printf("pipeline: %.3f s total, %s records/s (--jobs %d)\n", total,
                withCommas(total == 0.0
                               ? 0
                               : static_cast<std::uint64_t>(
                                     static_cast<double>(run.merge.recordsIn) /
                                     total))
                    .c_str(),
                jobs);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "utepipeline: %s\n", e.what());
    return 1;
  }
}
