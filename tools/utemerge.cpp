// utemerge — the merge utility (Section 3.1), optionally emitting a SLOG
// file in the same pass ("slogmerge", Section 4).
//
// Usage:
//   utemerge --out MERGED.uti [--slog OUT.slog] [--profile profile.ute]
//            [--method rms|last|piecewise] [--naive] [--keep-clock]
//            [--threads mpi,user,system]   (categories to merge, §2.3.3)
//            [--jobs N]   (parallel pass-1 clock fits; output
//                          byte-identical to --jobs 1)
//            [--slog-v1 | --slog-v2]   (SLOG frame encoding; default v2
//                                       compressed columnar, docs/FORMAT.md)
//            NODE0.uti NODE1.uti ...
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
                  {"out", "slog", "profile", "method", "frame-bytes",
                   "threads", "jobs"},
                  {"naive", "keep-clock", "slog-v1", "slog-v2"});
    if (cli.positional().empty()) {
      std::fprintf(stderr,
                   "usage: utemerge --out MERGED.uti [--slog F] NODE.uti ...\n");
      return 2;
    }
    const std::string out = cli.valueOr("out", std::string("merged.uti"));
    const std::string slogPath = cli.valueOr("slog", std::string());
    const Profile profile = loadProfileOrStandard(
        cli.valueOr("profile", std::string(kStandardProfileFileName)));

    MergeOptions options;
    SlogOptions slogOptions;
    if (!applyChainFlags(cli, options, slogOptions)) return 2;
    options.useNaiveMerge = cli.hasFlag("naive");
    if (const auto threads = cli.value("threads")) {
      // Comma-separated categories: mpi,user,system (Section 2.3.3).
      options.threadTypeMask = 0;
      for (const std::string& kind : splitString(*threads, ',')) {
        if (kind == "mpi") {
          options.threadTypeMask |=
              MergeOptions::threadTypeBit(ThreadType::kMpi);
        } else if (kind == "user") {
          options.threadTypeMask |=
              MergeOptions::threadTypeBit(ThreadType::kUser);
        } else if (kind == "system") {
          options.threadTypeMask |=
              MergeOptions::threadTypeBit(ThreadType::kSystem);
        } else {
          std::fprintf(stderr, "unknown thread category '%s'\n",
                       kind.c_str());
          return 2;
        }
      }
    }
    options.keepClockRecords = cli.hasFlag("keep-clock");
    options.targetFrameBytes = static_cast<std::size_t>(
        cli.valueOr("frame-bytes", std::uint64_t{32} << 10));
    options.jobs = static_cast<int>(cli.valueOr("jobs", std::uint64_t{1}));

    const SlogMergeResult merged = slogMerge(
        cli.positional(), profile, options, out, slogPath, slogOptions);
    const MergeResult& result = merged.merge;

    for (std::size_t i = 0; i < result.ratios.size(); ++i) {
      std::printf("input %zu: clock ratio %.9f\n", i, result.ratios[i]);
    }
    std::printf("merged %s records (+%s pseudo) -> %s\n",
                withCommas(result.recordsOut).c_str(),
                withCommas(result.pseudoRecords).c_str(), out.c_str());
    if (!slogPath.empty()) {
      std::printf("slog: %s intervals, %s arrows -> %s\n",
                  withCommas(merged.slogIntervals).c_str(),
                  withCommas(merged.slogArrows).c_str(), slogPath.c_str());
    }
    std::printf("%s: %s records in %.3f s (%.7f sec/record)\n",
                slogPath.empty() ? "merge" : "slogmerge",
                withCommas(result.recordsIn).c_str(), merged.seconds,
                result.recordsIn == 0
                    ? 0.0
                    : merged.seconds / static_cast<double>(result.recordsIn));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "utemerge: %s\n", e.what());
    return 1;
  }
}
