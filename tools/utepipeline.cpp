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
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>

#include "convert/converter.h"
#include "interval/standard_profile.h"
#include "merge/merger.h"
#include "slog/slog_writer.h"
#include "support/cli.h"
#include "support/text.h"

int main(int argc, char** argv) {
  using namespace ute;
  try {
    CliParser cli(argc, argv,
                  {"out", "profile", "method", "frame-bytes", "jobs"});
    if (cli.positional().empty() || !cli.value("out")) {
      std::fprintf(stderr,
                   "usage: utepipeline --out PREFIX [--jobs N] [--no-slog] "
                   "RAW.0.utr ...\n");
      return 2;
    }
    const std::string prefix = *cli.value("out");
    const int jobs = static_cast<int>(cli.valueOr("jobs", std::uint64_t{1}));
    const bool writeSlog = !cli.hasFlag("no-slog");

    Profile profile;
    try {
      profile = Profile::readFile(
          cli.valueOr("profile", std::string(kStandardProfileFileName)));
    } catch (const IoError&) {
      profile = makeStandardProfile();  // fall back to the built-in
    }

    ConvertOptions convertOptions;
    convertOptions.jobs = jobs;
    convertOptions.targetFrameBytes = static_cast<std::size_t>(
        cli.valueOr("frame-bytes", std::uint64_t{32} << 10));

    MergeOptions mergeOptions;
    mergeOptions.jobs = jobs;
    mergeOptions.targetFrameBytes = convertOptions.targetFrameBytes;
    const std::string method = cli.valueOr("method", std::string("rms"));
    if (method == "rms") mergeOptions.syncMethod = SyncMethod::kRmsSegments;
    else if (method == "last") mergeOptions.syncMethod = SyncMethod::kLastPair;
    else if (method == "piecewise") {
      mergeOptions.syncMethod = SyncMethod::kPiecewise;
    } else {
      std::fprintf(stderr, "unknown --method '%s'\n", method.c_str());
      return 2;
    }

    // Stage 1: convert.
    auto t0 = std::chrono::steady_clock::now();
    const std::vector<ConvertResult> converted =
        convertRun(cli.positional(), prefix, convertOptions);
    const double convertSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::uint64_t rawEvents = 0;
    std::vector<std::string> intervalFiles;
    for (const ConvertResult& c : converted) {
      rawEvents += c.rawEvents;
      intervalFiles.push_back(c.outputPath);
    }

    // Stage 2: merge (+ SLOG in the same pass).
    const std::string mergedPath = prefix + ".merged.uti";
    const std::string slogPath = writeSlog ? prefix + ".slog" : std::string();
    t0 = std::chrono::steady_clock::now();
    IntervalMerger merger(intervalFiles, profile, mergeOptions);
    MergeResult result;
    std::uint64_t slogIntervals = 0;
    std::uint64_t slogArrows = 0;
    if (writeSlog) {
      std::vector<ThreadEntry> threads;
      std::map<std::uint32_t, std::string> markers;
      for (const std::string& path : intervalFiles) {
        IntervalFileReader reader(path);
        threads.insert(threads.end(), reader.threads().begin(),
                       reader.threads().end());
        for (const auto& [id, name] : reader.markers()) {
          markers.emplace(id, name);
        }
      }
      SlogOptions slogOptions;
      if (cli.hasFlag("slog-v1")) slogOptions.formatVersion = 1;
      if (cli.hasFlag("slog-v2")) slogOptions.formatVersion = kSlogVersion;
      SlogWriter slog(slogPath, slogOptions, profile, threads, markers);
      result = merger.mergeTo(
          mergedPath, [&slog](const RecordView& r) { slog.addRecord(r); });
      slog.close();
      slogIntervals = slog.intervalsWritten();
      slogArrows = slog.arrowsWritten();
    } else {
      result = merger.mergeTo(mergedPath);
    }
    const double mergeSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const double total = convertSeconds + mergeSeconds;
    std::printf("convert: %s events -> %zu interval files in %.3f s\n",
                withCommas(rawEvents).c_str(), intervalFiles.size(),
                convertSeconds);
    std::printf("merge:   %s records (+%s pseudo) -> %s in %.3f s\n",
                withCommas(result.recordsOut).c_str(),
                withCommas(result.pseudoRecords).c_str(), mergedPath.c_str(),
                mergeSeconds);
    if (writeSlog) {
      std::printf("slog:    %s intervals, %s arrows -> %s\n",
                  withCommas(slogIntervals).c_str(),
                  withCommas(slogArrows).c_str(), slogPath.c_str());
    }
    std::printf("pipeline: %.3f s total, %s records/s (--jobs %d)\n", total,
                withCommas(total == 0.0
                               ? 0
                               : static_cast<std::uint64_t>(
                                     static_cast<double>(result.recordsIn) /
                                     total))
                    .c_str(),
                jobs);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "utepipeline: %s\n", e.what());
    return 1;
  }
}
