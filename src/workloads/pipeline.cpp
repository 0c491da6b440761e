#include "workloads/pipeline.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>

#include <unistd.h>

#include "interval/standard_profile.h"
#include "mpisim/mpi_runtime.h"
#include "sim/simulation.h"
#include "support/cli.h"

namespace ute {

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::string makeScratchDir(const std::string& hint) {
  namespace fs = std::filesystem;
  const fs::path base = fs::temp_directory_path() / "ute";
  fs::create_directories(base);
  // One directory per hint *and process*: concurrently running test
  // processes (ctest -j) must never wipe each other's files. Within one
  // process the path is deterministic and wiped on reuse. Directories
  // left by processes that have since exited are reclaimed here so the
  // temp space stays bounded across runs.
  const std::string prefix = hint + ".";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(base, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const long pid = std::strtol(name.c_str() + prefix.size(), nullptr, 10);
    if (pid > 0 && pid != static_cast<long>(getpid()) &&
        kill(static_cast<pid_t>(pid), 0) == -1 && errno == ESRCH) {
      std::error_code ignored;
      fs::remove_all(entry.path(), ignored);
    }
  }
  const fs::path dir = base / (prefix + std::to_string(getpid()));
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  fs::create_directories(dir);
  return dir.string();
}

SlogMergeResult slogMerge(const std::vector<std::string>& intervalFiles,
                          const Profile& profile, const MergeOptions& merge,
                          const std::string& mergedPath,
                          const std::string& slogPath,
                          const SlogOptions& slog) {
  SlogMergeResult result;
  const auto t0 = std::chrono::steady_clock::now();
  IntervalMerger merger(intervalFiles, profile, merge);
  if (slogPath.empty()) {
    result.merge = merger.mergeTo(mergedPath);
  } else {
    std::optional<SlogWriter> writer;
    result.merge = merger.mergeTo(
        mergedPath,
        [&writer](const RecordView& record) { writer->addRecord(record); },
        [&](const std::vector<ThreadEntry>& threads,
            const std::map<std::uint32_t, std::string>& markers) {
          writer.emplace(slogPath, slog, profile, threads, markers);
        });
    writer->close();
    result.slogIntervals = writer->intervalsWritten();
    result.slogArrows = writer->arrowsWritten();
  }
  result.seconds = secondsSince(t0);
  return result;
}

ChainResult convertAndMerge(const std::vector<std::string>& rawFiles,
                            const std::string& prefix, const Profile& profile,
                            const ChainOptions& options) {
  ChainResult result;
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<ConvertResult> converted =
      convertRun(rawFiles, prefix, options.convert);
  result.convertSeconds = secondsSince(t0);
  for (const ConvertResult& c : converted) {
    result.intervalFiles.push_back(c.outputPath);
    result.rawEvents += c.rawEvents;
    result.intervalRecords += c.intervalRecords;
  }

  result.mergedFile = prefix + ".merged.uti";
  if (options.writeSlog) result.slogFile = prefix + ".slog";
  const SlogMergeResult merged =
      slogMerge(result.intervalFiles, profile, options.merge,
                result.mergedFile, result.slogFile, options.slog);
  result.merge = merged.merge;
  result.slogIntervals = merged.slogIntervals;
  result.slogArrows = merged.slogArrows;
  result.mergeSeconds = merged.seconds;
  return result;
}

bool applyChainFlags(const CliParser& cli, StreamMergeOptions& merge,
                     SlogOptions& slog) {
  const std::string method = cli.valueOr("method", std::string("rms"));
  if (method == "rms") merge.syncMethod = SyncMethod::kRmsSegments;
  else if (method == "last") merge.syncMethod = SyncMethod::kLastPair;
  else if (method == "piecewise") merge.syncMethod = SyncMethod::kPiecewise;
  else {
    std::fprintf(stderr, "unknown --method '%s'\n", method.c_str());
    return false;
  }
  if (cli.hasFlag("slog-v1")) slog.formatVersion = 1;
  if (cli.hasFlag("slog-v2")) slog.formatVersion = kSlogVersion;
  return true;
}

PipelineResult runPipeline(SimulationConfig config,
                           const PipelineOptions& options) {
  namespace fs = std::filesystem;
  fs::create_directories(options.dir);
  const std::string base =
      (fs::path(options.dir) / options.name).string();

  // --- stage 1: trace generation (the simulated run) ---------------------
  config.trace.filePrefix = base;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::string> rawFiles;
  MpiRuntimeStats mpiStats;
  Tick simulatedNs = 0;
  {
    Simulation sim(std::move(config));
    MpiRuntime mpi(sim);
    sim.setMpiService(&mpi);
    sim.run();
    mpiStats = mpi.stats();
    rawFiles = sim.traceFilePaths();
    simulatedNs = sim.finishTimeNs();
  }
  const double simSeconds = secondsSince(t0);

  // --- stages 2-3: convert, then merge (+ SLOG in the same pass) ----------
  const std::string profileFile =
      (fs::path(options.dir) / kStandardProfileFileName).string();
  ensureStandardProfileFile(profileFile);
  PipelineResult result;
  static_cast<ChainResult&>(result) =
      convertAndMerge(rawFiles, base, makeStandardProfile(), options);
  result.rawFiles = std::move(rawFiles);
  result.profileFile = profileFile;
  result.mpiStats = mpiStats;
  result.simSeconds = simSeconds;
  result.simulatedNs = simulatedNs;
  return result;
}

}  // namespace ute
