// End-to-end pipeline driver: Figure 2 in code.
//
//   simulate (trace generation) -> raw per-node trace files
//   -> convert (event matching, interval pieces, marker unification)
//   -> merge (clock adjustment, k-way merge, pseudo-intervals)
//   -> optional SLOG emission in the same pass (slogmerge)
//
// Examples, benchmarks and integration tests all drive runs through this
// one entry point, and utepipeline/utemerge run the same convert and
// slogmerge stages; each stage is also timed so Table 1's utility speeds
// come from the same code path users run.
#pragma once

#include <string>
#include <vector>

#include "convert/converter.h"
#include "merge/merger.h"
#include "mpisim/mpi_runtime.h"
#include "sim/config.h"
#include "slog/slog_writer.h"

namespace ute {

class CliParser;

/// Stages 2-3 of Figure 2 (convert, then merge + SLOG): the settings the
/// offline tools and runPipeline share.
struct ChainOptions {
  bool writeSlog = true;
  ConvertOptions convert;
  MergeOptions merge;
  SlogOptions slog;
};

struct PipelineOptions : ChainOptions {
  /// Directory all files are written into (created if missing).
  std::string dir = ".";
  /// Base name for the produced files.
  std::string name = "run";
};

/// What the merge stage wrote (slogMerge).
struct SlogMergeResult {
  MergeResult merge;
  std::uint64_t slogIntervals = 0;  ///< 0 when no SLOG was written
  std::uint64_t slogArrows = 0;
  double seconds = 0;  ///< merger set-up, merge and SLOG emission
};

struct ChainResult {
  std::vector<std::string> intervalFiles;
  std::string mergedFile;
  std::string slogFile;  ///< empty unless writeSlog
  std::uint64_t rawEvents = 0;  ///< as the converter read them
  std::uint64_t intervalRecords = 0;
  MergeResult merge;
  std::uint64_t slogIntervals = 0;
  std::uint64_t slogArrows = 0;
  double convertSeconds = 0;
  double mergeSeconds = 0;  ///< includes SLOG emission when enabled
};

struct PipelineResult : ChainResult {
  std::vector<std::string> rawFiles;
  std::string profileFile;  ///< the standard description profile
  /// Ground truth from the MPI runtime, for cross-checking analyses
  /// (e.g. Figure 5's total bytes sent must equal mpiStats.bytesSent).
  MpiRuntimeStats mpiStats;
  double simSeconds = 0;
  Tick simulatedNs = 0;
};

/// Stage 3, "slogmerge" (§3.1, §4): merges `intervalFiles` into
/// `mergedPath` and, unless `slogPath` is empty, writes the SLOG file in
/// the same pass. The SLOG carries the merged file's own thread table
/// and markers, so a thread-type mask drops the same threads from both.
SlogMergeResult slogMerge(const std::vector<std::string>& intervalFiles,
                          const Profile& profile, const MergeOptions& merge,
                          const std::string& mergedPath,
                          const std::string& slogPath,
                          const SlogOptions& slog);

/// Stages 2-3 over existing raw files: converts each into
/// `<prefix>.<node>.uti`, then slogMerge()s them into
/// `<prefix>.merged.uti` and, when options.writeSlog, `<prefix>.slog`.
ChainResult convertAndMerge(const std::vector<std::string>& rawFiles,
                            const std::string& prefix, const Profile& profile,
                            const ChainOptions& options);

/// The chain flags utemerge, utepipeline and utestream share: `--method
/// rms|last|piecewise` selects the clock-ratio fit (§2.2), `--slog-v1` /
/// `--slog-v2` the SLOG frame encoding. On an unknown method, prints the
/// error to stderr and returns false; the tool then exits with status 2.
bool applyChainFlags(const CliParser& cli, StreamMergeOptions& merge,
                     SlogOptions& slog);

/// Runs the full pipeline. The trace file prefix inside `config` is
/// overridden to place raw files in options.dir.
PipelineResult runPipeline(SimulationConfig config,
                           const PipelineOptions& options);

/// Creates (and returns) a fresh scratch directory under the system temp
/// directory, e.g. for tests and examples.
std::string makeScratchDir(const std::string& hint);

}  // namespace ute
