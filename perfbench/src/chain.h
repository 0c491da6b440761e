// The offline chain as the workloads drive it: simulate raw per-node
// traces, then convert -> merge (+ SLOG in the same pass) -> metrics,
// each step through the layer's public entry point and inside a span.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "clock/sync.h"
#include "sim/config.h"

namespace perfbench {

struct RawRun {
  std::vector<std::string> files;  ///< one .utr per node
  std::uint64_t events = 0;
};

/// Simulation::run into raw files named "<prefix>.<node>.utr".
RawRun simulate(ute::SimulationConfig config, const std::string& prefix);

struct ChainResult {
  std::string slogPath;
  std::string utmPath;  ///< empty when metrics were not asked for
  std::vector<std::string> intervalFiles;
  std::uint64_t rawEvents = 0;
  std::uint64_t recordsOut = 0;
  std::uint64_t pseudoRecords = 0;
  std::uint64_t slogEntries = 0;  ///< intervals + arrows written
  double seconds = 0;          ///< the whole chain
  double convertSeconds = 0;   ///< convertRun
  /// mergeTo's span self time: minus time inside its SLOG sink when
  /// traced; the whole call (sink included) when not.
  double mergeSeconds = 0;
  double slogSeconds = 0;      ///< sink (SlogWriter::addRecord) + close
  double metricsSeconds = 0;   ///< computeMetrics + writeMetricsFile
};

/// Runs convert -> merge/SLOG (v2) -> metrics (.utm, 240 bins) over
/// `raw` at `jobs`, writing "<prefix>.<node>.uti", "<prefix>.merged.uti",
/// "<prefix>.slog" and "<prefix>.utm". The merge/SLOG split is only
/// measured when tracing is on (timing every sink call costs time).
ChainResult runChain(const RawRun& raw, const std::string& prefix, int jobs,
                     bool writeMetrics);

/// The (global, local) timestamp pair of a ClockSync interval record, as
/// the merge's first pass extracts it; false for any other record.
bool clockPairOf(std::span<const std::uint8_t> body, ute::TimestampPair& out);

}  // namespace perfbench
