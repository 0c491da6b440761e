// The merge utility (Section 3.1): merges the per-node interval files of
// one run into a single interval file ordered by (globally adjusted) end
// time.
//
// Key functions, as in the paper:
//  - aligning the starting points of the individual files by their first
//    global clock records,
//  - adjusting local timestamps for clock drift using the global-to-local
//    ratio estimated from the global clock records (Section 2.2),
//  - a balanced (tournament) tree whose nodes point at the next interval
//    of each file, sorted by end time,
//  - zero-duration continuation pseudo-intervals at the beginning of each
//    frame representing the states still open there (Section 3.3), so a
//    viewer jumping into the middle of the file sees nested outer states.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "clock/sync.h"
#include "interval/file_reader.h"
#include "interval/file_writer.h"
#include "interval/profile.h"

namespace ute {

struct MergeOptions {
  SyncMethod syncMethod = SyncMethod::kRmsSegments;
  /// Which thread categories to merge (Section 2.3.3: the thread table's
  /// three categories "provide a way to choose specific threads for
  /// merging"). Bit per ThreadType value; default: all.
  std::uint8_t threadTypeMask = 0x7;
  static std::uint8_t threadTypeBit(ThreadType t) {
    return static_cast<std::uint8_t>(1u << static_cast<std::uint8_t>(t));
  }
  /// Drop global-clock pairs corrupted by daemon descheduling before
  /// estimating the ratio (the paper's Summary remark).
  bool filterOutliers = true;
  double outlierTolerance = 5e-5;
  /// Keep the per-node ClockSync pseudo-records in the merged output.
  bool keepClockRecords = false;
  std::size_t targetFrameBytes = 32 << 10;
  int framesPerDirectory = 64;
  /// Ablation switch: O(k) linear scan instead of the loser tree.
  bool useNaiveMerge = false;
  /// Parallelism: with jobs != 1, the per-input clock-map fits of pass 1
  /// run on a thread pool. Pass 2 reads every input in order on the
  /// calling thread at any jobs value. Output is byte-identical to
  /// jobs == 1. 1 = sequential reference path; <= 0 = one per hardware
  /// thread.
  int jobs = 1;
};

struct MergeResult {
  std::string outputPath;
  std::uint64_t recordsIn = 0;
  std::uint64_t recordsOut = 0;
  std::uint64_t pseudoRecords = 0;
  /// Per input file: the estimated global-to-local clock ratio.
  std::vector<double> ratios;
};

class IntervalMerger {
 public:
  /// `profile` must be the profile the inputs were written with.
  IntervalMerger(std::vector<std::string> inputPaths, const Profile& profile,
                 MergeOptions options = {});

  /// Observes every merged record (after adjustment) as it is written —
  /// the hook the slogmerge utility uses to build the SLOG file in the
  /// same pass.
  using RecordSink = std::function<void(const RecordView&)>;

  MergeResult mergeTo(const std::string& outPath,
                      const RecordSink& sink = nullptr);

 private:
  std::vector<std::string> inputPaths_;
  const Profile& profile_;
  MergeOptions options_;
};

}  // namespace ute
