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
#include <map>
#include <string>
#include <vector>

#include "interval/file_reader.h"
#include "interval/profile.h"
#include "stream/stream_merger.h"

namespace ute {

/// The streaming merge's options (src/stream/stream_merger.h) plus
/// pass-1 parallelism.
struct MergeOptions : StreamMergeOptions {
  /// Parallelism: with jobs != 1, the per-input clock-map fits of pass 1
  /// run on a thread pool, and a record sink runs on its own thread
  /// beside pass 2 (see RecordSink). Pass 2 reads every input in order on
  /// the calling thread at any jobs value. Output is byte-identical to
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
  ///
  /// Contract: the sink is called from one thread at a time, once per
  /// merged record, in output order. At jobs == 1 that is the calling
  /// thread, inside the merge loop. At jobs != 1 it is a worker thread
  /// that replays batches of copied records while the merge runs ahead,
  /// so the sink must not touch state the caller uses during mergeTo.
  /// The view and its body are valid only for the duration of the call.
  /// Either way mergeTo returns only after the sink's last call. An
  /// exception from the sink stops the merge and is rethrown by mergeTo.
  using RecordSink = std::function<void(const RecordView&)>;

  /// Called on the calling thread once the output is open, before the
  /// sink sees a record, with the merged file's thread table (the type
  /// mask applied) and markers. slogMerge builds its SLOG writer here.
  using OpenHook =
      std::function<void(const std::vector<ThreadEntry>& threads,
                         const std::map<std::uint32_t, std::string>& markers)>;

  MergeResult mergeTo(const std::string& outPath,
                      const RecordSink& sink = nullptr,
                      const OpenHook& onOpen = nullptr);

 private:
  std::vector<std::string> inputPaths_;
  const Profile& profile_;
  MergeOptions options_;
};

}  // namespace ute
