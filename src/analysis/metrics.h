// Time-resolved derived metrics over a SLOG file (src/analysis).
//
// The statistics generator answers "how much, per run"; a viewer answers
// "what, exactly, at time t". This engine fills the gap between them with
// the standard *time-resolved* metrics of trace analysis: one pass over
// the SLOG frames fills a columnar store of per (time-bin x task x
// state-class) time sums plus message counters, from which the derived
// series — communication fraction, load imbalance across tasks, and
// late-sender wait time — fall out as cheap integer arithmetic.
//
// Every cell is an exact integer number of nanoseconds (or a count):
// interval durations are split across bins in whole-tick chunks, so
// accumulation is associative and the result is bit-identical no matter
// how the frames are partitioned across threads. computeMetrics() with
// --jobs N therefore produces byte-identical .utm output for every N —
// the same determinism contract the parallel convert/merge pipeline
// keeps, checked the same way by the tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "slog/slog_format.h"
#include "slog/slog_reader.h"
#include "support/types.h"

namespace ute {

/// Coarse visualization-state classes the per-bin time sums are kept in.
/// Classes deliberately mirror what an analyst asks first: how much time
/// ran user code, sat inside MPI, did I/O, or was inside a user marker.
enum class StateClass : std::uint8_t {
  kBusy = 0,    ///< the Running dispatch state (includes time inside MPI)
  kMpi = 1,     ///< any MPI routine state
  kIo = 2,      ///< IoRead / IoWrite / PageFault states
  kMarker = 3,  ///< user-marker states (id >= kMarkerStateBase)
};
inline constexpr std::uint32_t kStateClassCount = 4;

const char* stateClassName(StateClass c);

/// Maps a SLOG state id to its class; returns false for states the
/// metrics ignore (the clock-sync injection state, unknown ids).
bool classifyState(std::uint32_t stateId, StateClass& out);

struct MetricsOptions {
  std::uint32_t bins = 240;
  /// Worker threads for the frame scan; <= 1 is the sequential
  /// reference path (output is identical either way).
  int jobs = 1;
};

/// The columnar time-binned store. Grids are bin-major u64 arrays of
/// size bins x tasks: cell (b, k) = grid[b * taskCount + k]. Tasks are
/// the MPI ranks of the SLOG thread table, ascending; intervals on
/// threads without a task (system threads) are not attributed.
///
/// Bin b covers [origin + b*binWidth, origin + (b+1)*binWidth), except
/// the last bin which extends to the end of the run — binning never
/// drops time on the closing edge.
class MetricsStore {
 public:
  MetricsStore() = default;
  /// An empty (all-zero) store shaped for a run: tasks and the
  /// (node, thread) -> task attribution come from the thread table.
  MetricsStore(Tick origin, Tick totalEnd, std::uint32_t bins,
               const std::vector<ThreadEntry>& threads);
  /// A live store for a run whose end is not known yet: the bin width is
  /// fixed up front and the bin count grows with extendTo() as global
  /// time advances (the batch shape fixes the count and derives the
  /// width; a live run cannot). Starts with one bin.
  MetricsStore(Tick origin, Tick binWidth,
               const std::vector<ThreadEntry>& threads);

  Tick origin() const { return origin_; }
  Tick totalEnd() const { return totalEnd_; }
  Tick binWidth() const { return binWidth_; }
  std::uint32_t bins() const { return bins_; }
  const std::vector<TaskId>& tasks() const { return tasks_; }
  std::uint32_t taskCount() const {
    return static_cast<std::uint32_t>(tasks_.size());
  }
  const std::vector<std::uint32_t>& threadsPerTask() const {
    return threadsPerTask_;
  }

  /// Start of bin `b`; the last bin's end is max(grid end, totalEnd).
  Tick binStart(std::uint32_t b) const { return origin_ + b * binWidth_; }
  Tick binEnd(std::uint32_t b) const;
  /// Bin containing `t` (clamped into [0, bins-1]).
  std::uint32_t binOf(Tick t) const;

  // --- base columns (exact integer sums) -----------------------------------
  std::uint64_t timeNs(StateClass c, std::uint32_t bin,
                       std::uint32_t task) const {
    return timeNs_[static_cast<std::size_t>(c)][cell(bin, task)];
  }
  std::uint64_t sendCount(std::uint32_t bin, std::uint32_t task) const {
    return sendCount_[cell(bin, task)];
  }
  std::uint64_t sendBytes(std::uint32_t bin, std::uint32_t task) const {
    return sendBytes_[cell(bin, task)];
  }
  std::uint64_t recvCount(std::uint32_t bin, std::uint32_t task) const {
    return recvCount_[cell(bin, task)];
  }
  std::uint64_t recvBytes(std::uint32_t bin, std::uint32_t task) const {
    return recvBytes_[cell(bin, task)];
  }
  /// Receiver-side wait time attributable to the matching send not yet
  /// having been posted (clipped to the receive interval).
  std::uint64_t lateSenderNs(std::uint32_t bin, std::uint32_t task) const {
    return lateSenderNs_[cell(bin, task)];
  }

  // --- derived series -------------------------------------------------------
  /// Idle time of a task in a bin: the task's threads' wall time in the
  /// bin minus its Running time, clamped at zero.
  std::uint64_t idleNs(std::uint32_t bin, std::uint32_t task) const;
  /// MPI time / task wall time, both summed over tasks (0 when the bin
  /// has no wall time). Bounded to [0, 1].
  double commFraction(std::uint32_t bin) const;
  /// (max - avg) / max of per-task Running time in the bin; 0 when no
  /// task ran. 0 = perfectly balanced, ->1 = one task does all the work.
  double loadImbalance(std::uint32_t bin) const;
  /// Late-sender time summed over tasks.
  std::uint64_t lateSenderTotalNs(std::uint32_t bin) const;

  // --- accumulation (the streaming engine's write path) --------------------
  /// Adds one frame's intervals and arrows. Pseudo-intervals are skipped
  /// (their time is restated, not additional). Thread-safe only across
  /// distinct stores; merge partial stores with addFrom().
  void addFrame(const SlogFrameData& frame);
  /// Appends zeroed fixed-width bins until the grid covers time `t`
  /// (live stores; existing cells are untouched — only the open tail bin
  /// of an incrementally extended store ever changes value afterwards).
  /// Call before addFrame() on a frame that reaches past totalEnd(), or
  /// the spill lands in the tail bin.
  void extendTo(Tick t);
  /// Element-wise sum of another store with the same shape.
  void addFrom(const MetricsStore& other);

  /// Serializes to the self-describing .utm byte layout (docs/ANALYSIS.md).
  std::vector<std::uint8_t> encode() const;
  static MetricsStore decode(std::span<const std::uint8_t> bytes);

 private:
  friend class MetricsReader;

  std::size_t cell(std::uint32_t bin, std::uint32_t task) const {
    return static_cast<std::size_t>(bin) * tasks_.size() + task;
  }
  /// Spreads `dura` ns starting at `start` over the bins it overlaps,
  /// in exact integer chunks.
  void spread(std::vector<std::uint64_t>& grid, std::uint32_t task,
              Tick start, Tick dura);
  int taskIndexOf(NodeId node, LogicalThreadId thread) const;

  Tick origin_ = 0;
  Tick totalEnd_ = 0;
  Tick binWidth_ = 1;
  std::uint32_t bins_ = 0;
  std::vector<TaskId> tasks_;
  std::vector<std::uint32_t> threadsPerTask_;
  /// (node << 32 | thread) -> task index, from the SLOG thread table.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> threadTask_;

  std::vector<std::uint64_t> timeNs_[kStateClassCount];
  std::vector<std::uint64_t> sendCount_;
  std::vector<std::uint64_t> sendBytes_;
  std::vector<std::uint64_t> recvCount_;
  std::vector<std::uint64_t> recvBytes_;
  std::vector<std::uint64_t> lateSenderNs_;

  /// addFrame() staging lanes (capacity reused across frames): the
  /// filter/classify pass fills these dense columns, the accumulation
  /// pass runs over them kernel-style (src/slog/kernels.h).
  std::vector<std::uint8_t> laneClass_;
  std::vector<std::uint32_t> laneTask_;
  std::vector<std::uint64_t> laneStart_;
  std::vector<std::uint64_t> laneDura_;
};

/// An empty store shaped for `reader`'s run (time range + thread table).
MetricsStore makeMetricsStore(const SlogReader& reader,
                              const MetricsOptions& options);

/// The worker count computeMetrics() scans with: at most `jobs` (<= 0
/// means one per hardware thread) and one per frame, and no more than
/// keep each worker's share of the frame entries (`index` record counts)
/// at least twice the bins x tasks cells of the private store it
/// zero-fills and merges back. Below that the per-worker store costs
/// more than the frames the worker decodes.
std::size_t metricsWorkers(int jobs,
                           const std::vector<SlogFrameIndexEntry>& index,
                           std::uint32_t bins, std::size_t tasks);

/// The streaming engine: one pass over every frame of `reader`, parallel
/// over contiguous frame chunks on metricsWorkers() threads (each worker
/// fills its own store; integer accumulation makes the result
/// independent of the partition).
MetricsStore computeMetrics(const SlogReader& reader,
                            const MetricsOptions& options = {});

/// Same computation, but frames come from `frameAt` — the trace-query
/// service passes its frame cache here so lazy server-side metric
/// computation stays inside the existing cache byte budget.
MetricsStore computeMetrics(
    const SlogReader& reader, const MetricsOptions& options,
    const std::function<std::shared_ptr<const SlogFrameData>(std::size_t)>&
        frameAt);

}  // namespace ute
