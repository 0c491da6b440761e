// The live query surface of a streaming run: everything the ingest
// server's merge thread has sealed so far, in a form the query service
// can serve while the run is still in flight (docs/STREAMING.md).
//
// The merge thread is the only writer: sealed SLOG frames arrive through
// SlogWriter's frame-seal hook, the watermark advances after each merge
// step, and finish() stamps the final time range. Server worker threads
// read concurrently: TailFrames pages through sealed frames by cursor
// (frames are append-only, so a client that resumes from its last cursor
// sees every frame exactly once across disconnects), and TailMetrics
// serves the incrementally extended .utm blob — fixed-width bins are
// appended as global time advances, and only the open tail bin (the one
// the watermark is still inside) can change value between polls.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/metrics.h"
#include "interval/file_writer.h"
#include "slog/slog_format.h"
#include "support/thread_annotations.h"
#include "support/types.h"

namespace ute {

/// The live metrics bin width (ns). A live run's end is unknown, so the
/// batch rule "span / 240 bins" cannot apply; bins of this width are
/// appended as the run grows.
inline constexpr Tick kLiveMetricsBinWidth = 1'000'000;

class LiveFeed {
 public:
  struct TailFrames {
    std::uint64_t nextCursor = 0;
    bool finished = false;
    Tick watermark = 0;
    std::vector<std::pair<SlogFrameIndexEntry, SlogFramePtr>> frames;
  };

  struct TailMetrics {
    bool finished = false;
    Tick watermark = 0;
    /// Bins strictly below the watermark: their cells are final, a
    /// polling client only needs to refresh from here on.
    std::uint32_t sealedBins = 0;
    /// The encoded .utm store (empty until the thread table is known).
    std::vector<std::uint8_t> blob;
  };

  // --- writer side (the merge thread) ------------------------------------

  /// The merged thread table; required before the first sealed frame.
  void setThreads(std::vector<ThreadEntry> threads) UTE_EXCLUDES(mu_);
  /// Snapshot of the SLOG state table (grows as markers register).
  void setStates(std::vector<SlogStateDef> states) UTE_EXCLUDES(mu_);
  /// SlogWriter frame-seal hook target: appends the frame and folds it
  /// into the live metrics store.
  void onFrameSealed(const SlogFrameIndexEntry& entry, SlogFramePtr frame)
      UTE_EXCLUDES(mu_);
  void setWatermark(Tick watermark) UTE_EXCLUDES(mu_);
  /// Stamps the final time range; after this, tails report finished.
  void finish(Tick totalStart, Tick totalEnd) UTE_EXCLUDES(mu_);

  // --- reader side (server workers) ---------------------------------------

  /// Sealed frames [cursor, cursor + maxFrames); an out-of-range cursor
  /// yields an empty page at nextCursor == frameCount().
  TailFrames framesFrom(std::uint64_t cursor, std::uint32_t maxFrames) const
      UTE_EXCLUDES(mu_);
  TailMetrics metrics() const UTE_EXCLUDES(mu_);

  std::vector<ThreadEntry> threads() const UTE_EXCLUDES(mu_);
  std::vector<SlogStateDef> states() const UTE_EXCLUDES(mu_);
  std::uint64_t frameCount() const UTE_EXCLUDES(mu_);
  bool finished() const UTE_EXCLUDES(mu_);
  Tick watermark() const UTE_EXCLUDES(mu_);
  /// (totalStart, totalEnd): final after finish(), the sealed range
  /// (first frame start, last frame end) while live.
  std::pair<Tick, Tick> timeRange() const UTE_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<ThreadEntry> threads_ UTE_GUARDED_BY(mu_);
  std::vector<SlogStateDef> states_ UTE_GUARDED_BY(mu_);
  std::vector<std::pair<SlogFrameIndexEntry, SlogFramePtr>> frames_
      UTE_GUARDED_BY(mu_);
  /// Live store; shaped once the first frame seals (its start is the
  /// origin).
  MetricsStore metrics_ UTE_GUARDED_BY(mu_);
  bool haveMetrics_ UTE_GUARDED_BY(mu_) = false;
  bool finished_ UTE_GUARDED_BY(mu_) = false;
  Tick watermark_ UTE_GUARDED_BY(mu_) = 0;
  Tick totalStart_ UTE_GUARDED_BY(mu_) = 0;
  Tick totalEnd_ UTE_GUARDED_BY(mu_) = 0;
  bool haveFrames_ UTE_GUARDED_BY(mu_) = false;
};

}  // namespace ute
