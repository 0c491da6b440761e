// Incremental per-node clock fitting for the streaming merge.
//
// The batch merger (src/merge/merger.cpp) sees every (global, local)
// timestamp pair of a node before it adjusts a single record. A live
// ingest session cannot wait for the run to finish, so OnlineClockFit
// maintains a *windowed* re-fit: each arriving pair updates a ClockMap
// built from the first pair ever seen (the anchor — the same anchor the
// batch fit uses) plus the 63 most recent pairs. Once the fitted ratio
// stops moving (relative delta below `convergenceTolerance` for 4
// consecutive updates) the fit is considered converged and may be
// frozen, after which records can be adjusted and emitted without the
// risk of the time base shifting under them.
//
// The batch-equivalence path: setFinalPairs() reproduces the exact
// outlier-filter + ClockMap construction of the batch merger, so a
// streamed run whose sources ship their full pair list up front produces
// byte-identical output (docs/STREAMING.md).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "clock/sync.h"

namespace ute {

struct OnlineFitOptions {
  SyncMethod method = SyncMethod::kRmsSegments;
  /// No convergence verdict before this many pairs have been observed.
  std::size_t minPairs = 8;
  /// Relative ratio change per update counted as "quiet".
  double convergenceTolerance = 1e-7;
};

/// The exact clock fit of the batch merger's first pass: optional
/// outlier filtering (only with >= 3 pairs), then an anchored ClockMap
/// (identity with fewer than two pairs). Both IntervalMerger and
/// StreamMerger call this, with the defaults (daemon-descheduling
/// outliers dropped), so the two pipelines cannot drift apart.
ClockMap batchClockFit(std::vector<TimestampPair> pairs, SyncMethod method,
                       bool filterOutliers = true,
                       double outlierTolerance = 5e-5);

class OnlineClockFit {
 public:
  explicit OnlineClockFit(OnlineFitOptions options = {});

  /// Observes one (global, local) pair and re-fits the window. Ignored
  /// once the fit is frozen.
  void addPair(const TimestampPair& pair);

  /// Replaces the fit with the batch fit over the complete pair list and
  /// freezes it — the path a source takes when it knows all its global
  /// clock records up front (file replay).
  void setFinalPairs(std::span<const TimestampPair> pairs);

  /// Locks in the current windowed fit; addPair becomes a no-op.
  void freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  /// True once the windowed ratio has been stable long enough (see
  /// OnlineFitOptions). Frozen fits always report converged.
  bool converged() const;

  /// Pairs observed (not the window size).
  std::size_t pairCount() const { return observed_; }

  const ClockMap& map() const { return map_; }
  double ratio() const { return map_.ratio(); }

 private:
  void refit();

  OnlineFitOptions options_;
  std::vector<TimestampPair> window_;  ///< window_[0] is the pinned anchor
  std::size_t observed_ = 0;
  ClockMap map_ = ClockMap::identity();
  double lastRatio_ = 1.0;
  int quietRuns_ = 0;
  bool frozen_ = false;
};

}  // namespace ute
