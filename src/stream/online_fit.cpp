#include "stream/online_fit.h"

#include <algorithm>
#include <cmath>

namespace ute {

constexpr std::size_t kWindow = 64;  ///< the anchor + 63 recent pairs
constexpr int kConvergenceRuns = 4;  ///< quiet updates to converge

ClockMap batchClockFit(std::vector<TimestampPair> pairs, SyncMethod method,
                       bool filterOutliers, double outlierTolerance) {
  if (filterOutliers && pairs.size() >= 3) {
    pairs = filterOutlierPairs(pairs, outlierTolerance);
  }
  return pairs.size() >= 2 ? ClockMap(pairs, method) : ClockMap::identity();
}

OnlineClockFit::OnlineClockFit(OnlineFitOptions options)
    : options_(options) {}

void OnlineClockFit::addPair(const TimestampPair& pair) {
  if (frozen_) return;
  ++observed_;
  if (window_.size() >= kWindow) {
    // Keep the anchor (the batch fit's anchor too); age out the oldest
    // of the sliding tail.
    window_.erase(window_.begin() + 1);
  }
  window_.push_back(pair);
  refit();
}

void OnlineClockFit::setFinalPairs(std::span<const TimestampPair> pairs) {
  map_ = batchClockFit(std::vector<TimestampPair>(pairs.begin(), pairs.end()),
                       options_.method);
  observed_ = std::max(observed_, pairs.size());
  lastRatio_ = map_.ratio();
  frozen_ = true;
}

void OnlineClockFit::refit() {
  map_ = batchClockFit(window_, options_.method);
  const double ratio = map_.ratio();
  const double base = std::max(std::abs(lastRatio_), 1e-12);
  if (observed_ >= options_.minPairs &&
      std::abs(ratio - lastRatio_) <= options_.convergenceTolerance * base) {
    ++quietRuns_;
  } else {
    quietRuns_ = 0;
  }
  lastRatio_ = ratio;
}

bool OnlineClockFit::converged() const {
  if (frozen_) return true;
  return observed_ >= options_.minPairs &&
         quietRuns_ >= kConvergenceRuns;
}

}  // namespace ute
