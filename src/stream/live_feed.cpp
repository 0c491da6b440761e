#include "stream/live_feed.h"

#include <algorithm>

#include "support/errors.h"

namespace ute {

void LiveFeed::setThreads(std::vector<ThreadEntry> threads) {
  MutexLock lock(mu_);
  threads_ = std::move(threads);
}

void LiveFeed::setStates(std::vector<SlogStateDef> states) {
  MutexLock lock(mu_);
  states_ = std::move(states);
}

void LiveFeed::onFrameSealed(const SlogFrameIndexEntry& entry,
                             SlogFramePtr frame) {
  MutexLock lock(mu_);
  if (!frame) throw UsageError("LiveFeed: sealed frame without contents");
  if (!haveMetrics_) {
    // First frame: its start anchors both the time range and the
    // metrics origin.
    metrics_ =
        MetricsStore(entry.timeStart, kLiveMetricsBinWidth, threads_);
    haveMetrics_ = true;
  }
  if (!haveFrames_) {
    totalStart_ = entry.timeStart;
    haveFrames_ = true;
  }
  totalEnd_ = std::max(totalEnd_, entry.timeEnd);
  // Extend before accumulating: spread() clamps spill into the last
  // bin, so the grid must already cover the frame's far edge.
  metrics_.extendTo(entry.timeEnd);
  metrics_.addFrame(*frame);
  frames_.emplace_back(entry, std::move(frame));
}

void LiveFeed::setWatermark(Tick watermark) {
  MutexLock lock(mu_);
  watermark_ = std::max(watermark_, watermark);
}

void LiveFeed::finish(Tick totalStart, Tick totalEnd) {
  MutexLock lock(mu_);
  totalStart_ = totalStart;
  totalEnd_ = std::max(totalEnd_, totalEnd);
  watermark_ = std::max(watermark_, totalEnd_);
  finished_ = true;
}

LiveFeed::TailFrames LiveFeed::framesFrom(std::uint64_t cursor,
                                          std::uint32_t maxFrames) const {
  MutexLock lock(mu_);
  TailFrames out;
  out.finished = finished_;
  out.watermark = watermark_;
  const std::uint64_t total = frames_.size();
  const std::uint64_t from = std::min(cursor, total);
  const std::uint64_t to =
      maxFrames == 0 ? total : std::min(total, from + maxFrames);
  out.frames.assign(frames_.begin() + static_cast<std::ptrdiff_t>(from),
                    frames_.begin() + static_cast<std::ptrdiff_t>(to));
  out.nextCursor = to;
  return out;
}

LiveFeed::TailMetrics LiveFeed::metrics() const {
  MutexLock lock(mu_);
  TailMetrics out;
  out.finished = finished_;
  out.watermark = watermark_;
  if (haveMetrics_) {
    out.blob = metrics_.encode();
    if (finished_) {
      out.sealedBins = metrics_.bins();
    } else if (watermark_ > metrics_.origin()) {
      const Tick below = watermark_ - metrics_.origin();
      out.sealedBins = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          below / metrics_.binWidth(), metrics_.bins()));
    }
  }
  return out;
}

std::vector<ThreadEntry> LiveFeed::threads() const {
  MutexLock lock(mu_);
  return threads_;
}

std::vector<SlogStateDef> LiveFeed::states() const {
  MutexLock lock(mu_);
  return states_;
}

std::uint64_t LiveFeed::frameCount() const {
  MutexLock lock(mu_);
  return frames_.size();
}

bool LiveFeed::finished() const {
  MutexLock lock(mu_);
  return finished_;
}

Tick LiveFeed::watermark() const {
  MutexLock lock(mu_);
  return watermark_;
}

std::pair<Tick, Tick> LiveFeed::timeRange() const {
  MutexLock lock(mu_);
  return {totalStart_, totalEnd_};
}

}  // namespace ute
