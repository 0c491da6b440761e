#include "server/trace_service.h"

#include <algorithm>

#include "slog/frame_time_index.h"
#include "support/errors.h"

namespace ute {

namespace {

std::uint64_t frameKey(std::uint32_t traceId, std::size_t frameIdx) {
  return (std::uint64_t{traceId} << 32) | static_cast<std::uint32_t>(frameIdx);
}

}  // namespace

TraceService::TraceService(const std::vector<std::string>& slogPaths,
                           const ServiceOptions& options)
    : options_(options),
      cache_(options.cacheBytes),
      pool_(options.workers, options.queueDepth) {
  traces_.reserve(slogPaths.size());
  for (const std::string& path : slogPaths) {
    auto trace = std::make_unique<Trace>();
    trace->reader = std::make_unique<SlogReader>(path);
    traces_.push_back(std::move(trace));
  }
}

TraceService::~TraceService() { pool_.shutdown(); }

std::uint32_t TraceService::attachLiveFeed(const std::string& name,
                                           LiveFeed* feed) {
  if (feed == nullptr) throw UsageError("attachLiveFeed: null feed");
  auto trace = std::make_unique<Trace>();
  trace->feed = feed;
  trace->name = name;
  traces_.push_back(std::move(trace));
  return static_cast<std::uint32_t>(traces_.size() - 1);
}

std::uint32_t TraceService::traceCount() const {
  return static_cast<std::uint32_t>(traces_.size());
}

bool TraceService::isLive(std::uint32_t traceId) const {
  if (traceId >= traces_.size()) {
    throw ServiceError(ErrorCode::kBadTrace,
                       "unknown trace id " + std::to_string(traceId));
  }
  return traces_[traceId]->feed != nullptr;
}

LiveFeed& TraceService::liveFeed(std::uint32_t traceId) const {
  if (!isLive(traceId)) {
    throw ServiceError(ErrorCode::kBadRequest,
                       "trace " + std::to_string(traceId) + " is not live");
  }
  return *traces_[traceId]->feed;
}

const std::string& TraceService::traceName(std::uint32_t traceId) const {
  if (isLive(traceId)) return traces_[traceId]->name;
  return traces_[traceId]->reader->path();
}

const SlogReader& TraceService::trace(std::uint32_t traceId) const {
  return *traceSlot(traceId).reader;
}

TraceService::Trace& TraceService::traceSlot(std::uint32_t traceId) const {
  if (!isLive(traceId)) return *traces_[traceId];
  throw ServiceError(ErrorCode::kBadRequest,
                     "live trace " + std::to_string(traceId) +
                         ": this query needs the finished file; follow "
                         "the run with TailFrames/TailMetrics instead");
}

FrameCache::FramePtr TraceService::frame(std::uint32_t traceId,
                                         std::size_t frameIdx) {
  Trace& slot = traceSlot(traceId);
  const SlogReader& reader = *slot.reader;
  if (frameIdx >= reader.frameIndex().size()) {
    throw ServiceError(ErrorCode::kBadWindow,
                       "SLOG frame index out of range");
  }
  return cache_.getOrLoad(frameKey(traceId, frameIdx), [&] {
    auto data = std::make_shared<SlogFrameData>();
    reader.readFrameInto(frameIdx, *data);
    indexFrameTimes(*data);
    return SlogFramePtr(std::move(data));
  });
}

WindowResult TraceService::window(std::uint32_t traceId,
                                  const WindowQuery& query) {
  const SlogReader& reader = trace(traceId);
  if (query.t1 <= query.t0) {
    throw ServiceError(ErrorCode::kBadWindow,
                       "window end must follow window start");
  }
  WindowResult result;
  result.t0 = std::max(query.t0, reader.totalStart());
  result.t1 = std::min(query.t1, reader.totalEnd());
  if (result.t1 <= result.t0) {
    throw ServiceError(ErrorCode::kBadWindow, "window is outside the run");
  }
  const auto span = reader.framesOverlapping(result.t0, result.t1);
  if (!span) {
    throw ServiceError(ErrorCode::kBadWindow, "window is outside the run");
  }

  const bool allStates = query.states.empty();
  const auto stateWanted = [&](std::uint32_t id) {
    return allStates || std::find(query.states.begin(), query.states.end(),
                                  id) != query.states.end();
  };

  for (std::size_t f = span->first; f <= span->second; ++f) {
    const FrameCache::FramePtr data = frame(traceId, f);
    const auto scan = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const SlogInterval& r = data->intervals[i];
        if (r.pseudo && f != span->first) continue;  // merged restatement
        if (!r.pseudo && (r.end() < result.t0 || r.start > result.t1))
          continue;
        if (query.node && r.node != *query.node) continue;
        if (query.thread && r.thread != *query.thread) continue;
        if (!stateWanted(r.stateId)) continue;
        result.intervals.push_back(r);
      }
    };
    // Later frames' pseudo-intervals are all dropped, so only the first
    // frame reads its pseudo prefix.
    const IntervalReach reach =
        intervalsReaching(*data, result.t0, result.t1);
    if (f == span->first) scan(0, reach.pseudoEnd);
    scan(reach.begin, reach.end);
    for (const SlogArrow& a : data->arrows) {
      if (a.recvTime < result.t0 || a.sendTime > result.t1) continue;
      if (query.node && a.srcNode != *query.node && a.dstNode != *query.node)
        continue;
      if (query.thread && a.srcThread != *query.thread &&
          a.dstThread != *query.thread)
        continue;
      result.arrows.push_back(a);
    }
  }
  return result;
}

std::vector<SummaryEntry> TraceService::summary(std::uint32_t traceId,
                                                Tick t0, Tick t1) {
  const SlogReader& reader = trace(traceId);
  if (t1 <= t0) {
    throw ServiceError(ErrorCode::kBadWindow,
                       "window end must follow window start");
  }
  t0 = std::max(t0, reader.totalStart());
  t1 = std::min(t1, reader.totalEnd());
  if (t1 <= t0) {
    throw ServiceError(ErrorCode::kBadWindow, "window is outside the run");
  }
  const auto span = reader.framesOverlapping(t0, t1);
  // A run has few states, so a flat list sorted once at the end beats a
  // map. Each state's sum adds in record order, as a full scan's does.
  std::vector<SummaryEntry> result;
  if (span) {
    for (std::size_t f = span->first; f <= span->second; ++f) {
      const FrameCache::FramePtr data = frame(traceId, f);
      const IntervalReach reach = intervalsReaching(*data, t0, t1);
      for (std::size_t i = reach.begin; i < reach.end; ++i) {
        const SlogInterval& r = data->intervals[i];
        if (r.pseudo) continue;
        const Tick lo = std::max(r.start, t0);
        const Tick hi = std::min(r.end(), t1);
        if (hi <= lo) continue;
        auto entry = std::find_if(
            result.begin(), result.end(),
            [&](const SummaryEntry& e) { return e.stateId == r.stateId; });
        if (entry == result.end()) {
          entry = result.insert(entry, SummaryEntry{r.stateId, 0.0});
        }
        entry->ns += static_cast<double>(hi - lo);
      }
    }
  }
  std::sort(result.begin(), result.end(),
            [](const SummaryEntry& a, const SummaryEntry& b) {
              return a.stateId < b.stateId;
            });
  return result;
}

TraceService::MetricsBlob TraceService::metrics(std::uint32_t traceId,
                                                std::uint32_t bins) {
  if (isLive(traceId)) {
    // The live blob's shape is fixed by the feed's bin width; a bin
    // count cannot be honored, so any explicit request is refused and
    // the default (0) serves whatever is sealed so far.
    if (bins != 0) {
      throw ServiceError(ErrorCode::kBadRequest,
                         "live trace " + std::to_string(traceId) +
                             ": bin count is fixed while the run is live");
    }
    LiveFeed::TailMetrics tail = liveFeed(traceId).metrics();
    if (tail.blob.empty()) {
      throw ServiceError(ErrorCode::kBadRequest,
                         "live trace " + std::to_string(traceId) +
                             ": no metrics sealed yet");
    }
    return std::make_shared<const std::vector<std::uint8_t>>(
        std::move(tail.blob));
  }
  Trace& slot = traceSlot(traceId);
  if (bins == 0) bins = kDefaultMetricsBins;
  if (bins > kMaxMetricsBins) {
    throw ServiceError(ErrorCode::kBadRequest,
                       "metrics bins capped at " +
                           std::to_string(kMaxMetricsBins));
  }
  MutexLock lock(slot.metricsMu);
  const auto it = slot.metricsByBins.find(bins);
  if (it != slot.metricsByBins.end()) return it->second;

  MetricsOptions options;
  options.bins = bins;
  const MetricsStore store = computeMetrics(
      *slot.reader, options,
      [&](std::size_t frameIdx) { return frame(traceId, frameIdx); });
  auto blob =
      std::make_shared<const std::vector<std::uint8_t>>(store.encode());
  slot.metricsByBins.emplace(bins, blob);
  return blob;
}

LiveFeed::TailFrames TraceService::tailFrames(std::uint32_t traceId,
                                              std::uint64_t cursor,
                                              std::uint32_t maxFrames) {
  if (isLive(traceId)) return liveFeed(traceId).framesFrom(cursor, maxFrames);
  const SlogReader& reader = trace(traceId);
  const auto& index = reader.frameIndex();
  LiveFeed::TailFrames out;
  out.finished = true;
  out.watermark = reader.totalEnd();
  const std::uint64_t total = index.size();
  const std::uint64_t from = std::min<std::uint64_t>(cursor, total);
  const std::uint64_t to =
      maxFrames == 0 ? total : std::min<std::uint64_t>(total, from + maxFrames);
  out.frames.reserve(static_cast<std::size_t>(to - from));
  for (std::uint64_t i = from; i < to; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    out.frames.emplace_back(index[idx], frame(traceId, idx));
  }
  out.nextCursor = to;
  return out;
}

LiveFeed::TailMetrics TraceService::tailMetrics(std::uint32_t traceId) {
  if (isLive(traceId)) return liveFeed(traceId).metrics();
  LiveFeed::TailMetrics out;
  out.finished = true;
  const SlogReader& reader = trace(traceId);
  out.watermark = reader.totalEnd();
  const MetricsBlob blob = metrics(traceId, 0);
  out.blob = *blob;
  out.sealedBins = MetricsStore::decode(out.blob).bins();
  return out;
}

FrameAtResult TraceService::frameAt(std::uint32_t traceId, Tick t) {
  const SlogReader& reader = trace(traceId);
  const auto idx = reader.frameIndexFor(t);
  if (!idx) {
    throw ServiceError(ErrorCode::kBadWindow,
                       "no frame contains t=" + std::to_string(t));
  }
  FrameAtResult result;
  result.frameIdx = *idx;
  result.entry = reader.frameIndex()[*idx];
  result.frame = frame(traceId, *idx);
  return result;
}

}  // namespace ute
