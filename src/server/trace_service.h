// TraceService: the in-process trace-query engine.
//
// Loads one or more SLOG files once (metadata, tables, preview) and then
// answers concurrent queries against them: preview, states, threads,
// frame-at(t), window(t0, t1) with thread/state filters, and per-state
// summary totals. Frames are decoded at most once through the
// frequency-admitted FrameCache, which stores each frame as a shared
// SlogFramePtr with its time index built — so N clients querying the
// same window all share one frame in memory. Raw bytes come through the
// reader's ByteSource (mmap when available), so concurrent workers need
// no per-thread file handles.
//
// A refused query throws ServiceError (server/service_error.h) carrying
// its wire code: kBadTrace, kBadWindow, or kBadRequest (a query a live
// trace cannot answer, a bin count over the cap).
//
// Query methods are thread-safe and synchronous. The embedded ThreadPool
// is where uteserve runs them: the query front end (server/server.h)
// hands each request to pool().trySubmit(), which bounds concurrent
// query CPU and sheds load explicitly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "server/frame_cache.h"
#include "server/service_error.h"
#include "slog/slog_reader.h"
#include "stream/live_feed.h"
#include "support/thread_annotations.h"
#include "support/thread_pool.h"

namespace ute {

struct ServiceOptions {
  std::size_t cacheBytes = 64u << 20;
  std::size_t workers = 4;
  std::size_t queueDepth = 64;
};

/// Bin count used when a GetMetrics request passes bins = 0.
inline constexpr std::uint32_t kDefaultMetricsBins = 240;
/// Upper bound a request may ask for (keeps one reply well under the
/// protocol's message cap and bounds the cached blob size).
inline constexpr std::uint32_t kMaxMetricsBins = 100000;

/// A window query: absolute tick range plus optional filters. Empty
/// `states` means every state passes.
struct WindowQuery {
  Tick t0 = 0;
  Tick t1 = 0;
  std::optional<NodeId> node;
  std::optional<LogicalThreadId> thread;
  std::vector<std::uint32_t> states;
};

/// Window result semantics (the contract tests and clients rely on):
///   - the query range is clamped to [totalStart, totalEnd];
///   - the frames consulted are exactly those with timeEnd > t0 and
///     timeStart < t1 (a frame merely touching an edge contributes
///     nothing);
///   - pseudo-intervals are merged: only the FIRST consulted frame's
///     restatements are returned (later frames' duplicates dropped);
///   - real intervals are returned unclipped when they overlap the
///     clamped range (end() >= t0 and start <= t1) and pass the filters;
///   - arrows are returned when recvTime >= t0 and sendTime <= t1; the
///     node/thread filters keep an arrow if either endpoint matches;
///     state filters do not apply to arrows.
/// Record order is frame order, then in-frame order — identical to a
/// single-threaded scan of the same frames with a bare SlogReader.
///
/// The frames come from SlogReader::framesOverlapping (two binary
/// searches of the frame index). Within a frame the service tests only
/// the records the frame's time index (slog/frame_time_index.h) says can
/// reach the window; the index is built, and the frame's layout checked,
/// when the frame enters the cache, and a frame that fails the check is
/// read whole. Summary reads the same records.
struct WindowResult {
  Tick t0 = 0;  ///< clamped
  Tick t1 = 0;
  std::vector<SlogInterval> intervals;
  std::vector<SlogArrow> arrows;
};

/// Per-state time in a window: durations clipped to [t0, t1] and summed
/// (pseudo-intervals have zero duration and contribute nothing). Sorted
/// by stateId; zero-total states are omitted.
struct SummaryEntry {
  std::uint32_t stateId = 0;
  double ns = 0;
};

struct FrameAtResult {
  std::size_t frameIdx = 0;
  SlogFrameIndexEntry entry;
  FrameCache::FramePtr frame;
};

class TraceService {
 public:
  /// Opens every path up front; throws (IoError/FormatError/
  /// CorruptFileError) if any file is unusable. With no paths, the only
  /// traces are the live feeds attached afterwards (utestream --serve).
  TraceService(const std::vector<std::string>& slogPaths,
               const ServiceOptions& options = {});
  ~TraceService();

  TraceService(const TraceService&) = delete;
  TraceService& operator=(const TraceService&) = delete;

  /// Registers a live (still-being-written) trace backed by a LiveFeed
  /// (not owned; must outlive the service) and returns its trace id.
  /// Not thread-safe: attach before the first query arrives — the TCP
  /// server attaches in its constructor, before the accept loop starts.
  std::uint32_t attachLiveFeed(const std::string& name, LiveFeed* feed);

  std::uint32_t traceCount() const;
  bool isLive(std::uint32_t traceId) const;
  /// The feed behind a live trace; throws ServiceError for file traces.
  LiveFeed& liveFeed(std::uint32_t traceId) const;
  /// The SLOG path of a file trace, or the live trace's display name.
  const std::string& traceName(std::uint32_t traceId) const;
  /// Metadata access (immutable after construction). Throws ServiceError
  /// for an unknown id (kBadTrace) and for a live trace, which has no
  /// reader (kBadRequest).
  const SlogReader& trace(std::uint32_t traceId) const;

  /// Cached frame fetch (the unit the cache works in). A miss decodes
  /// the frame and builds its time index (indexFrameTimes) in one pass.
  FrameCache::FramePtr frame(std::uint32_t traceId, std::size_t frameIdx);

  WindowResult window(std::uint32_t traceId, const WindowQuery& query);
  std::vector<SummaryEntry> summary(std::uint32_t traceId, Tick t0, Tick t1);
  /// Throws ServiceError (kBadWindow) when no frame contains `t`.
  FrameAtResult frameAt(std::uint32_t traceId, Tick t);

  /// Encoded .utm metrics for a trace, computed lazily on first request
  /// (frames flow through the frame cache, so the scan respects the
  /// cache byte budget) and memoized per (trace, bins). bins = 0 means
  /// kDefaultMetricsBins; values above kMaxMetricsBins throw ServiceError
  /// (kBadRequest).
  using MetricsBlob = std::shared_ptr<const std::vector<std::uint8_t>>;
  MetricsBlob metrics(std::uint32_t traceId, std::uint32_t bins = 0);

  /// Follow-the-cursor frame tailing (docs/STREAMING.md). For a live
  /// trace this pages through the feed's sealed frames; for a file trace
  /// it pages through the frame index (finished = true, watermark =
  /// totalEnd), so one client loop handles both. Frames are append-only,
  /// so resuming from the last returned cursor after a disconnect yields
  /// every frame exactly once.
  LiveFeed::TailFrames tailFrames(std::uint32_t traceId, std::uint64_t cursor,
                                  std::uint32_t maxFrames);
  /// The incrementally extended metrics blob of a live trace (bins below
  /// the watermark are final); for a file trace, the default-bins blob
  /// with every bin sealed.
  LiveFeed::TailMetrics tailMetrics(std::uint32_t traceId);

  FrameCache& cache() { return cache_; }
  const FrameCache& cache() const { return cache_; }
  ThreadPool& pool() { return pool_; }
  const ServiceOptions& options() const { return options_; }

 private:
  struct Trace {
    std::unique_ptr<SlogReader> reader;  ///< null for a live trace
    LiveFeed* feed = nullptr;            ///< not owned; null for files
    std::string name;                    ///< live display name
    /// Lazily computed encoded metrics stores, keyed by bin count. The
    /// mutex also serializes the (heavy) first computation per trace.
    Mutex metricsMu;
    std::map<std::uint32_t, MetricsBlob> metricsByBins
        UTE_GUARDED_BY(metricsMu);
  };

  /// The file trace `traceId`; throws for an unknown id or a live trace.
  Trace& traceSlot(std::uint32_t traceId) const;

  ServiceOptions options_;
  std::vector<std::unique_ptr<Trace>> traces_;
  FrameCache cache_;
  ThreadPool pool_;
};

}  // namespace ute
