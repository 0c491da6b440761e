#include "server/protocol.h"

#include "support/errors.h"

namespace ute {

const char* errorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kBadVersion: return "bad-version";
    case ErrorCode::kBadTrace: return "bad-trace";
    case ErrorCode::kBadWindow: return "bad-window";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

namespace {

void putOpcode(ByteWriter& w, Opcode op) {
  w.u8(static_cast<std::uint8_t>(op));
}

/// Span-based so callers serialize straight from a shared frame or a
/// WindowResult without assembling a temporary SlogFrameData. A row
/// connection gets the exact v1 layout; a columnar connection gets a
/// u32 blob length + the v2 columnar frame payload.
void putFrameData(ByteWriter& w, std::span<const SlogInterval> intervals,
                  std::span<const SlogArrow> arrows,
                  FrameEncoding enc = FrameEncoding::kRow) {
  if (enc == FrameEncoding::kColumnar) {
    // Encoded in place; the u32 length is patched once it is known.
    const std::size_t lengthAt = w.size();
    w.u32(0);
    encodeColumnarFrame(intervals, arrows, w.buffer());
    w.patchU32(lengthAt, static_cast<std::uint32_t>(w.size() - lengthAt - 4));
    return;
  }
  w.u32(static_cast<std::uint32_t>(intervals.size()));
  for (const SlogInterval& r : intervals) putRowInterval(w, r);
  w.u32(static_cast<std::uint32_t>(arrows.size()));
  for (const SlogArrow& a : arrows) putRowArrow(w, a);
}

SlogFrameData takeFrameData(ByteReader& r,
                            FrameEncoding enc = FrameEncoding::kRow) {
  SlogFrameData data;
  if (enc == FrameEncoding::kColumnar) {
    const std::uint32_t blobLen = r.u32();
    decodeColumnarFrame(r.bytes(blobLen), data, " (wire frame)");
    return data;
  }
  const std::uint32_t nIntervals = takeCount(r, kRowIntervalBytes);
  data.intervals.reserve(nIntervals);
  for (std::uint32_t i = 0; i < nIntervals; ++i) {
    data.intervals.push_back(takeRowInterval(r));
  }
  const std::uint32_t nArrows = takeCount(r, kRowArrowBytes);
  data.arrows.reserve(nArrows);
  for (std::uint32_t i = 0; i < nArrows; ++i) {
    data.arrows.push_back(takeRowArrow(r));
  }
  return data;
}

/// Checks the leading status byte; on error consumes the error body and
/// throws. Returns a reader positioned at the success body.
ByteReader openReply(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  const auto status = static_cast<ErrorCode>(r.u8());
  if (status != ErrorCode::kOk) {
    throw ServiceError(status, ByteReader(payload.subspan(1)).lstring());
  }
  return r;
}

}  // namespace

ByteWriter okHeader() {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(ErrorCode::kOk));
  return w;
}

// --- request encoding -------------------------------------------------------

ByteWriter encodeHelloRequest(std::uint8_t accept) {
  ByteWriter w;
  putOpcode(w, Opcode::kHello);
  w.u32(kQueryMagic);
  w.u16(kProtocolVersion);
  w.u8(accept);
  return w;
}

ByteWriter encodeLegacyHelloRequest() {
  ByteWriter w;
  putOpcode(w, Opcode::kHello);
  w.u32(kQueryMagic);
  w.u16(kMinProtocolVersion);
  return w;
}

ByteWriter encodeTraceRequest(Opcode op, std::uint32_t traceId) {
  ByteWriter w;
  putOpcode(w, op);
  w.u32(traceId);
  return w;
}

ByteWriter encodeWindowRequest(std::uint32_t traceId,
                               const WindowQuery& query) {
  ByteWriter w;
  putOpcode(w, Opcode::kWindow);
  w.u32(traceId);
  w.u64(query.t0);
  w.u64(query.t1);
  w.u8(query.node ? 1 : 0);
  w.i32(query.node.value_or(0));
  w.u8(query.thread ? 1 : 0);
  w.i32(query.thread.value_or(0));
  w.u32(static_cast<std::uint32_t>(query.states.size()));
  for (std::uint32_t s : query.states) w.u32(s);
  return w;
}

ByteWriter encodeSummaryRequest(std::uint32_t traceId, Tick t0, Tick t1) {
  ByteWriter w;
  putOpcode(w, Opcode::kSummary);
  w.u32(traceId);
  w.u64(t0);
  w.u64(t1);
  return w;
}

ByteWriter encodeFrameAtRequest(std::uint32_t traceId, Tick t) {
  ByteWriter w;
  putOpcode(w, Opcode::kFrameAt);
  w.u32(traceId);
  w.u64(t);
  return w;
}

ByteWriter encodeStatsRequest() {
  ByteWriter w;
  putOpcode(w, Opcode::kStats);
  return w;
}

ByteWriter encodeShutdownRequest() {
  ByteWriter w;
  putOpcode(w, Opcode::kShutdown);
  return w;
}

ByteWriter encodeMetricsRequest(std::uint32_t traceId, std::uint32_t bins) {
  ByteWriter w;
  putOpcode(w, Opcode::kGetMetrics);
  w.u32(traceId);
  w.u32(bins);
  return w;
}

ByteWriter encodeTailFramesRequest(std::uint32_t traceId,
                                   std::uint64_t cursor,
                                   std::uint32_t maxFrames) {
  ByteWriter w;
  putOpcode(w, Opcode::kTailFrames);
  w.u32(traceId);
  w.u64(cursor);
  w.u32(maxFrames);
  return w;
}

ByteWriter encodeTailMetricsRequest(std::uint32_t traceId) {
  ByteWriter w;
  putOpcode(w, Opcode::kTailMetrics);
  w.u32(traceId);
  return w;
}

ByteWriter encodeListTracesRequest() {
  ByteWriter w;
  putOpcode(w, Opcode::kListTraces);
  return w;
}

ByteWriter encodeAggregateMetricsRequest(const std::string& pattern,
                                         std::uint32_t bins) {
  ByteWriter w;
  putOpcode(w, Opcode::kAggregateMetrics);
  w.lstring(pattern);
  w.u32(bins);
  return w;
}

ByteWriter encodeCompareTracesRequest(std::uint32_t idA, std::uint32_t idB,
                                      std::uint32_t bins) {
  ByteWriter w;
  putOpcode(w, Opcode::kCompareTraces);
  w.u32(idA);
  w.u32(idB);
  w.u32(bins);
  return w;
}

ByteWriter encodeAddBackendRequest(const std::string& name,
                                   const std::string& hostPort) {
  ByteWriter w;
  putOpcode(w, Opcode::kAddBackend);
  w.lstring(name);
  w.lstring(hostPort);
  return w;
}

ByteWriter encodeRemoveBackendRequest(const std::string& name) {
  ByteWriter w;
  putOpcode(w, Opcode::kRemoveBackend);
  w.lstring(name);
  return w;
}

// --- response decoding ------------------------------------------------------

HelloReply decodeHelloReply(std::span<const std::uint8_t> payload) {
  ByteReader r = openReply(payload);
  HelloReply reply;
  reply.version = r.u16();
  reply.traceCount = r.u32();
  // A v1 server's reply ends here; a v2 reply appends the chosen
  // frame encoding.
  if (reply.version >= 2 && !r.atEnd()) {
    reply.frameEncoding = static_cast<FrameEncoding>(r.u8());
  }
  return reply;
}

TraceInfo decodeInfoReply(std::span<const std::uint8_t> payload) {
  ByteReader r = openReply(payload);
  TraceInfo info;
  info.path = r.lstring();
  info.totalStart = r.u64();
  info.totalEnd = r.u64();
  info.frames = r.u32();
  info.states = r.u32();
  info.threads = r.u32();
  return info;
}

std::vector<SlogStateDef> decodeStatesReply(
    std::span<const std::uint8_t> payload) {
  ByteReader r = openReply(payload);
  const std::uint32_t count = takeCount(r, kStateDefMinBytes);
  std::vector<SlogStateDef> states;
  states.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    states.push_back(takeStateDef(r));
  }
  return states;
}

std::vector<ThreadEntry> decodeThreadsReply(
    std::span<const std::uint8_t> payload) {
  ByteReader r = openReply(payload);
  const std::uint32_t count = takeCount(r, kThreadEntryBytes);
  std::vector<ThreadEntry> threads;
  threads.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    threads.push_back(takeThreadEntry(r));
  }
  return threads;
}

SlogPreview decodePreviewReply(std::span<const std::uint8_t> payload) {
  ByteReader r = openReply(payload);
  SlogPreview preview = takePreviewHead(r);
  takePreviewRows(r, r.u32(), preview);
  return preview;
}

WindowResult decodeWindowReply(std::span<const std::uint8_t> payload,
                               FrameEncoding enc) {
  ByteReader r = openReply(payload);
  WindowResult result;
  result.t0 = r.u64();
  result.t1 = r.u64();
  SlogFrameData data = takeFrameData(r, enc);
  result.intervals = std::move(data.intervals);
  result.arrows = std::move(data.arrows);
  return result;
}

FrameReply decodeFrameAtReply(std::span<const std::uint8_t> payload,
                              FrameEncoding enc) {
  ByteReader r = openReply(payload);
  FrameReply reply;
  reply.frameIdx = r.u32();
  reply.entry = takeFrameIndexEntry(r);
  reply.data = takeFrameData(r, enc);
  return reply;
}

std::vector<SummaryEntry> decodeSummaryReply(
    std::span<const std::uint8_t> payload) {
  ByteReader r = openReply(payload);
  const std::uint32_t count = takeCount(r, 12);  // u32 state id, f64 ns
  std::vector<SummaryEntry> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    SummaryEntry e;
    e.stateId = r.u32();
    e.ns = r.f64();
    entries.push_back(e);
  }
  return entries;
}

ServiceStats decodeStatsReply(std::span<const std::uint8_t> payload) {
  ByteReader r = openReply(payload);
  ServiceStats stats;
  stats.cache.hits = r.u64();
  stats.cache.misses = r.u64();
  stats.cache.evictions = r.u64();
  stats.cache.bytes = r.u64();
  stats.cache.entries = r.u64();
  stats.pool.accepted = r.u64();
  stats.pool.rejected = r.u64();
  stats.pool.executed = r.u64();
  return stats;
}

void decodeOkReply(std::span<const std::uint8_t> payload) {
  openReply(payload);
}

MetricsStore decodeMetricsReply(std::span<const std::uint8_t> payload) {
  ByteReader r = openReply(payload);
  return MetricsStore::decode(payload.subspan(r.pos()));
}

TailFramesReply decodeTailFramesReply(std::span<const std::uint8_t> payload,
                                      FrameEncoding enc) {
  ByteReader r = openReply(payload);
  TailFramesReply reply;
  reply.nextCursor = r.u64();
  reply.finished = r.u8() != 0;
  reply.watermark = r.u64();
  // Each frame takes its index entry and at least a u32 length or
  // two u32 counts.
  const std::uint32_t count = takeCount(r, kSlogIndexEntryBytesV1 + 4);
  reply.frames.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TailFrame f;
    f.entry = takeFrameIndexEntry(r);
    f.data = takeFrameData(r, enc);
    reply.frames.push_back(std::move(f));
  }
  return reply;
}

TailMetricsReply decodeTailMetricsReply(
    std::span<const std::uint8_t> payload) {
  ByteReader r = openReply(payload);
  TailMetricsReply reply;
  reply.finished = r.u8() != 0;
  reply.watermark = r.u64();
  reply.sealedBins = r.u32();
  const std::span<const std::uint8_t> rest = payload.subspan(r.pos());
  reply.blob.assign(rest.begin(), rest.end());
  if (!reply.blob.empty()) reply.store = MetricsStore::decode(reply.blob);
  return reply;
}

namespace {

void putDistribution(ByteWriter& w, const Distribution& d) {
  w.f64(d.min);
  w.f64(d.max);
  w.f64(d.mean);
  w.f64(d.p50);
  w.f64(d.p99);
}

Distribution takeDistribution(ByteReader& r) {
  Distribution d;
  d.min = r.f64();
  d.max = r.f64();
  d.mean = r.f64();
  d.p50 = r.f64();
  d.p99 = r.f64();
  return d;
}

}  // namespace

ByteWriter encodeListTracesReply(const std::vector<FedTraceEntry>& entries) {
  ByteWriter w = okHeader();
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const FedTraceEntry& e : entries) {
    w.u32(e.globalId);
    w.lstring(e.backend);
    w.lstring(e.name);
    w.u8(e.live ? 1 : 0);
    w.u64(e.totalStart);
    w.u64(e.totalEnd);
    w.u32(e.frames);
    w.u64(e.generation);
  }
  return w;
}

std::vector<FedTraceEntry> decodeListTracesReply(
    std::span<const std::uint8_t> payload) {
  ByteReader r = openReply(payload);
  const std::uint32_t count = takeCount(r, 37);  // fixed fields, two lstrings
  std::vector<FedTraceEntry> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    FedTraceEntry e;
    e.globalId = r.u32();
    e.backend = r.lstring();
    e.name = r.lstring();
    e.live = r.u8() != 0;
    e.totalStart = r.u64();
    e.totalEnd = r.u64();
    e.frames = r.u32();
    e.generation = r.u64();
    entries.push_back(std::move(e));
  }
  return entries;
}

ByteWriter encodeAggregateReply(const AggregateReply& reply) {
  ByteWriter w = okHeader();
  w.u32(static_cast<std::uint32_t>(reply.runs.size()));
  for (const AggregateRun& run : reply.runs) {
    w.u32(run.globalId);
    w.lstring(run.backend);
    w.lstring(run.name);
    w.f64(run.commFraction);
    w.f64(run.loadImbalance);
    w.f64(run.lateSenderFraction);
  }
  putDistribution(w, reply.commFraction);
  putDistribution(w, reply.loadImbalance);
  putDistribution(w, reply.lateSenderFraction);
  return w;
}

AggregateReply decodeAggregateReply(std::span<const std::uint8_t> payload) {
  ByteReader r = openReply(payload);
  AggregateReply reply;
  const std::uint32_t count = takeCount(r, 32);  // fixed fields, two lstrings
  reply.runs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    AggregateRun run;
    run.globalId = r.u32();
    run.backend = r.lstring();
    run.name = r.lstring();
    run.commFraction = r.f64();
    run.loadImbalance = r.f64();
    run.lateSenderFraction = r.f64();
    reply.runs.push_back(std::move(run));
  }
  reply.commFraction = takeDistribution(r);
  reply.loadImbalance = takeDistribution(r);
  reply.lateSenderFraction = takeDistribution(r);
  return reply;
}

ByteWriter encodeCompareReply(const CompareReply& reply) {
  ByteWriter w = okHeader();
  w.u32(reply.bins);
  w.f64(reply.maxAbsCommDelta);
  w.f64(reply.maxAbsImbalanceDelta);
  for (double v : reply.commDelta) w.f64(v);
  for (double v : reply.imbalanceDelta) w.f64(v);
  return w;
}

CompareReply decodeCompareReply(std::span<const std::uint8_t> payload) {
  ByteReader r = openReply(payload);
  CompareReply reply;
  reply.bins = takeCount(r, 16);  // two f64 per bin
  reply.maxAbsCommDelta = r.f64();
  reply.maxAbsImbalanceDelta = r.f64();
  reply.commDelta.reserve(reply.bins);
  reply.imbalanceDelta.reserve(reply.bins);
  for (std::uint32_t i = 0; i < reply.bins; ++i) {
    reply.commDelta.push_back(r.f64());
  }
  for (std::uint32_t i = 0; i < reply.bins; ++i) {
    reply.imbalanceDelta.push_back(r.f64());
  }
  return reply;
}

// --- server dispatch --------------------------------------------------------

std::vector<std::uint8_t> encodeErrorReply(ErrorCode code,
                                           const std::string& message) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(code));
  w.lstring(message);
  return w.take();
}

std::vector<std::uint8_t> answerHello(ByteReader& r, std::uint32_t traceCount,
                                      ConnectionContext& ctx,
                                      const std::string& speaker) {
  const std::uint32_t magic = r.u32();
  const std::uint16_t version = r.u16();
  if (magic != kQueryMagic || version < kMinProtocolVersion ||
      version > kProtocolVersion) {
    return encodeErrorReply(ErrorCode::kBadVersion,
                            speaker + " speaks protocol versions " +
                                std::to_string(kMinProtocolVersion) + ".." +
                                std::to_string(kProtocolVersion));
  }
  if (version < 2) {
    // A v1 client: reply with the exact v1 bytes and keep this
    // connection's frames row-encoded.
    ctx.frameEncoding = FrameEncoding::kRow;
    ByteWriter w = okHeader();
    w.u16(version);
    w.u32(traceCount);
    return w.take();
  }
  // v2: the client advertises the encodings it accepts; the server
  // picks the best one it also supports (columnar when offered).
  const std::uint8_t accept = r.atEnd() ? std::uint8_t{0b01} : r.u8();
  const std::uint8_t usable = accept & kSupportedFrameEncodings;
  if (usable == 0) {
    return encodeErrorReply(ErrorCode::kBadVersion,
                            "no mutually supported frame encoding");
  }
  ctx.frameEncoding =
      (usable & (1u << static_cast<unsigned>(FrameEncoding::kColumnar)))
          ? FrameEncoding::kColumnar
          : FrameEncoding::kRow;
  ByteWriter w = okHeader();
  w.u16(kProtocolVersion);
  w.u32(traceCount);
  w.u8(static_cast<std::uint8_t>(ctx.frameEncoding));
  return w.take();
}

ByteWriter encodeStatsReply(const CacheStats& cache,
                            const ThreadPool::Stats& pool) {
  ByteWriter w = okHeader();
  w.u64(cache.hits);
  w.u64(cache.misses);
  w.u64(cache.evictions);
  w.u64(cache.bytes);
  w.u64(cache.entries);
  w.u64(pool.accepted);
  w.u64(pool.rejected);
  w.u64(pool.executed);
  return w;
}

namespace {

RequestOutcome dispatch(TraceService& service,
                        std::span<const std::uint8_t> payload,
                        ConnectionContext& ctx) {
  ByteReader r(payload);
  const auto op = static_cast<Opcode>(r.u8());
  RequestOutcome outcome;

  switch (op) {
    case Opcode::kHello: {
      outcome.response = answerHello(r, service.traceCount(), ctx, "server");
      return outcome;
    }
    case Opcode::kInfo: {
      const std::uint32_t traceId = r.u32();
      ByteWriter w = okHeader();
      if (service.isLive(traceId)) {
        const LiveFeed& feed = service.liveFeed(traceId);
        const auto [start, end] = feed.timeRange();
        w.lstring(service.traceName(traceId));
        w.u64(start);
        w.u64(end);
        w.u32(static_cast<std::uint32_t>(feed.frameCount()));
        w.u32(static_cast<std::uint32_t>(feed.states().size()));
        w.u32(static_cast<std::uint32_t>(feed.threads().size()));
      } else {
        const SlogReader& reader = service.trace(traceId);
        w.lstring(reader.path());
        w.u64(reader.totalStart());
        w.u64(reader.totalEnd());
        w.u32(static_cast<std::uint32_t>(reader.frameIndex().size()));
        w.u32(static_cast<std::uint32_t>(reader.states().size()));
        w.u32(static_cast<std::uint32_t>(reader.threads().size()));
      }
      outcome.response = w.take();
      return outcome;
    }
    case Opcode::kStates: {
      const std::uint32_t traceId = r.u32();
      const std::vector<SlogStateDef> liveStates =
          service.isLive(traceId) ? service.liveFeed(traceId).states()
                                  : std::vector<SlogStateDef>{};
      const std::vector<SlogStateDef>& states =
          service.isLive(traceId) ? liveStates
                                  : service.trace(traceId).states();
      ByteWriter w = okHeader();
      w.u32(static_cast<std::uint32_t>(states.size()));
      for (const SlogStateDef& s : states) putStateDef(w, s);
      outcome.response = w.take();
      return outcome;
    }
    case Opcode::kThreads: {
      const std::uint32_t traceId = r.u32();
      const std::vector<ThreadEntry> liveThreads =
          service.isLive(traceId) ? service.liveFeed(traceId).threads()
                                  : std::vector<ThreadEntry>{};
      const std::vector<ThreadEntry>& threads =
          service.isLive(traceId) ? liveThreads
                                  : service.trace(traceId).threads();
      ByteWriter w = okHeader();
      w.u32(static_cast<std::uint32_t>(threads.size()));
      for (const ThreadEntry& t : threads) putThreadEntry(w, t);
      outcome.response = w.take();
      return outcome;
    }
    case Opcode::kPreview: {
      const SlogReader& reader = service.trace(r.u32());
      const SlogPreview& p = reader.preview();
      ByteWriter w = okHeader();
      putPreviewHead(w, p);
      w.u32(static_cast<std::uint32_t>(p.perStateBinTime.size()));
      putPreviewRows(w, p);
      outcome.response = w.take();
      return outcome;
    }
    case Opcode::kWindow: {
      const std::uint32_t traceId = r.u32();
      WindowQuery query;
      query.t0 = r.u64();
      query.t1 = r.u64();
      const bool hasNode = r.u8() != 0;
      const NodeId node = r.i32();
      if (hasNode) query.node = node;
      const bool hasThread = r.u8() != 0;
      const LogicalThreadId thread = r.i32();
      if (hasThread) query.thread = thread;
      const std::uint32_t nStates = takeCount(r, 4);
      query.states.reserve(nStates);
      for (std::uint32_t i = 0; i < nStates; ++i) {
        query.states.push_back(r.u32());
      }
      const WindowResult result = service.window(traceId, query);
      ByteWriter w = okHeader();
      w.u64(result.t0);
      w.u64(result.t1);
      putFrameData(w, result.intervals, result.arrows, ctx.frameEncoding);
      outcome.response = w.take();
      return outcome;
    }
    case Opcode::kFrameAt: {
      const std::uint32_t traceId = r.u32();
      const Tick t = r.u64();
      const FrameAtResult result = service.frameAt(traceId, t);
      ByteWriter w = okHeader();
      w.u32(static_cast<std::uint32_t>(result.frameIdx));
      putFrameIndexEntry(w, result.entry);
      putFrameData(w, result.frame->intervals, result.frame->arrows,
                   ctx.frameEncoding);
      outcome.response = w.take();
      return outcome;
    }
    case Opcode::kSummary: {
      const std::uint32_t traceId = r.u32();
      const Tick t0 = r.u64();
      const Tick t1 = r.u64();
      const std::vector<SummaryEntry> entries =
          service.summary(traceId, t0, t1);
      ByteWriter w = okHeader();
      w.u32(static_cast<std::uint32_t>(entries.size()));
      for (const SummaryEntry& e : entries) {
        w.u32(e.stateId);
        w.f64(e.ns);
      }
      outcome.response = w.take();
      return outcome;
    }
    case Opcode::kStats: {
      outcome.response =
          encodeStatsReply(service.cache().stats(), service.pool().stats())
              .take();
      return outcome;
    }
    case Opcode::kShutdown: {
      outcome.response = okHeader().take();
      outcome.shutdown = true;
      return outcome;
    }
    case Opcode::kGetMetrics: {
      const std::uint32_t traceId = r.u32();
      const std::uint32_t bins = r.u32();
      const TraceService::MetricsBlob blob = service.metrics(traceId, bins);
      if (1 + blob->size() > kMaxMessageBytes) {
        throw ServiceError(ErrorCode::kBadRequest,
                           "metrics reply exceeds the message cap; request "
                           "fewer bins");
      }
      ByteWriter w = okHeader();
      w.bytes(*blob);
      outcome.response = w.take();
      return outcome;
    }
    case Opcode::kTailFrames: {
      const std::uint32_t traceId = r.u32();
      const std::uint64_t cursor = r.u64();
      const std::uint32_t maxFrames = r.u32();
      const LiveFeed::TailFrames tail =
          service.tailFrames(traceId, cursor, maxFrames);
      ByteWriter w = okHeader();
      w.u64(tail.nextCursor);
      w.u8(tail.finished ? 1 : 0);
      w.u64(tail.watermark);
      w.u32(static_cast<std::uint32_t>(tail.frames.size()));
      for (const auto& [entry, data] : tail.frames) {
        putFrameIndexEntry(w, entry);
        putFrameData(w, data->intervals, data->arrows, ctx.frameEncoding);
      }
      if (w.size() > kMaxMessageBytes) {
        throw ServiceError(
            ErrorCode::kBadRequest,
            "tail reply exceeds the message cap; request fewer frames");
      }
      outcome.response = w.take();
      return outcome;
    }
    case Opcode::kTailMetrics: {
      const std::uint32_t traceId = r.u32();
      const LiveFeed::TailMetrics tail = service.tailMetrics(traceId);
      ByteWriter w = okHeader();
      w.u8(tail.finished ? 1 : 0);
      w.u64(tail.watermark);
      w.u32(tail.sealedBins);
      w.bytes(tail.blob);
      if (w.size() > kMaxMessageBytes) {
        throw ServiceError(ErrorCode::kBadRequest,
                           "metrics reply exceeds the message cap");
      }
      outcome.response = w.take();
      return outcome;
    }
    case Opcode::kListTraces:
    case Opcode::kAggregateMetrics:
    case Opcode::kCompareTraces:
    case Opcode::kAddBackend:
    case Opcode::kRemoveBackend: {
      // Federation ops are answered by uterouter; a plain backend
      // declines them explicitly so a misdirected client gets a clear
      // answer instead of "unknown opcode".
      throw ServiceError(
          ErrorCode::kBadRequest,
          "federation op " + std::to_string(static_cast<unsigned>(op)) +
              " requires a uterouter, not a plain backend");
    }
  }
  throw ServiceError(
      ErrorCode::kBadRequest,
      "unknown opcode " + std::to_string(static_cast<unsigned>(payload[0])));
}

}  // namespace

RequestOutcome processRequest(TraceService& service,
                              std::span<const std::uint8_t> payload,
                              ConnectionContext& ctx) {
  return answerRequest(payload,
                       [&] { return dispatch(service, payload, ctx); });
}

RequestOutcome processRequest(TraceService& service,
                              std::span<const std::uint8_t> payload) {
  ConnectionContext ctx;  // row frames, discarded after the call
  return processRequest(service, payload, ctx);
}

}  // namespace ute
