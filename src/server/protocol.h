// The uteserve wire protocol: versioned, length-prefixed binary frames.
//
// Every message on the wire is  u32 payloadLen | payload , little-endian
// like every other format in this project. A request payload starts with
// a u8 opcode; a response payload starts with a u8 status byte — 0 for
// success followed by the op-specific body, nonzero for an error frame
// (the status byte is the ErrorCode, followed by a human-readable
// lstring). The code that detects an error throws it as a ServiceError
// carrying its code (server/service_error.h); answerRequest below is the
// one path from a thrown error to an error frame, for uteserve and
// uterouter alike. The same encode/decode functions back the TCP client,
// the server dispatch loop, and the byte-identity assertions in the
// tests.
// A layout the protocol shares with the files is written and read by
// that layout's one codec: thread entries by putThreadEntry/
// takeThreadEntry (interval/file_writer.h); row records, frame index
// entries, state table entries and the preview body by slog_codec.h.
//
// docs/SERVER.md is the normative description of this protocol; keep the
// two in sync (tests/layout/layout_digest_test.cpp pins the bytes).
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "server/service_error.h"
#include "server/trace_service.h"
#include "slog/slog_codec.h"
#include "support/bytes.h"

namespace ute {

inline constexpr std::uint32_t kQueryMagic = 0x51455455;  // "UTEQ"
/// v2 hello negotiates the frame encoding: the client appends a u8
/// bitmask of FrameEncoding values it accepts, the server picks one and
/// appends its u8 choice to the hello reply. v1 clients (no mask) keep
/// getting row-encoded frames and byte-identical v1 replies.
inline constexpr std::uint16_t kProtocolVersion = 2;
inline constexpr std::uint16_t kMinProtocolVersion = 1;
/// Bit i set = FrameEncoding(i) accepted. This build handles both.
inline constexpr std::uint8_t kSupportedFrameEncodings = 0b11;
/// Sanity cap on one message; anything longer is a protocol violation.
inline constexpr std::uint32_t kMaxMessageBytes = 64u << 20;

/// Per-connection negotiated state, established by the hello exchange
/// and applied to every later frame-carrying message on the connection.
struct ConnectionContext {
  FrameEncoding frameEncoding = FrameEncoding::kRow;
};

enum class Opcode : std::uint8_t {
  kHello = 1,
  kInfo = 2,
  kStates = 3,
  kThreads = 4,
  kPreview = 5,
  kWindow = 6,
  kFrameAt = 7,
  kSummary = 8,
  kStats = 9,
  kShutdown = 10,
  kGetMetrics = 11,
  /// Follow-the-cursor tailing of sealed SLOG frames (docs/STREAMING.md);
  /// works on live and file traces alike.
  kTailFrames = 12,
  /// The incrementally extended live metrics blob + watermark.
  kTailMetrics = 13,
  // Federation ops (docs/FEDERATION.md), answered by uterouter. A plain
  // backend answers them with kBadRequest; the single-trace ops above
  // keep their frozen layouts so a router is byte-transparent for them.
  /// Merged registry view: every trace on every registered backend.
  kListTraces = 14,
  /// Scatter kGetMetrics to backends whose traces match a name pattern,
  /// reduce the per-trace .utm blobs into cross-trace series.
  kAggregateMetrics = 15,
  /// Pairwise binned-metrics delta between two federated traces.
  kCompareTraces = 16,
  /// Admin: add/remove a backend in the router's registry at runtime.
  kAddBackend = 17,
  kRemoveBackend = 18,
};

struct HelloReply {
  std::uint16_t version = 0;
  std::uint32_t traceCount = 0;
  /// The server's frame-encoding choice (v2 replies; v1 implies row).
  FrameEncoding frameEncoding = FrameEncoding::kRow;
};

struct TraceInfo {
  std::string path;
  Tick totalStart = 0;
  Tick totalEnd = 0;
  std::uint32_t frames = 0;
  std::uint32_t states = 0;
  std::uint32_t threads = 0;
};

struct ServiceStats {
  FrameCache::Stats cache;
  ThreadPool::Stats pool;
};

// --- federation wire types --------------------------------------------------
// Defined here (not in src/fed) because they are protocol surface: the
// router encodes them, any client decodes them, and protocol_test.cpp
// pins their layouts alongside the single-trace ops.

/// One row of the merged registry view (kListTraces).
struct FedTraceEntry {
  std::uint32_t globalId = 0;
  std::string backend;  ///< registry name of the owning backend
  std::string name;     ///< trace path/name as the backend reports it
  bool live = false;
  Tick totalStart = 0;
  Tick totalEnd = 0;
  std::uint32_t frames = 0;
  /// Bumped whenever the backend's view of this trace may have changed
  /// (reconnect, re-enumeration); versions the router's reply cache.
  std::uint64_t generation = 0;
};

/// Five-number summary of a per-run series (nearest-rank percentiles).
struct Distribution {
  double min = 0, max = 0, mean = 0, p50 = 0, p99 = 0;
};

/// Whole-run scalars for one trace inside an aggregate.
struct AggregateRun {
  std::uint32_t globalId = 0;
  std::string backend;
  std::string name;
  double commFraction = 0;       ///< Σ mpi / Σ (busy + mpi + io)
  double loadImbalance = 0;      ///< (max - mean) / max of per-task busy
  double lateSenderFraction = 0; ///< Σ late-sender / Σ (busy + mpi + io)
};

struct AggregateReply {
  std::vector<AggregateRun> runs;
  Distribution commFraction;
  Distribution loadImbalance;
  Distribution lateSenderFraction;
};

/// Per-bin deltas (B - A) after rebinning both traces onto a common
/// relative-time axis of `bins` bins.
struct CompareReply {
  std::uint32_t bins = 0;
  double maxAbsCommDelta = 0;
  double maxAbsImbalanceDelta = 0;
  std::vector<double> commDelta;
  std::vector<double> imbalanceDelta;
};

// --- request encoding (client side) ---------------------------------------

/// v2 hello advertising `accept`, a bitmask of FrameEncoding values.
ByteWriter encodeHelloRequest(
    std::uint8_t accept = kSupportedFrameEncodings);
/// The exact v1 hello bytes — what a pre-v2 client sends. Used as the
/// client's fallback against old servers and by the compat tests.
ByteWriter encodeLegacyHelloRequest();
ByteWriter encodeTraceRequest(Opcode op, std::uint32_t traceId);
ByteWriter encodeWindowRequest(std::uint32_t traceId,
                               const WindowQuery& query);
ByteWriter encodeSummaryRequest(std::uint32_t traceId, Tick t0, Tick t1);
ByteWriter encodeFrameAtRequest(std::uint32_t traceId, Tick t);
ByteWriter encodeStatsRequest();
ByteWriter encodeShutdownRequest();
/// bins = 0 asks for the server default (kDefaultMetricsBins).
ByteWriter encodeMetricsRequest(std::uint32_t traceId, std::uint32_t bins);
/// maxFrames = 0 asks for everything from `cursor` on.
ByteWriter encodeTailFramesRequest(std::uint32_t traceId,
                                   std::uint64_t cursor,
                                   std::uint32_t maxFrames);
ByteWriter encodeTailMetricsRequest(std::uint32_t traceId);
// Federation requests (router-only ops).
ByteWriter encodeListTracesRequest();
/// `pattern` is a substring match against "backend/name" (empty matches
/// everything); bins = 0 asks for kDefaultMetricsBins.
ByteWriter encodeAggregateMetricsRequest(const std::string& pattern,
                                         std::uint32_t bins);
ByteWriter encodeCompareTracesRequest(std::uint32_t idA, std::uint32_t idB,
                                      std::uint32_t bins);
ByteWriter encodeAddBackendRequest(const std::string& name,
                                   const std::string& hostPort);
ByteWriter encodeRemoveBackendRequest(const std::string& name);

// --- response decoding (client side) ---------------------------------------
// Each checks the status byte and throws ServiceError on an error frame.

/// Frame-carrying replies decode with the connection's negotiated
/// encoding; everything else is encoding-independent.
HelloReply decodeHelloReply(std::span<const std::uint8_t> payload);
TraceInfo decodeInfoReply(std::span<const std::uint8_t> payload);
std::vector<SlogStateDef> decodeStatesReply(
    std::span<const std::uint8_t> payload);
std::vector<ThreadEntry> decodeThreadsReply(
    std::span<const std::uint8_t> payload);
SlogPreview decodePreviewReply(std::span<const std::uint8_t> payload);
WindowResult decodeWindowReply(std::span<const std::uint8_t> payload,
                               FrameEncoding enc = FrameEncoding::kRow);
/// frameIdx + index entry + frame contents.
struct FrameReply {
  std::uint32_t frameIdx = 0;
  SlogFrameIndexEntry entry;
  SlogFrameData data;
};
FrameReply decodeFrameAtReply(std::span<const std::uint8_t> payload,
                              FrameEncoding enc = FrameEncoding::kRow);
std::vector<SummaryEntry> decodeSummaryReply(
    std::span<const std::uint8_t> payload);
ServiceStats decodeStatsReply(std::span<const std::uint8_t> payload);
void decodeOkReply(std::span<const std::uint8_t> payload);
/// The reply body is one encoded .utm metrics store (docs/ANALYSIS.md);
/// the same bytes utemetrics would write to disk for this trace.
MetricsStore decodeMetricsReply(std::span<const std::uint8_t> payload);

struct TailFrame {
  SlogFrameIndexEntry entry;
  SlogFrameData data;
};
struct TailFramesReply {
  std::uint64_t nextCursor = 0;
  bool finished = false;
  Tick watermark = 0;
  std::vector<TailFrame> frames;
};
TailFramesReply decodeTailFramesReply(std::span<const std::uint8_t> payload,
                                      FrameEncoding enc =
                                          FrameEncoding::kRow);

struct TailMetricsReply {
  bool finished = false;
  Tick watermark = 0;
  /// Bins strictly below the watermark — final, never restated.
  std::uint32_t sealedBins = 0;
  /// The raw encoded .utm bytes (still comparable byte-for-byte against
  /// a utemetrics file) plus the decoded store.
  std::vector<std::uint8_t> blob;
  MetricsStore store;
};
TailMetricsReply decodeTailMetricsReply(std::span<const std::uint8_t> payload);

// Federation replies. The encoders live beside the decoders because the
// router (not TraceService) produces these frames.
ByteWriter encodeListTracesReply(const std::vector<FedTraceEntry>& entries);
std::vector<FedTraceEntry> decodeListTracesReply(
    std::span<const std::uint8_t> payload);
ByteWriter encodeAggregateReply(const AggregateReply& reply);
AggregateReply decodeAggregateReply(std::span<const std::uint8_t> payload);
ByteWriter encodeCompareReply(const CompareReply& reply);
CompareReply decodeCompareReply(std::span<const std::uint8_t> payload);

// --- server dispatch --------------------------------------------------------

struct RequestOutcome {
  std::vector<std::uint8_t> response;
  bool shutdown = false;  ///< payload was a (successful) kShutdown
};

/// Executes one request payload against `service` and produces the
/// response payload. Never throws: every failure becomes an error frame
/// (answerRequest).
/// A kHello request updates `ctx` with the negotiated frame encoding;
/// frame-carrying replies are encoded per `ctx`.
RequestOutcome processRequest(TraceService& service,
                              std::span<const std::uint8_t> payload,
                              ConnectionContext& ctx);
/// Context-free overload: frames are always row-encoded (what a v1
/// connection sees, and what in-process callers get by default).
RequestOutcome processRequest(TraceService& service,
                              std::span<const std::uint8_t> payload);

/// The status byte of a success reply, which the op's body follows.
ByteWriter okHeader();
/// An error frame: the code's status byte, then the message lstring.
std::vector<std::uint8_t> encodeErrorReply(ErrorCode code,
                                           const std::string& message);

/// The one exception-to-reply path of processRequest and
/// RouterService::handle: refuses an empty payload, else returns
/// `dispatch()`. A thrown ServiceError keeps its code and bare message;
/// CorruptFileError is kInternal; FormatError (request bytes that do
/// not parse) and UsageError are kBadRequest; anything else kInternal.
template <typename Dispatch>
RequestOutcome answerRequest(std::span<const std::uint8_t> payload,
                             Dispatch&& dispatch) {
  RequestOutcome outcome;
  if (payload.empty()) {
    outcome.response =
        encodeErrorReply(ErrorCode::kBadRequest, "empty request");
    return outcome;
  }
  try {
    return dispatch();
  } catch (const ServiceError& e) {
    outcome.response = encodeErrorReply(e.code(), e.message());
  } catch (const CorruptFileError& e) {
    outcome.response = encodeErrorReply(ErrorCode::kInternal, e.what());
  } catch (const FormatError& e) {
    outcome.response = encodeErrorReply(ErrorCode::kBadRequest, e.what());
  } catch (const UsageError& e) {
    outcome.response = encodeErrorReply(ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    outcome.response = encodeErrorReply(ErrorCode::kInternal, e.what());
  }
  return outcome;
}

/// Answers a kHello request (`r` is positioned after the opcode) for a
/// server with `traceCount` traces, storing the negotiated frame
/// encoding in `ctx`. `speaker` ("server" or "router") names the replier
/// in the version error. Both dispatchers answer hello through this.
std::vector<std::uint8_t> answerHello(ByteReader& r, std::uint32_t traceCount,
                                      ConnectionContext& ctx,
                                      const std::string& speaker);

/// The kStats reply: a frame cache's counters and a worker pool's.
ByteWriter encodeStatsReply(const CacheStats& cache,
                            const ThreadPool::Stats& pool);

}  // namespace ute
