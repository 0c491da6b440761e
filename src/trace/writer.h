// Per-node trace session: the tracing-library side of the unified tracing
// facility (Section 2.1).
//
// Each SMP node owns one TraceSession. Instrumentation points "cut" trace
// records into an in-memory trace buffer; a buffer that would outgrow its
// size is flushed to the node's raw trace file. The buffer is a list of
// fixed 64 KiB blocks taken as records arrive and kept across flushes, so
// a session holds memory for the most it has buffered at once, not for
// its size: one process simulates every node, and a per-node reservation
// is paid once per node. Options control the file name prefix, buffer
// size, which event classes are enabled, and whether tracing starts
// immediately or is turned on later (to trace only a portion of the run,
// substantially reducing trace volume).
//
// The record layout mirrors the paper's cost analysis: a one-word
// hookword, a one-word (32-bit) timestamp, one context word, then payload
// words. Full 64-bit local time is recoverable because the session cuts a
// TimestampWrap record whenever the high 32 bits of local time change.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/bytes.h"
#include "support/file_io.h"
#include "support/types.h"
#include "trace/events.h"
#include "trace/reader.h"

namespace ute {

struct TraceOptions {
  /// Raw trace files are named "<prefix>.<node>.utr".
  std::string filePrefix = "trace";
  /// In-memory trace buffer size; a record that would overflow the
  /// buffer first flushes it to disk.
  std::size_t bufferSizeBytes = 1 << 20;
  /// Bitmask over EventClass values; kControl is implicitly always on.
  std::uint32_t enabledClasses = ~0u;
  /// If false, nothing but control records is cut until traceOn().
  bool startEnabled = true;

  static std::uint32_t classBit(EventClass c) {
    return 1u << static_cast<std::uint32_t>(c);
  }
};

/// Statistics a session keeps about itself (exposed for tests and the
/// trace-cost benchmark).
struct TraceSessionStats {
  std::uint64_t eventsCut = 0;
  std::uint64_t eventsSuppressed = 0;  // disabled class or tracing off
  std::uint64_t bytesWritten = 0;
  std::uint64_t bufferFlushes = 0;
  std::uint64_t wrapRecords = 0;
};

class TraceSession {
 public:
  /// Opens "<prefix>.<node>.utr" and writes the file header. The
  /// NodeInfo control record is cut at `initialLocalTs` (the node's
  /// local clock reading at trace start).
  TraceSession(const TraceOptions& options, NodeId node, int cpuCount,
               Tick initialLocalTs = 0);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Cuts one record. `localTs` is the node-local clock reading in ns and
  /// must be non-decreasing across calls. Payload is already encoded
  /// little-endian by the caller (see payload helpers below).
  void cut(EventType type, std::uint8_t flags, CpuId cpu,
           LogicalThreadId ltid, Tick localTs,
           std::span<const std::uint8_t> payload);

  /// Convenience overload for payload built in a ByteWriter.
  void cut(EventType type, std::uint8_t flags, CpuId cpu,
           LogicalThreadId ltid, Tick localTs, const ByteWriter& payload) {
    cut(type, flags, cpu, ltid, localTs, payload.view());
  }

  /// Mirrors every record that passes the enablement test to `sink` as
  /// a decoded RawEvent, in cut order — the live streaming ingest hook
  /// (src/stream). TimestampWrap bookkeeping records are not mirrored
  /// (the sink's localTs is already full 64-bit time, exactly like
  /// TraceFileReader's reconstruction). The payload span is only valid
  /// for the duration of the call.
  using EventSink = std::function<void(const RawEvent&)>;
  void setEventSink(EventSink sink) { sink_ = std::move(sink); }

  /// Delayed-start / section tracing control (Section 2.1).
  void traceOn() { tracingEnabled_ = true; }
  void traceOff() { tracingEnabled_ = false; }
  bool tracingEnabled() const { return tracingEnabled_; }

  /// Flushes the buffer and closes the file; called by the destructor if
  /// not called explicitly.
  void close();

  const std::string& filePath() const { return filePath_; }
  NodeId node() const { return node_; }
  const TraceSessionStats& stats() const { return stats_; }

  static std::string traceFilePath(const std::string& prefix, NodeId node);

 private:
  /// Copies `bytes` behind the buffered ones, spilling into the next
  /// block (allocated on first use) where the current one ends: the path
  /// of a record that does not fit in the rest of its block.
  void append(std::span<const std::uint8_t> bytes);
  void flushBuffer();
  bool classEnabled(EventType type) const;

  static constexpr std::size_t kBlockBytes = 64 << 10;

  TraceOptions options_;
  NodeId node_;
  std::string filePath_;
  FileWriter file_;
  std::vector<std::unique_ptr<std::uint8_t[]>> blocks_;
  std::size_t used_ = 0;  ///< buffered bytes, filling blocks_ in order
  std::uint8_t* tail_ = nullptr;  ///< where the next byte goes
  std::size_t room_ = 0;  ///< bytes left in tail_'s block (0: none open)
  bool tracingEnabled_ = true;
  bool closed_ = false;
  std::uint32_t lastHighWord_ = 0;
  Tick lastLocalTs_ = 0;
  EventSink sink_;
  TraceSessionStats stats_;
};

// --- payload builders --------------------------------------------------
// Encoders for each event type's payload, shared by the simulator-side
// instrumentation and by tests that craft records directly.

/// `oldExited` marks the descheduled thread as terminated (rather than
/// preempted or blocked) so the converter can seal its open states.
ByteWriter payloadThreadDispatch(LogicalThreadId oldTid,
                                 LogicalThreadId newTid,
                                 bool oldExited = false);
ByteWriter payloadThreadInfo(LogicalThreadId ltid, std::int32_t pid,
                             std::int32_t systemTid, TaskId mpiTask,
                             ThreadType type);
ByteWriter payloadGlobalClock(Tick globalNs, Tick localNs);
ByteWriter payloadMarkerDef(std::uint32_t markerId, std::string_view name);
ByteWriter payloadUserMarker(std::uint32_t markerId, std::uint64_t instrAddr);
ByteWriter payloadNodeInfo(NodeId node, std::int32_t cpuCount);
ByteWriter payloadMpiSend(TaskId dest, std::int32_t tag, std::uint32_t bytes,
                          std::uint32_t seqno, std::int32_t comm);
ByteWriter payloadMpiRecvEntry(TaskId src, std::int32_t tag,
                               std::int32_t comm);
ByteWriter payloadMpiRecvExit(TaskId src, std::int32_t tag,
                              std::uint32_t bytes, std::uint32_t seqno);
ByteWriter payloadMpiCollective(std::uint32_t bytes, TaskId root,
                                std::int32_t comm);

}  // namespace ute
