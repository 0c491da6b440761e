// The live-ingest wire protocol: how a trace producer (a simulator
// node, or utetail following a growing raw-trace file) ships converted
// interval records to a utestream ingest server (docs/STREAMING.md).
//
// Framing is the same u32-length-prefixed scheme as the uteserve query
// protocol (server/tcp.h sendMessage/recvMessage); the payloads are
// disjoint — an ingest session starts with its own magic ("UTEG" vs the
// query protocol's "UTEQ"), so a client that dials the wrong port gets a
// structured kBadVersion reply, not silence.
//
// Every client message is answered with one status reply before the
// client sends the next — and the merge thread withholds a kRecords ack
// while the session's buffered records exceed its byte budget, so the
// ping-pong doubles as explicit backpressure: a producer can never run
// more than one unacknowledged batch ahead of the merge.
//
// Session lifecycle:
//
//   kHello -> kThreads -> {kMarker | kClockPairs | kRecords}* -> kBye
//
// Disconnecting without kBye is an abort: the merge seals the node's
// open states with synthesized end pieces (StreamMerger::abortInput).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "clock/sync.h"
#include "interval/file_writer.h"
#include "support/bytes.h"
#include "support/types.h"

namespace ute {

inline constexpr std::uint32_t kIngestMagic = 0x47455455;  // "UTEG"
inline constexpr std::uint16_t kIngestVersion = 1;

enum class IngestOp : std::uint8_t {
  kHello = 1,
  kThreads = 2,
  kMarker = 3,
  kClockPairs = 4,
  kRecords = 5,
  kBye = 6,
};

enum class IngestStatus : std::uint8_t {
  kOk = 0,
  kBadVersion = 1,    ///< hello magic/version mismatch
  kBadRequest = 2,    ///< unparseable payload, unknown op, op out of order
  kUnknownNode = 3,   ///< hello names a node the run does not expect
  kShuttingDown = 4,  ///< server is stopping; no more input accepted
};

const char* ingestStatusName(IngestStatus status);

/// A nonzero status reply decoded client-side becomes this exception.
class IngestError : public std::runtime_error {
 public:
  IngestError(IngestStatus status, const std::string& message)
      : std::runtime_error(std::string(ingestStatusName(status)) + ": " +
                           message),
        status_(status) {}
  IngestStatus status() const { return status_; }

 private:
  IngestStatus status_;
};

struct IngestHello {
  std::uint32_t magic = kIngestMagic;
  std::uint16_t version = kIngestVersion;
  NodeId node = 0;
  std::uint8_t flags = 0;  ///< reserved; must be zero
};

struct IngestClockPairs {
  /// true: `pairs` is the complete set — apply the exact batch fit and
  /// freeze it. false: feed the windowed online fit.
  bool final = false;
  std::vector<TimestampPair> pairs;
};

// --- producer-side encoding -------------------------------------------------

ByteWriter encodeIngestHello(NodeId node);
ByteWriter encodeIngestThreads(const std::vector<ThreadEntry>& threads);
ByteWriter encodeIngestMarker(std::uint32_t id, const std::string& name);
ByteWriter encodeIngestClockPairs(std::span<const TimestampPair> pairs,
                                  bool final);
/// `bodies` are raw interval-record bodies, ascending end order.
ByteWriter encodeIngestRecords(
    const std::vector<std::vector<std::uint8_t>>& bodies);
ByteWriter encodeIngestBye();

// --- server-side decoding ---------------------------------------------------
// Each checks the leading op byte; malformed payloads throw IngestError
// with kBadRequest (kBadVersion for a hello whose magic/version is off),
// which the session loop converts into a structured error reply.

IngestOp peekIngestOp(std::span<const std::uint8_t> payload);
IngestHello decodeIngestHello(std::span<const std::uint8_t> payload);
std::vector<ThreadEntry> decodeIngestThreads(
    std::span<const std::uint8_t> payload);
std::pair<std::uint32_t, std::string> decodeIngestMarker(
    std::span<const std::uint8_t> payload);
IngestClockPairs decodeIngestClockPairs(std::span<const std::uint8_t> payload);
/// The record bodies, as spans into `payload` (no copy).
std::vector<std::span<const std::uint8_t>> decodeIngestRecords(
    std::span<const std::uint8_t> payload);

// --- status replies ---------------------------------------------------------

std::vector<std::uint8_t> encodeIngestReply(IngestStatus status,
                                            const std::string& message = "");
/// Returns the status; fills `message` (may be null) from error frames.
IngestStatus decodeIngestReply(std::span<const std::uint8_t> payload,
                               std::string* message = nullptr);

}  // namespace ute
