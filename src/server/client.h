// TraceClient: the client-side library for the uteserve protocol.
//
// Connects, performs the version handshake, and exposes one blocking
// method per opcode, returning the same structs the in-process
// TraceService API uses. Error frames surface as ServiceError (with the
// wire ErrorCode); transport failures as IoError. Not thread-safe: one
// TraceClient per thread (the protocol is strictly request/response per
// connection).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "server/tcp.h"
#include "support/cli.h"

namespace ute {

/// Connection policy shared by every consumer of the protocol client —
/// the CLI tools, the federation router's backend connections, and
/// tests. All timeouts are milliseconds; 0 disables the bound.
struct ClientOptions {
  /// Bound on the TCP connect itself (0 = kernel default, minutes).
  int connectTimeoutMs = 5000;
  /// Bound on any single response read (SO_RCVTIMEO; 0 = unbounded).
  /// Safe for tail ops too: the server answers them at once with
  /// whatever is sealed, and the client polls again.
  int recvTimeoutMs = 0;
  /// Extra connect+hello attempts after the first failure. Transport
  /// errors (IoError) retry; protocol errors (ServiceError) never do.
  int retries = 2;
  /// Exponential backoff between attempts: base << attempt, capped.
  int backoffBaseMs = 50;
  int backoffMaxMs = 1000;
  /// FrameEncoding bitmask advertised in hello. The federation router
  /// narrows this to exactly the client-side encoding so relayed reply
  /// bytes match a direct connection bit-for-bit.
  std::uint8_t acceptEncodings = kSupportedFrameEncodings;
};

/// Backoff delay before retry number `attempt` (0-based), bounded by
/// `backoffMaxMs`. The router's proxy loop (src/fed/router_service.cpp)
/// runs on this schedule too, over its backend link's ClientOptions.
int backoffDelayMs(const ClientOptions& options, int attempt);

class TraceClient {
 public:
  /// Connects and completes the hello handshake (throws ServiceError on
  /// a version mismatch, IoError if the server stays unreachable across
  /// the configured retries).
  TraceClient(const std::string& host, std::uint16_t port);
  TraceClient(const std::string& host, std::uint16_t port,
              const ClientOptions& options);

  std::uint32_t traceCount() const { return traceCount_; }
  /// The frame encoding negotiated in hello (columnar against a v2
  /// server, row against a v1 server).
  FrameEncoding frameEncoding() const { return frameEncoding_; }

  TraceInfo info(std::uint32_t traceId);
  std::vector<SlogStateDef> states(std::uint32_t traceId);
  std::vector<ThreadEntry> threads(std::uint32_t traceId);
  SlogPreview preview(std::uint32_t traceId);
  WindowResult window(std::uint32_t traceId, const WindowQuery& query);
  FrameReply frameAt(std::uint32_t traceId, Tick t);
  std::vector<SummaryEntry> summary(std::uint32_t traceId, Tick t0, Tick t1);
  /// Time-resolved metrics store (bins = 0: server default). The server
  /// computes it lazily on first request and caches the encoded bytes.
  MetricsStore metrics(std::uint32_t traceId, std::uint32_t bins = 0);
  /// Sealed frames from `cursor` on (docs/STREAMING.md). Works on live
  /// and file traces; resuming from the returned nextCursor after a
  /// reconnect yields every sealed frame exactly once.
  TailFramesReply tailFrames(std::uint32_t traceId, std::uint64_t cursor,
                             std::uint32_t maxFrames = 0);
  /// The live (or finished) metrics blob plus watermark/sealed-bin info.
  TailMetricsReply tailMetrics(std::uint32_t traceId);
  ServiceStats stats();
  /// Asks the server to stop accepting and shut down.
  void shutdownServer();

  // Federation ops — only a uterouter answers these; a plain backend
  // returns kBadRequest (surfaced here as ServiceError).
  std::vector<FedTraceEntry> listTraces();
  AggregateReply aggregateMetrics(const std::string& pattern,
                                  std::uint32_t bins = 0);
  CompareReply compareTraces(std::uint32_t idA, std::uint32_t idB,
                             std::uint32_t bins = 0);
  void addBackend(const std::string& name, const std::string& hostPort);
  void removeBackend(const std::string& name);

  /// Sends a raw request payload and returns the raw response payload —
  /// the byte-identity hook the integration tests compare against a
  /// local processRequest() on the same SLOG file.
  std::vector<std::uint8_t> roundTrip(std::span<const std::uint8_t> payload);

 private:
  /// One connect + hello. Throws IoError / ServiceError; on kBadVersion
  /// falls back to the exact v1 handshake before giving up.
  void connectAndHello();

  std::string host_;
  std::uint16_t port_ = 0;
  ClientOptions options_;
  TcpSocket socket_;
  std::uint32_t traceCount_ = 0;
  FrameEncoding frameEncoding_ = FrameEncoding::kRow;
};

/// The metrics store a tool's options name, for uteview and utemetrics:
/// --utm FILE, else a server or router (CliParser::endpoint, --trace;
/// --bins, default 0 = the server's default), else --slog FILE computed
/// here (--bins, default 240; --jobs, default 0 = one per core). Throws
/// UsageError when none is given.
MetricsStore loadMetricsStore(const CliParser& cli);

}  // namespace ute
