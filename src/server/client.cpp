#include "server/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "support/errors.h"

namespace ute {

int backoffDelayMs(const ClientOptions& options, int attempt) {
  const int shift = std::min(attempt, 20);  // avoid UB on huge attempt
  const long long delay =
      static_cast<long long>(options.backoffBaseMs) << shift;
  return static_cast<int>(
      std::min<long long>(delay, options.backoffMaxMs));
}

TraceClient::TraceClient(const std::string& host, std::uint16_t port)
    : TraceClient(host, port, ClientOptions{}) {}

TraceClient::TraceClient(const std::string& host, std::uint16_t port,
                         const ClientOptions& options)
    : host_(host), port_(port), options_(options) {
  // Bounded exponential-backoff retry around connect + hello. Transport
  // failures (refused, timed out, dropped mid-handshake — e.g. the
  // server was restarting) retry; ServiceError is a deterministic
  // protocol answer and propagates immediately.
  std::string lastError;
  const int attempts = std::max(0, options_.retries) + 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(backoffDelayMs(options_, attempt - 1)));
    }
    try {
      connectAndHello();
      return;
    } catch (const IoError& e) {
      lastError = e.what();
    }
  }
  // A failed connect already names the endpoint; a failed hello does not.
  const std::string endpoint = netContext(host_, port_);
  if (!lastError.ends_with(endpoint)) lastError += endpoint;
  throw IoError("connect failed after " + std::to_string(attempts) +
                " attempt(s): " + lastError);
}

void TraceClient::connectAndHello() {
  socket_ = TcpSocket::connectTo(host_, port_, options_.connectTimeoutMs);
  if (options_.recvTimeoutMs > 0) {
    socket_.setRecvTimeout(options_.recvTimeoutMs);
  }
  HelloReply reply;
  try {
    reply = decodeHelloReply(
        roundTrip(encodeHelloRequest(options_.acceptEncodings).view()));
  } catch (const ServiceError& e) {
    if (e.code() != ErrorCode::kBadVersion) throw;
    // A pre-v2 server rejects the v2 hello outright; fall back to the
    // exact v1 handshake (row-encoded frames) before giving up.
    try {
      reply = decodeHelloReply(roundTrip(encodeLegacyHelloRequest().view()));
      reply.frameEncoding = FrameEncoding::kRow;
    } catch (const ServiceError& legacyErr) {
      // Deterministic mismatch — retrying cannot help; annotate instead.
      throw ServiceError(legacyErr.code(),
                         legacyErr.message() +
                             " (this client speaks versions " +
                             std::to_string(kMinProtocolVersion) + ".." +
                             std::to_string(kProtocolVersion) + ")");
    }
  }
  traceCount_ = reply.traceCount;
  frameEncoding_ = reply.frameEncoding;
}

std::vector<std::uint8_t> TraceClient::roundTrip(
    std::span<const std::uint8_t> payload) {
  sendMessage(socket_, payload);
  auto response = recvMessage(socket_);
  if (!response) throw IoError("server closed the connection");
  return std::move(*response);
}

TraceInfo TraceClient::info(std::uint32_t traceId) {
  return decodeInfoReply(
      roundTrip(encodeTraceRequest(Opcode::kInfo, traceId).view()));
}

std::vector<SlogStateDef> TraceClient::states(std::uint32_t traceId) {
  return decodeStatesReply(
      roundTrip(encodeTraceRequest(Opcode::kStates, traceId).view()));
}

std::vector<ThreadEntry> TraceClient::threads(std::uint32_t traceId) {
  return decodeThreadsReply(
      roundTrip(encodeTraceRequest(Opcode::kThreads, traceId).view()));
}

SlogPreview TraceClient::preview(std::uint32_t traceId) {
  return decodePreviewReply(
      roundTrip(encodeTraceRequest(Opcode::kPreview, traceId).view()));
}

WindowResult TraceClient::window(std::uint32_t traceId,
                                 const WindowQuery& query) {
  return decodeWindowReply(
      roundTrip(encodeWindowRequest(traceId, query).view()),
      frameEncoding_);
}

FrameReply TraceClient::frameAt(std::uint32_t traceId, Tick t) {
  return decodeFrameAtReply(
      roundTrip(encodeFrameAtRequest(traceId, t).view()), frameEncoding_);
}

std::vector<SummaryEntry> TraceClient::summary(std::uint32_t traceId,
                                               Tick t0, Tick t1) {
  return decodeSummaryReply(
      roundTrip(encodeSummaryRequest(traceId, t0, t1).view()));
}

MetricsStore TraceClient::metrics(std::uint32_t traceId,
                                  std::uint32_t bins) {
  return decodeMetricsReply(
      roundTrip(encodeMetricsRequest(traceId, bins).view()));
}

TailFramesReply TraceClient::tailFrames(std::uint32_t traceId,
                                        std::uint64_t cursor,
                                        std::uint32_t maxFrames) {
  return decodeTailFramesReply(
      roundTrip(encodeTailFramesRequest(traceId, cursor, maxFrames).view()),
      frameEncoding_);
}

TailMetricsReply TraceClient::tailMetrics(std::uint32_t traceId) {
  return decodeTailMetricsReply(
      roundTrip(encodeTailMetricsRequest(traceId).view()));
}

ServiceStats TraceClient::stats() {
  return decodeStatsReply(roundTrip(encodeStatsRequest().view()));
}

void TraceClient::shutdownServer() {
  decodeOkReply(roundTrip(encodeShutdownRequest().view()));
}

std::vector<FedTraceEntry> TraceClient::listTraces() {
  return decodeListTracesReply(roundTrip(encodeListTracesRequest().view()));
}

AggregateReply TraceClient::aggregateMetrics(const std::string& pattern,
                                             std::uint32_t bins) {
  return decodeAggregateReply(
      roundTrip(encodeAggregateMetricsRequest(pattern, bins).view()));
}

CompareReply TraceClient::compareTraces(std::uint32_t idA, std::uint32_t idB,
                                        std::uint32_t bins) {
  return decodeCompareReply(
      roundTrip(encodeCompareTracesRequest(idA, idB, bins).view()));
}

void TraceClient::addBackend(const std::string& name,
                             const std::string& hostPort) {
  decodeOkReply(roundTrip(encodeAddBackendRequest(name, hostPort).view()));
}

void TraceClient::removeBackend(const std::string& name) {
  decodeOkReply(roundTrip(encodeRemoveBackendRequest(name).view()));
}

}  // namespace ute
