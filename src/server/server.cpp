#include "server/server.h"

namespace ute {

namespace {

ServiceOptions withLiveDefaults(const ServerOptions& options) {
  ServiceOptions service = options.service;
  if (options.liveFeed != nullptr) service.allowNoTraces = true;
  return service;
}

ReactorOptions reactorOptions(const ServerOptions& options) {
  ReactorOptions reactor;
  reactor.idleTimeoutMs = options.idleTimeoutMs;
  reactor.readTimeoutMs = options.readTimeoutMs;
  reactor.maxMessageBytes = kMaxMessageBytes;
  return reactor;
}

}  // namespace

TraceServer::TraceServer(const std::vector<std::string>& slogPaths,
                         const ServerOptions& options)
    : service_(slogPaths, withLiveDefaults(options)) {
  // Attach before the reactor exists so no client can observe the trace
  // count changing.
  if (options.liveFeed != nullptr) {
    service_.attachLiveFeed(options.liveName, options.liveFeed);
  }
  // The derived-to-base conversion is only accessible in member scope
  // (private inheritance), so it cannot happen inside make_unique.
  Reactor::Handler& handler = *this;
  reactor_ = std::make_unique<Reactor>(options.port, handler,
                                       reactorOptions(options));
}

TraceServer::~TraceServer() { stop(); }

void TraceServer::stop() { reactor_->shutdown(); }

void TraceServer::onRequest(Reactor::Request req,
                            std::vector<std::uint8_t> payload) {
  // Negotiated hello state, created on the connection's first request.
  // Workers hold the shared_ptr, so a context outlives its connection if
  // a request is still being serviced when the peer vanishes.
  auto [it, inserted] = contexts_.try_emplace(req.conn, nullptr);
  if (inserted) it->second = std::make_shared<ConnectionContext>();
  std::shared_ptr<ConnectionContext> ctx = it->second;

  // The query runs on the worker pool; the reactor thread only does I/O.
  auto body = std::make_shared<std::vector<std::uint8_t>>(std::move(payload));
  const bool accepted = service_.trySubmit([this, req, ctx, body] {
    RequestOutcome outcome = processRequest(service_, *body, *ctx);
    if (outcome.shutdown) stopRequested_.store(true);
    req.reactor->complete(req, std::move(outcome.response), outcome.shutdown);
  });
  if (!accepted) {
    req.reactor->complete(
        req, encodeErrorReply(
                 ErrorCode::kOverloaded,
                 "request queue full (" +
                     std::to_string(service_.pool().maxQueue()) + " deep)"));
  }
}

std::vector<std::uint8_t> TraceServer::onConnError(Reactor::ConnId /*conn*/,
                                                   Reactor::ConnError /*kind*/,
                                                   const std::string& detail) {
  // Framing violations and liveness timeouts get a structured
  // kBadRequest reply before the close — the client sees why instead of
  // a bare EOF (same contract the thread-per-connection server had for
  // oversized frames).
  return encodeErrorReply(ErrorCode::kBadRequest, detail);
}

void TraceServer::onClosed(Reactor::ConnId conn) { contexts_.erase(conn); }

}  // namespace ute
