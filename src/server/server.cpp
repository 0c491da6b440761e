#include "server/server.h"

namespace ute {

namespace {

ReactorOptions reactorOptions(const FrontEndOptions& options) {
  ReactorOptions reactor;
  reactor.idleTimeoutMs = options.idleTimeoutMs;
  reactor.readTimeoutMs = options.readTimeoutMs;
  reactor.maxMessageBytes = kMaxMessageBytes;
  return reactor;
}

}  // namespace

QueryFrontEnd::QueryFrontEnd(const FrontEndOptions& options, ThreadPool& pool,
                             RequestFn handle, std::string queueName)
    : pool_(pool), handle_(std::move(handle)),
      queueName_(std::move(queueName)) {
  // The derived-to-base conversion is only accessible in member scope
  // (private inheritance), so it cannot happen inside make_unique.
  Reactor::Handler& handler = *this;
  reactor_ = std::make_unique<Reactor>(options.port, handler,
                                       reactorOptions(options));
}

QueryFrontEnd::~QueryFrontEnd() {
  stop();
  // Workers joined here may still post completions; the reactor drops
  // them, so it must outlive the pool's shutdown.
  pool_.shutdown();
  reactor_.reset();
}

void QueryFrontEnd::onRequest(Reactor::Request req,
                              std::vector<std::uint8_t> payload) {
  // Negotiated hello state, created on the connection's first request.
  // Workers hold the shared_ptr, so a context outlives its connection if
  // a request is still being serviced when the peer vanishes.
  auto [it, inserted] = contexts_.try_emplace(req.conn, nullptr);
  if (inserted) it->second = std::make_shared<ConnectionContext>();
  std::shared_ptr<ConnectionContext> ctx = it->second;

  // The request runs on the pool; the reactor thread only does I/O.
  auto body = std::make_shared<std::vector<std::uint8_t>>(std::move(payload));
  const bool accepted = pool_.trySubmit([this, req, ctx, body] {
    RequestOutcome outcome = handle_(*body, *ctx);
    if (outcome.shutdown) stopRequested_.store(true);
    req.reactor->complete(req, std::move(outcome.response), outcome.shutdown);
  });
  if (!accepted) {
    req.reactor->complete(
        req, encodeErrorReply(ErrorCode::kOverloaded,
                              queueName_ + " full (" +
                                  std::to_string(pool_.maxQueue()) +
                                  " deep)"));
  }
}

std::vector<std::uint8_t> QueryFrontEnd::onConnError(
    Reactor::ConnId /*conn*/, Reactor::ConnError /*kind*/,
    const std::string& detail) {
  // Framing violations and liveness timeouts get a structured
  // kBadRequest reply before the close, so the client sees why instead
  // of a bare EOF.
  return encodeErrorReply(ErrorCode::kBadRequest, detail);
}

void QueryFrontEnd::onClosed(Reactor::ConnId conn) { contexts_.erase(conn); }

TraceServer::TraceServer(const std::vector<std::string>& slogPaths,
                         const ServerOptions& options)
    : service_(slogPaths, options.service) {
  if (slogPaths.empty() && options.liveFeed == nullptr) {
    throw UsageError("TraceServer needs at least one SLOG file or a live "
                     "feed");
  }
  // Attach before the front end exists so no client can observe the
  // trace count changing.
  if (options.liveFeed != nullptr) {
    service_.attachLiveFeed(options.liveName, options.liveFeed);
  }
  frontEnd_ = std::make_unique<QueryFrontEnd>(
      options, service_.pool(),
      [this](std::span<const std::uint8_t> payload, ConnectionContext& ctx) {
        return processRequest(service_, payload, ctx);
      },
      "request queue");
}

}  // namespace ute
