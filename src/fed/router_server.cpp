#include "fed/router_server.h"

namespace ute {

namespace {

ReactorOptions reactorOptions(const RouterServerOptions& options) {
  ReactorOptions reactor;
  reactor.idleTimeoutMs = options.idleTimeoutMs;
  reactor.readTimeoutMs = options.readTimeoutMs;
  reactor.maxMessageBytes = kMaxMessageBytes;
  return reactor;
}

}  // namespace

RouterServer::RouterServer(RouterService& service, std::uint16_t port)
    : RouterServer(service, [port] {
        RouterServerOptions options;
        options.port = port;
        return options;
      }()) {}

RouterServer::RouterServer(RouterService& service,
                           const RouterServerOptions& options)
    : service_(service) {
  pool_ = std::make_unique<ThreadPool>(options.workers, options.queueDepth);
  Reactor::Handler& handler = *this;
  reactor_ = std::make_unique<Reactor>(options.port, handler,
                                       reactorOptions(options));
}

RouterServer::~RouterServer() { stop(); }

void RouterServer::stop() { reactor_->shutdown(); }

void RouterServer::onRequest(Reactor::Request req,
                             std::vector<std::uint8_t> payload) {
  auto [it, inserted] = contexts_.try_emplace(req.conn, nullptr);
  if (inserted) it->second = std::make_shared<ConnectionContext>();
  std::shared_ptr<ConnectionContext> ctx = it->second;

  // The relay blocks on backend round trips; it must leave the reactor
  // thread. Concurrency across clients comes from the pool width.
  auto body = std::make_shared<std::vector<std::uint8_t>>(std::move(payload));
  const bool accepted = pool_->trySubmit([this, req, ctx, body] {
    RequestOutcome outcome = service_.handle(*body, *ctx);
    if (outcome.shutdown) stopRequested_.store(true);
    req.reactor->complete(req, std::move(outcome.response), outcome.shutdown);
  });
  if (!accepted) {
    req.reactor->complete(
        req, encodeErrorReply(ErrorCode::kOverloaded,
                              "router relay queue full (" +
                                  std::to_string(pool_->maxQueue()) +
                                  " deep)"));
  }
}

std::vector<std::uint8_t> RouterServer::onConnError(
    Reactor::ConnId /*conn*/, Reactor::ConnError /*kind*/,
    const std::string& detail) {
  return encodeErrorReply(ErrorCode::kBadRequest, detail);
}

void RouterServer::onClosed(Reactor::ConnId conn) { contexts_.erase(conn); }

}  // namespace ute
