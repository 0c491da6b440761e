// RouterServer: the TCP front end of RouterService (src/fed).
//
// Runs on the shared epoll Reactor (src/server/reactor.h) like the
// backend TraceServer, but with its own ThreadPool: router requests are
// I/O-bound relays that block on backend round trips, so they must not
// run on the reactor thread. Each request is handed to the pool and the
// worker posts the response back with Reactor::complete(); when every
// worker is busy and the queue is full the router sheds load with a
// kOverloaded frame instead of queueing unboundedly. A client can stop
// the router with kShutdown exactly like a backend.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "fed/router_service.h"
#include "server/protocol.h"
#include "server/reactor.h"
#include "support/thread_annotations.h"
#include "support/thread_pool.h"

namespace ute {

struct RouterServerOptions {
  std::uint16_t port = 0;
  /// Relay workers: each one can block on a backend round trip, so this
  /// bounds the router's concurrent upstream fan-out.
  std::size_t workers = 16;
  std::size_t queueDepth = 256;
  /// Reactor timeouts (0 = off; the uterouter CLI sets real timeouts,
  /// embedded test routers stay permissive).
  int idleTimeoutMs = 0;
  int readTimeoutMs = 0;
};

class RouterServer : private Reactor::Handler {
 public:
  /// Starts listening and accepting immediately. `service` must outlive
  /// the server.
  RouterServer(RouterService& service, std::uint16_t port);
  RouterServer(RouterService& service, const RouterServerOptions& options);
  ~RouterServer() override;

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  std::uint16_t port() const { return reactor_->port(); }
  Reactor::Stats reactorStats() const { return reactor_->stats(); }

  /// True once a client issued kShutdown (the owner should call stop()).
  bool stopRequested() const { return stopRequested_.load(); }

  /// Graceful stop: no new connections, in-flight relays drained with a
  /// deadline, then the loop joins. Idempotent; also the destructor.
  void stop();

 private:
  void onRequest(Reactor::Request req,
                 std::vector<std::uint8_t> payload) override;
  std::vector<std::uint8_t> onConnError(Reactor::ConnId conn,
                                        Reactor::ConnError kind,
                                        const std::string& detail) override;
  void onClosed(Reactor::ConnId conn) override;

  /// Declared first = destroyed last: pool workers joined by ~ThreadPool
  /// below may still post completions into it.
  std::unique_ptr<Reactor> reactor_;
  RouterService& service_;
  std::atomic<bool> stopRequested_{false};

  /// Per-connection negotiated hello state; reactor-thread confined map,
  /// contexts shared with at most one worker at a time (serial
  /// per-connection dispatch).
  std::unordered_map<Reactor::ConnId, std::shared_ptr<ConnectionContext>>
      contexts_;

  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace ute
