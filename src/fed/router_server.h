// RouterServer: the TCP front end of RouterService (src/fed).
//
// RouterService::handle behind the query protocol's shared front end
// (QueryFrontEnd, src/server/server.h), the same one under the backend
// TraceServer. The router brings its own ThreadPool: its requests are
// I/O-bound relays that block on backend round trips, so the pool width
// bounds the router's concurrent upstream fan-out. When every worker is
// busy and the queue is full the router sheds load with a kOverloaded
// frame instead of queueing unboundedly. A client can stop the router
// with kShutdown exactly like a backend.
#pragma once

#include <cstdint>

#include "fed/router_service.h"
#include "server/server.h"
#include "support/thread_pool.h"

namespace ute {

struct RouterServerOptions : FrontEndOptions {
  /// Relay workers: each one can block on a backend round trip.
  std::size_t workers = 16;
  std::size_t queueDepth = 256;
};

class RouterServer {
 public:
  /// Starts listening and accepting immediately. `service` must outlive
  /// the server.
  RouterServer(RouterService& service, std::uint16_t port);
  RouterServer(RouterService& service, const RouterServerOptions& options);

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  std::uint16_t port() const { return frontEnd_.port(); }
  Reactor::Stats reactorStats() const { return frontEnd_.reactorStats(); }
  bool stopRequested() const { return frontEnd_.stopRequested(); }
  void stop() { frontEnd_.stop(); }

 private:
  ThreadPool pool_;
  /// Declared after the pool: its destructor shuts the pool down.
  QueryFrontEnd frontEnd_;
};

}  // namespace ute
