// The TCP front end of the query protocol, and uteserve's server.
//
// QueryFrontEnd is the one server side of the protocol (docs/SERVER.md);
// uteserve's TraceServer and uterouter's RouterServer
// (src/fed/router_server.h) are each a request function plus this front
// end. It is the shared epoll Reactor's (server/reactor.h) Handler: one
// non-blocking event-loop thread owns every connection's state machine,
// and each decoded request runs on a ThreadPool the owner gives it. A
// worker posts the response back to the loop with Reactor::complete()
// (an eventfd wakeup). When the pool's bounded queue is full the front
// end answers at once with a kOverloaded error frame: explicit
// backpressure instead of unbounded buffering. Requests pipelined on one
// connection are answered strictly in order (the reactor dispatches one
// at a time), so the per-connection negotiated ConnectionContext needs
// no locking. A client can stop the server remotely with the kShutdown
// opcode (`utequery shutdown`); stop() drains in-flight responses before
// closing (Reactor graceful shutdown).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/protocol.h"
#include "server/reactor.h"
#include "server/trace_service.h"
#include "support/thread_pool.h"

namespace ute {

/// The listener settings both query servers share.
struct FrontEndOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral, see QueryFrontEnd::port()
  /// Reactor timeouts (see ReactorOptions; 0 = off). Embedded test
  /// servers keep the permissive defaults; the uteserve, uterouter and
  /// utestream CLIs set real timeouts.
  int idleTimeoutMs = 0;
  int readTimeoutMs = 0;
};

class QueryFrontEnd : private Reactor::Handler {
 public:
  /// Answers one request payload for one connection; must not throw
  /// (processRequest and RouterService::handle turn every failure into
  /// an error frame).
  using RequestFn = std::function<RequestOutcome(
      std::span<const std::uint8_t>, ConnectionContext&)>;

  /// Starts listening and accepting immediately. `pool` runs every
  /// request and must outlive the front end; `queueName` names it in
  /// the kOverloaded reply ("<queueName> full (N deep)").
  QueryFrontEnd(const FrontEndOptions& options, ThreadPool& pool,
                RequestFn handle, std::string queueName);
  /// Stops the reactor, shuts down the pool (a worker may still be
  /// completing into the reactor), and only then frees the reactor.
  ~QueryFrontEnd() override;

  QueryFrontEnd(const QueryFrontEnd&) = delete;
  QueryFrontEnd& operator=(const QueryFrontEnd&) = delete;

  std::uint16_t port() const { return reactor_->port(); }
  Reactor::Stats reactorStats() const { return reactor_->stats(); }

  /// True once a client issued kShutdown (the owner should call stop()).
  bool stopRequested() const { return stopRequested_.load(); }

  /// Graceful stop: no new connections, in-flight responses drained
  /// (bounded by the reactor's drain deadline), then the loop joins.
  /// Idempotent; also run by the destructor.
  void stop() { reactor_->shutdown(); }

 private:
  void onRequest(Reactor::Request req,
                 std::vector<std::uint8_t> payload) override;
  std::vector<std::uint8_t> onConnError(Reactor::ConnId conn,
                                        Reactor::ConnError kind,
                                        const std::string& detail) override;
  void onClosed(Reactor::ConnId conn) override;

  ThreadPool& pool_;
  const RequestFn handle_;
  const std::string queueName_;
  std::atomic<bool> stopRequested_{false};

  /// Per-connection negotiated hello state. The map is touched only on
  /// the reactor thread (onRequest/onClosed); each context is read and
  /// written by at most one worker at a time because the reactor
  /// serializes dispatch per connection.
  std::unordered_map<Reactor::ConnId, std::shared_ptr<ConnectionContext>>
      contexts_;

  /// Declared last: the loop thread starts in its constructor and may
  /// call onRequest at once, so every member above is ready by then.
  std::unique_ptr<Reactor> reactor_;
};

struct ServerOptions : FrontEndOptions {
  ServiceOptions service;
  /// A live trace to attach before the reactor starts (utestream
  /// --serve). Not owned; must outlive the server. With a feed set the
  /// server may be constructed with zero SLOG paths.
  LiveFeed* liveFeed = nullptr;
  std::string liveName = "<live>";
};

/// uteserve: TraceService's queries (processRequest) behind the front
/// end, on the service's own worker pool.
class TraceServer {
 public:
  /// Loads the traces and starts listening + accepting immediately.
  TraceServer(const std::vector<std::string>& slogPaths,
              const ServerOptions& options = {});

  TraceServer(const TraceServer&) = delete;
  TraceServer& operator=(const TraceServer&) = delete;

  std::uint16_t port() const { return frontEnd_->port(); }
  TraceService& service() { return service_; }
  Reactor::Stats reactorStats() const { return frontEnd_->reactorStats(); }
  bool stopRequested() const { return frontEnd_->stopRequested(); }
  void stop() { frontEnd_->stop(); }

 private:
  TraceService service_;
  /// Built in the constructor body, after the live feed is attached, so
  /// no client can observe the trace count changing. Declared after the
  /// service, so it is destroyed (and the pool drained) first.
  std::unique_ptr<QueryFrontEnd> frontEnd_;
};

}  // namespace ute
