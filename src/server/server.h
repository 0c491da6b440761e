// TraceServer: the TCP front end of TraceService.
//
// The transport is the shared epoll Reactor (server/reactor.h): one
// non-blocking event-loop thread owns every connection's state machine,
// and this class is its protocol Handler. Query CPU work still runs on
// the service's fixed worker pool — onRequest() hands the decoded
// payload to trySubmit() and the worker posts the response back to the
// loop with Reactor::complete() (an eventfd wakeup). When the pool's
// bounded queue is full the server answers immediately with a
// kOverloaded error frame — explicit backpressure instead of unbounded
// buffering. Requests pipelined on one connection are answered strictly
// in order (the reactor dispatches one at a time), so the per-connection
// negotiated ConnectionContext needs no locking. A client can stop the
// server remotely with the kShutdown opcode (uteserve exposes this via
// `utequery shutdown`); stop() drains in-flight responses before
// closing (Reactor graceful shutdown).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "server/protocol.h"
#include "server/reactor.h"
#include "server/trace_service.h"
#include "support/thread_annotations.h"

namespace ute {

struct ServerOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral, see TraceServer::port()
  ServiceOptions service;
  /// A live trace to attach before the reactor starts (utestream
  /// --serve). Not owned; must outlive the server. With a feed set the
  /// service may be constructed with zero SLOG paths.
  LiveFeed* liveFeed = nullptr;
  std::string liveName = "<live>";
  /// Reactor timeouts (see ReactorOptions; 0 = off). Embedded test
  /// servers keep the permissive defaults; the uteserve/utestream CLIs
  /// set real timeouts.
  int idleTimeoutMs = 0;
  int readTimeoutMs = 0;
};

class TraceServer : private Reactor::Handler {
 public:
  /// Loads the traces and starts listening + accepting immediately.
  TraceServer(const std::vector<std::string>& slogPaths,
              const ServerOptions& options = {});
  ~TraceServer() override;

  TraceServer(const TraceServer&) = delete;
  TraceServer& operator=(const TraceServer&) = delete;

  std::uint16_t port() const { return reactor_->port(); }
  TraceService& service() { return service_; }
  Reactor::Stats reactorStats() const { return reactor_->stats(); }

  /// True once a client issued kShutdown (the owner should call stop()).
  bool stopRequested() const { return stopRequested_.load(); }

  /// Graceful stop: no new connections, in-flight responses drained
  /// (bounded by the reactor's drain deadline), then the loop joins.
  /// Idempotent; also run by the destructor.
  void stop();

 private:
  void onRequest(Reactor::Request req,
                 std::vector<std::uint8_t> payload) override;
  std::vector<std::uint8_t> onConnError(Reactor::ConnId conn,
                                        Reactor::ConnError kind,
                                        const std::string& detail) override;
  void onClosed(Reactor::ConnId conn) override;

  /// Declared first so it is destroyed last: pool workers joined by
  /// ~TraceService may still post completions into it (dropped once the
  /// loop exited, but the object must be alive).
  std::unique_ptr<Reactor> reactor_;
  std::atomic<bool> stopRequested_{false};

  /// Per-connection negotiated hello state. The map is touched only on
  /// the reactor thread (onRequest/onClosed); each context is read and
  /// written by at most one worker at a time because the reactor
  /// serializes dispatch per connection.
  std::unordered_map<Reactor::ConnId, std::shared_ptr<ConnectionContext>>
      contexts_;

  TraceService service_;
};

}  // namespace ute
