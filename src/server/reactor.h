// Reactor: the non-blocking epoll event loop under every network-facing
// server (uteserve, uterouter, utestream --listen/--serve).
//
// One thread owns an epoll set, a non-blocking listener, and every
// connection's state machine:
//
//   reading header -> reading body -> awaiting service -> draining writes
//
// Reads are buffered: one recv() can deliver many pipelined requests,
// which are parsed into a bounded per-connection pending queue. Requests
// on one connection are dispatched to the Handler strictly in order, one
// at a time ("awaiting service"); the handler either answers inline or
// hands the CPU work to a worker pool and calls complete() later from
// any thread (an eventfd wakes the loop). Responses are immutable shared
// buffers — the same reply handle can sit in thousands of connections'
// outboxes at once without a copy — drained with sendmsg(prefix,
// payload) gathers and finished opportunistically; only a partial write
// registers EPOLLOUT.
//
// Backpressure and hardening (docs/SERVER.md "Reactor"):
//   - pipelining guard: at most maxPipeline parsed-but-unanswered
//     requests per connection; past that the connection's reads pause
//     (kernel buffers fill, the client blocks) until replies drain;
//   - outbox bound: reads also pause while outboxBytes exceeds
//     maxOutboxBytes, so a client that stops reading cannot make the
//     server buffer unboundedly;
//   - idle timeout: a connection with no request in flight and no bytes
//     moving for idleTimeoutMs gets a structured error reply (the
//     handler's choice) and a close — never a hung thread;
//   - read timeout: a *partial* frame must complete within readTimeoutMs
//     of its first byte (slowloris: trickling one byte per second does
//     not reset this clock), and a non-empty outbox must make progress
//     within the same bound or the peer is declared gone.
//
// Graceful shutdown: shutdown() stops accepting, drops parked
// (undispatched) requests, lets every in-flight request complete and its
// response drain, then closes — bounded by drainTimeoutMs, after which
// stragglers are force-closed. Completions arriving after the loop exits
// are dropped safely.
//
// Containment: this file and reactor.cpp are the only places in src/ and
// tools/ that may touch epoll/eventfd/O_NONBLOCK (utecheck
// reactor-containment; the one exception is tcp.cpp's bounded client
// connect). src/fed and src/stream reach the loop only through this API.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/tcp.h"
#include "support/thread_annotations.h"

namespace ute {

struct ReactorOptions {
  /// Close a connection with no in-flight request and no traffic for
  /// this long (0 = never). Connections whose request is being serviced
  /// are exempt: the ingest server withholds a records ack while the
  /// merge drains, and that wait is not idleness.
  int idleTimeoutMs = 0;
  /// A partial frame (or a stalled non-empty outbox) must progress
  /// within this bound (0 = never). The slowloris clock: it starts at
  /// the first byte of a message and is NOT reset by later bytes.
  int readTimeoutMs = 0;
  /// Parsed-but-unanswered requests allowed per connection before its
  /// reads pause (the pipelining guard).
  std::size_t maxPipeline = 64;
  /// Pause reads while a connection's queued responses exceed this.
  std::size_t maxOutboxBytes = 64u << 20;
  /// Length-prefix sanity cap; a larger frame is a protocol violation
  /// answered via Handler::onConnError and a close.
  std::uint32_t maxMessageBytes = 64u << 20;
  /// Graceful-shutdown budget for draining in-flight responses.
  int drainTimeoutMs = 5'000;
  /// Accepted connections beyond this are closed immediately (0 = no
  /// cap; the kernel fd limit is the real backstop either way).
  std::size_t maxConnections = 0;
  /// SO_SNDBUF applied to accepted sockets (0 = kernel default). Tests
  /// shrink it to force partial writes without moving megabytes.
  int sndbufBytes = 0;
  /// Retry cadence while accepts are paused after EMFILE/ENFILE: the fd
  /// pressure can come from elsewhere in the process, so the reactor
  /// re-arms the listener on this bound even when no connection closes.
  /// Stress tests shrink it to recover quickly inside a tight deadline.
  int acceptRetryMs = 100;
};

class Reactor {
 public:
  using ConnId = std::uint64_t;
  /// Immutable shared response payload: one buffer, many outboxes.
  using SharedReply = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// Identifies one dispatched request; pass it back to complete().
  /// Carries the reactor that dispatched it so workers can complete
  /// through the request itself (`req.reactor->complete(req, ...)`) —
  /// handler code must not read an owner member holding the reactor
  /// (e.g. a `std::unique_ptr<Reactor>` assigned after construction):
  /// the loop thread starts inside the constructor, so such a member is
  /// written with no happens-before edge to the handler's read.
  struct Request {
    Reactor* reactor = nullptr;
    ConnId conn = 0;
    std::uint64_t token = 0;
  };

  enum class ConnError : std::uint8_t {
    kOversizedFrame,  ///< length prefix beyond maxMessageBytes
    kIdleTimeout,     ///< idle with nothing in flight
    kReadTimeout,     ///< partial frame that never completed
    kWriteStall,      ///< peer stopped reading a non-empty outbox
  };

  /// Server-side protocol hooks. All methods run on the reactor thread
  /// and must not block; hand blocking/CPU work to a pool and call
  /// Reactor::complete() from there.
  class Handler {
   public:
    virtual ~Handler() = default;

    /// One complete request frame (length prefix stripped). Exactly one
    /// complete() call per request finishes it (from any thread).
    virtual void onRequest(Request req, std::vector<std::uint8_t> payload) = 0;

    /// A protocol/liveness violation. Return the error frame to send
    /// before the close, or empty to close silently. Never called for
    /// kWriteStall with a deliverable path (the peer is not reading).
    virtual std::vector<std::uint8_t> onConnError(ConnId conn,
                                                  ConnError kind,
                                                  const std::string& detail) {
      (void)conn;
      (void)kind;
      (void)detail;
      return {};
    }

    /// The connection is gone and no request of it is still in flight
    /// (a force-closed connection's last completion is awaited first, so
    /// per-connection handler state is never torn down under a worker).
    virtual void onClosed(ConnId conn) { (void)conn; }
  };

  /// Counters for the concurrency bench and tests. Monotonic, readable
  /// from any thread while the loop runs.
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t peakConnections = 0;
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    std::uint64_t recvCalls = 0;
    std::uint64_t sendCalls = 0;
    std::uint64_t epollWaits = 0;
    std::uint64_t eventfdWakeups = 0;
    std::uint64_t partialWrites = 0;  ///< EAGAIN -> EPOLLOUT transitions
    std::uint64_t readPauses = 0;     ///< backpressure engagements
    std::uint64_t timeouts = 0;       ///< idle + read + write-stall closes
    std::uint64_t badFrames = 0;
    std::uint64_t forcedCloses = 0;   ///< drain deadline expirations
  };

  /// Binds 127.0.0.1:port (0 = ephemeral), starts the loop thread.
  /// `handler` must outlive the reactor, and so must every thread that
  /// may still call complete(): join/shut down worker pools BEFORE
  /// destroying the reactor (QueryFrontEnd's destructor shuts its pool
  /// down before freeing the reactor, which stays alive to drop late
  /// completions at the mutex).
  Reactor(std::uint16_t port, Handler& handler, ReactorOptions options = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Finishes `req`: queues `payload` (null = no bytes, e.g. a torn
  /// ingest session) on the connection's outbox and, with closeAfter,
  /// closes once it drained. Thread-safe; calls after shutdown are
  /// dropped. Exactly one complete() per dispatched request.
  void complete(Request req, SharedReply payload, bool closeAfter = false)
      UTE_EXCLUDES(mu_);
  void complete(Request req, std::vector<std::uint8_t> payload,
                bool closeAfter = false) UTE_EXCLUDES(mu_);

  /// Graceful stop: no new connections, parked requests dropped,
  /// in-flight responses drained (drainTimeoutMs), then the loop joins.
  /// Idempotent; the destructor calls it. Not callable from Handler
  /// methods (it joins the loop thread).
  void shutdown() UTE_EXCLUDES(mu_);

  Stats stats() const;

 private:
  struct Conn;
  struct Completion {
    Request req;
    SharedReply payload;
    bool closeAfter = false;
  };

  void loop();
  void handleAccepts();
  void pauseAccepts();
  void resumeAccepts();
  void handleEvent(ConnId id, std::uint32_t events);
  void handleRead(Conn& conn);
  void parseFrames(Conn& conn);
  void progress();
  void serviceConn(Conn& conn);
  void applyCompletion(Completion completion);
  bool flushWrites(Conn& conn);
  void updateReadPause(Conn& conn);
  void updateEpoll(Conn& conn);
  void failConn(Conn& conn, ConnError kind, const std::string& detail);
  void closeConn(Conn& conn);
  void finalizeConn(Conn& conn) UTE_MAY_INVALIDATE(conns_);
  void sweepTimeouts();
  void beginDrain();
  bool drainFinished();
  int waitTimeoutMs() const;
  void wake();
  void touchIdle(Conn& conn);

  Handler& handler_;
  const ReactorOptions options_;
  TcpListener listener_;

  // Cross-thread surface: completions + shutdown flag, guarded by mu_;
  // the eventfd turns a post into a loop wakeup.
  mutable Mutex mu_;
  std::vector<Completion> completions_ UTE_GUARDED_BY(mu_);
  bool shutdownRequested_ UTE_GUARDED_BY(mu_) = false;
  bool loopExited_ UTE_GUARDED_BY(mu_) = false;

  // Everything below is confined to the loop thread (created before the
  // thread starts, torn down after the join).
  int epollFd_ = -1;
  int eventFd_ = -1;
  std::uint64_t nextConnId_ = 1;
  std::unordered_map<ConnId, std::unique_ptr<Conn>> conns_;
  /// Connections ordered by last activity (front = oldest) for the idle
  /// sweep, and by first-byte time for the partial-frame sweep.
  std::list<ConnId> idleOrder_;
  std::list<ConnId> partialOrder_;
  std::vector<ConnId> dirty_;
  /// Listener deregistered after EMFILE/ENFILE; re-armed on a close.
  bool acceptsPaused_ = false;
  bool draining_ = false;
  std::chrono::steady_clock::time_point drainDeadline_{};

  struct AtomicStats {
    std::atomic<std::uint64_t> accepted{0}, closed{0}, peakConnections{0},
        requests{0}, responses{0}, bytesIn{0}, bytesOut{0}, recvCalls{0},
        sendCalls{0}, epollWaits{0}, eventfdWakeups{0}, partialWrites{0},
        readPauses{0}, timeouts{0}, badFrames{0}, forcedCloses{0};
  };
  AtomicStats stats_;

  /// Published by the loop as its first action; complete() compares it
  /// against the caller to skip the eventfd wake on the loop thread.
  /// (thread_.get_id() would race with the constructor's assignment.)
  std::atomic<std::thread::id> loopThreadId_{};

  std::thread thread_;
};

}  // namespace ute
