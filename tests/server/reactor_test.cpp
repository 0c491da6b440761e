// Reactor behavior tests (src/server/reactor.h): pipelining on one
// connection, partial-write backpressure with tiny socket buffers, the
// slowloris timeouts, the max-inflight pipeline guard, and graceful
// shutdown draining in-flight responses. The wire is exercised with raw
// TcpSocket clients so every byte the loop emits is observed.
#include "server/reactor.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "server/tcp.h"
#include "support/bytes.h"
#include "support/thread_annotations.h"

namespace ute {
namespace {

using namespace std::chrono_literals;

std::vector<std::uint8_t> bytesOf(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string stringOf(const std::vector<std::uint8_t>& b) {
  return std::string(b.begin(), b.end());
}

/// Echoes every request back, inline on the reactor thread. onConnError
/// answers with a visible frame so tests can read the reason.
class EchoHandler : public Reactor::Handler {
 public:
  void onRequest(Reactor::Request req,
                 std::vector<std::uint8_t> payload) override {
    req.reactor->complete(req, std::move(payload));
  }

  std::vector<std::uint8_t> onConnError(Reactor::ConnId, Reactor::ConnError,
                                        const std::string& detail) override {
    return bytesOf("ERR:" + detail);
  }

  void onClosed(Reactor::ConnId) override { closed.fetch_add(1); }

  std::atomic<int> closed{0};
};

/// Parks every request until the test releases them — makes "awaiting
/// service" states observable and lets shutdown race real work.
class ParkingHandler : public Reactor::Handler {
 public:
  void onRequest(Reactor::Request req,
                 std::vector<std::uint8_t> payload) override {
    MutexLock lock(mu_);
    parked_.push_back({req, std::move(payload)});
    ++dispatched_;
    cv_.notifyAll();
  }

  int dispatched() const {
    MutexLock lock(mu_);
    return dispatched_;
  }

  /// Blocks until `n` requests have been dispatched (or 5s pass).
  bool waitDispatched(int n) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    MutexLock lock(mu_);
    while (dispatched_ < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      cv_.waitFor(mu_, 10ms);
    }
    return true;
  }

  /// Completes every parked request (echo), oldest first.
  void releaseAll() {
    std::deque<Parked> drained;
    {
      MutexLock lock(mu_);
      drained.swap(parked_);
    }
    for (auto& p : drained) {
      p.req.reactor->complete(p.req, std::move(p.payload));
    }
  }

  std::vector<std::uint8_t> onConnError(Reactor::ConnId, Reactor::ConnError,
                                        const std::string& detail) override {
    return bytesOf("ERR:" + detail);
  }


 private:
  struct Parked {
    Reactor::Request req;
    std::vector<std::uint8_t> payload;
  };
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Parked> parked_ UTE_GUARDED_BY(mu_);
  int dispatched_ UTE_GUARDED_BY(mu_) = 0;
};

TEST(Reactor, PipelinedRequestsOnOneConnectionAnswerInOrder) {
  EchoHandler handler;
  Reactor reactor(0, handler);

  TcpSocket client = TcpSocket::connectTo("127.0.0.1", reactor.port());
  // One gathered write carrying 50 frames: the reactor must parse them
  // all out of its buffered reads and answer strictly in order.
  const int kCount = 50;
  ByteWriter burst;
  for (int i = 0; i < kCount; ++i) {
    const std::vector<std::uint8_t> payload =
        bytesOf("req-" + std::to_string(i));
    burst.u32(static_cast<std::uint32_t>(payload.size()));
    burst.bytes(payload);
  }
  client.sendAll(burst.view());
  for (int i = 0; i < kCount; ++i) {
    const auto reply = recvMessage(client);
    ASSERT_TRUE(reply.has_value()) << "reply " << i;
    EXPECT_EQ(stringOf(*reply), "req-" + std::to_string(i));
  }

  const Reactor::Stats stats = reactor.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(stats.responses, static_cast<std::uint64_t>(kCount));
  // The structural win pipelining buys: one burst needs far fewer
  // syscalls than one recv per request.
  EXPECT_LT(stats.recvCalls, static_cast<std::uint64_t>(kCount));
}

TEST(Reactor, PartialWriteBackpressureDeliversEverythingIntact) {
  EchoHandler handler;
  ReactorOptions options;
  // Tiny server-side send buffer: big echoes overrun the in-flight
  // capacity immediately and the loop must park them EPOLLOUT-driven.
  options.sndbufBytes = 16 << 10;
  Reactor reactor(0, handler, options);

  TcpSocket client = TcpSocket::connectTo("127.0.0.1", reactor.port());
  // A modest receive window on the client side too, so the kernels
  // cannot absorb the whole backlog between them.
  const int small = 64 << 10;
  ASSERT_EQ(0, setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &small,
                          sizeof small));

  const int kCount = 8;
  const std::size_t kBig = 1u << 20;
  std::vector<std::uint8_t> big(kBig);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  for (int i = 0; i < kCount; ++i) sendMessage(client, big);
  // Let the replies pile into kernel + outbox before draining.
  std::this_thread::sleep_for(100ms);
  for (int i = 0; i < kCount; ++i) {
    const auto reply = recvMessage(client);
    ASSERT_TRUE(reply.has_value()) << "reply " << i;
    ASSERT_EQ(*reply, big) << "reply " << i << " corrupted";
  }
  EXPECT_GE(reactor.stats().partialWrites, 1u);
}

TEST(Reactor, OversizedFrameGetsStructuredErrorThenClose) {
  EchoHandler handler;
  ReactorOptions options;
  options.maxMessageBytes = 1024;
  Reactor reactor(0, handler, options);

  TcpSocket client = TcpSocket::connectTo("127.0.0.1", reactor.port());
  ByteWriter prefix;
  prefix.u32(4096);  // claims a frame past the cap; body never sent
  client.sendAll(prefix.view());
  const auto reply = recvMessage(client);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(stringOf(*reply),
            "ERR:message length 4096 exceeds protocol maximum");
  EXPECT_FALSE(recvMessage(client).has_value());  // then EOF
  EXPECT_EQ(reactor.stats().badFrames, 1u);
}

TEST(Reactor, IdleConnectionTimesOutWithStructuredReply) {
  EchoHandler handler;
  ReactorOptions options;
  options.idleTimeoutMs = 100;
  Reactor reactor(0, handler, options);

  TcpSocket client = TcpSocket::connectTo("127.0.0.1", reactor.port());
  const auto reply = recvMessage(client);  // no request sent: just wait
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(stringOf(*reply).rfind("ERR:idle timeout", 0), 0u)
      << stringOf(*reply);
  EXPECT_FALSE(recvMessage(client).has_value());
  EXPECT_GE(reactor.stats().timeouts, 1u);
}

TEST(Reactor, TrickledFrameHitsReadTimeoutEvenWithSlowBytes) {
  EchoHandler handler;
  ReactorOptions options;
  options.readTimeoutMs = 200;
  Reactor reactor(0, handler, options);

  TcpSocket client = TcpSocket::connectTo("127.0.0.1", reactor.port());
  ByteWriter prefix;
  prefix.u32(1000);  // promise 1000 bytes, then slowloris-drip a few
  client.sendAll(prefix.view());
  // Each drip arrives well inside the timeout, but the clock runs from
  // the FIRST byte of the frame — trickling must not reset it.
  const std::uint8_t drip[1] = {0x55};
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(60ms);
    try {
      client.sendAll(drip);
    } catch (const std::exception&) {
      break;  // server already closed on us — expected eventually
    }
  }
  const auto reply = recvMessage(client);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(stringOf(*reply).rfind("ERR:read timed out", 0), 0u)
      << stringOf(*reply);
  EXPECT_FALSE(recvMessage(client).has_value());
}

TEST(Reactor, PipelineGuardCapsDispatchUntilRepliesDrain) {
  ParkingHandler handler;
  ReactorOptions options;
  options.maxPipeline = 2;
  Reactor reactor(0, handler, options);

  TcpSocket client = TcpSocket::connectTo("127.0.0.1", reactor.port());
  const int kCount = 12;
  ByteWriter burst;
  for (int i = 0; i < kCount; ++i) {
    std::string text = "p";
    text += std::to_string(i);
    const auto payload = bytesOf(text);
    burst.u32(static_cast<std::uint32_t>(payload.size()));
    burst.bytes(payload);
  }
  client.sendAll(burst.view());

  // Only one request is dispatched at a time, and at most maxPipeline
  // are parsed ahead; the rest must wait in buffers.
  ASSERT_TRUE(handler.waitDispatched(1));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(handler.dispatched(), 1);

  // Releasing replies re-opens the window; everything arrives in order.
  // Wait for request `done` to be parked *before* releasing it — calling
  // releaseAll() early would no-op and leave the reply forever parked.
  for (int done = 0; done < kCount; ++done) {
    ASSERT_TRUE(handler.waitDispatched(done + 1));
    handler.releaseAll();
    const auto reply = recvMessage(client);
    ASSERT_TRUE(reply.has_value());
    std::string expected = "p";
    expected += std::to_string(done);
    EXPECT_EQ(stringOf(*reply), expected);
  }
  EXPECT_GE(reactor.stats().readPauses, 1u);
}

TEST(Reactor, GracefulShutdownDrainsTheInFlightReply) {
  ParkingHandler handler;
  auto reactor = std::make_unique<Reactor>(0, handler);

  TcpSocket client = TcpSocket::connectTo("127.0.0.1", reactor->port());
  sendMessage(client, bytesOf("in-flight"));
  ASSERT_TRUE(handler.waitDispatched(1));

  // Shut down while the request is being "serviced": the reply released
  // below must still reach the client before the close.
  std::thread closer([&] { reactor->shutdown(); });
  std::this_thread::sleep_for(50ms);
  handler.releaseAll();
  closer.join();

  const auto reply = recvMessage(client);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(stringOf(*reply), "in-flight");
  EXPECT_FALSE(recvMessage(client).has_value());  // then EOF
  EXPECT_EQ(reactor->stats().forcedCloses, 0u);
}

TEST(Reactor, ShutdownForceClosesPastTheDrainDeadline) {
  ParkingHandler handler;  // never released: the drain cannot finish
  ReactorOptions options;
  options.drainTimeoutMs = 100;
  auto reactor = std::make_unique<Reactor>(0, handler, options);

  TcpSocket client = TcpSocket::connectTo("127.0.0.1", reactor->port());
  sendMessage(client, bytesOf("stuck"));
  ASSERT_TRUE(handler.waitDispatched(1));

  const auto t0 = std::chrono::steady_clock::now();
  reactor->shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, 5s);  // deadline, not forever
  EXPECT_FALSE(recvMessage(client).has_value());
  EXPECT_GE(reactor->stats().forcedCloses, 1u);
}

TEST(Reactor, UnpauseAfterCompletionSurvivesBufferedOversizedFrame) {
  // Regression: a burst that fills the pipeline guard AND leaves an
  // oversized length prefix buffered. The completion that re-opens the
  // read window re-parses the user-space backlog, hits the violation,
  // and closes the connection from *inside* applyCompletion — which
  // must not touch the freed Conn afterwards (caught by ASan/TSan).
  ParkingHandler handler;
  ReactorOptions options;
  options.maxPipeline = 2;
  options.maxMessageBytes = 1024;
  Reactor reactor(0, handler, options);

  TcpSocket client = TcpSocket::connectTo("127.0.0.1", reactor.port());
  ByteWriter burst;
  for (int i = 0; i < 2; ++i) {  // fills maxPipeline: reads pause
    std::string text = "q";
    text += std::to_string(i);
    const auto payload = bytesOf(text);
    burst.u32(static_cast<std::uint32_t>(payload.size()));
    burst.bytes(payload);
  }
  burst.u32(4096);  // beyond the cap; parsed only after the unpause
  client.sendAll(burst.view());

  ASSERT_TRUE(handler.waitDispatched(1));
  std::this_thread::sleep_for(50ms);  // let the whole burst buffer up
  handler.releaseAll();  // completes q0 -> unpause -> parse violation
  const auto reply = recvMessage(client);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(stringOf(*reply), "q0");
  const auto err = recvMessage(client);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(stringOf(*err),
            "ERR:message length 4096 exceeds protocol maximum");
  EXPECT_FALSE(recvMessage(client).has_value());  // then EOF
  EXPECT_EQ(reactor.stats().badFrames, 1u);
}

TEST(Reactor, WriteStallFollowedByPartialFrameDoesNotCloseHealthyConn) {
  // Regression: a write-stall entry on the partial-frame list must not
  // be duplicated when a partial *incoming* frame arrives on the same
  // connection — the stale entry used to outlive the stall and close a
  // healthy connection as "peer stopped reading".
  EchoHandler handler;
  ReactorOptions options;
  options.readTimeoutMs = 500;
  options.sndbufBytes = 16 << 10;
  Reactor reactor(0, handler, options);

  TcpSocket client = TcpSocket::connectTo("127.0.0.1", reactor.port());
  const int small = 64 << 10;
  ASSERT_EQ(0, setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &small,
                          sizeof small));
  std::vector<std::uint8_t> big(1u << 20, 0xAB);
  sendMessage(client, big);
  // Not reading yet: the echo overruns the kernel buffers and stalls.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (reactor.stats().partialWrites == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no stall seen";
    std::this_thread::sleep_for(5ms);
  }

  // A partial frame lands while the outbox is stalled...
  ByteWriter second;
  second.u32(5);
  second.bytes(bytesOf("hello"));
  const auto frame = second.view();
  client.sendAll(frame.subspan(0, 2));
  std::this_thread::sleep_for(50ms);
  // ...then the stall resolves (client drains the echo) and the frame
  // completes normally.
  const auto reply = recvMessage(client);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(*reply, big);
  client.sendAll(frame.subspan(2));
  const auto echo = recvMessage(client);
  ASSERT_TRUE(echo.has_value());
  EXPECT_EQ(stringOf(*echo), "hello");

  // Outlive readTimeoutMs: no stale write-stall entry may close us.
  std::this_thread::sleep_for(700ms);
  sendMessage(client, bytesOf("alive"));
  const auto alive = recvMessage(client);
  ASSERT_TRUE(alive.has_value());
  EXPECT_EQ(stringOf(*alive), "alive");
  EXPECT_EQ(reactor.stats().timeouts, 0u);
}

TEST(Reactor, NullCompletionClosesWithoutBytes) {
  class DropHandler : public Reactor::Handler {
   public:
    void onRequest(Reactor::Request req, std::vector<std::uint8_t>) override {
      req.reactor->complete(req, nullptr, /*closeAfter=*/true);
    }
  };
  DropHandler handler;
  Reactor reactor(0, handler);

  TcpSocket client = TcpSocket::connectTo("127.0.0.1", reactor.port());
  sendMessage(client, bytesOf("anything"));
  EXPECT_FALSE(recvMessage(client).has_value());  // bare EOF, no reply
}

TEST(Reactor, ClosedConnectionStillCompletesItsLastRequestSafely) {
  ParkingHandler handler;
  Reactor reactor(0, handler);

  {
    TcpSocket client = TcpSocket::connectTo("127.0.0.1", reactor.port());
    sendMessage(client, bytesOf("abandoned"));
    ASSERT_TRUE(handler.waitDispatched(1));
  }  // client gone with the request still parked

  // The completion for a dead connection must be absorbed, not crash or
  // leak the Conn.
  std::this_thread::sleep_for(50ms);
  handler.releaseAll();
  std::this_thread::sleep_for(50ms);
  const Reactor::Stats stats = reactor.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.closed, 1u);
}

/// Holds every spare fd in the process (dup(0) until EMFILE) so the
/// reactor's accept() hits the fd wall. Restores the rlimit and releases
/// the hoard on destruction.
class FdExhauster {
 public:
  FdExhauster() {
    getrlimit(RLIMIT_NOFILE, &saved_);
    // Shrink the ceiling so the hoard stays small and fast to build.
    rlimit tight = saved_;
    tight.rlim_cur = 256;
    setrlimit(RLIMIT_NOFILE, &tight);
    for (;;) {
      const int fd = ::dup(0);
      if (fd < 0) break;
      hoard_.push_back(fd);
    }
  }

  /// Frees exactly one fd — enough for one client socket, nothing more.
  void releaseOne() {
    if (hoard_.empty()) return;
    ::close(hoard_.back());
    hoard_.pop_back();
  }

  void releaseAll() {
    for (const int fd : hoard_) ::close(fd);
    hoard_.clear();
  }

  ~FdExhauster() {
    releaseAll();
    setrlimit(RLIMIT_NOFILE, &saved_);
  }

 private:
  rlimit saved_{};
  std::vector<int> hoard_;
};

TEST(Reactor, AcceptResumesOnConfiguredCadenceAfterEmfile) {
  EchoHandler handler;
  ReactorOptions options;
  options.acceptRetryMs = 25;  // stress cadence: default is 100ms
  Reactor reactor(0, handler, options);

  TcpSocket client = [&] {
    FdExhauster hog;
    // One fd back for the client socket; the kernel completes the
    // handshake via the listen backlog, but the reactor's accept() now
    // fails with EMFILE and pauses the listener.
    hog.releaseOne();
    TcpSocket c = TcpSocket::connectTo("127.0.0.1", reactor.port());
    sendMessage(c, bytesOf("after-the-storm"));
    // Give the reactor time to attempt the accept and hit the wall.
    std::this_thread::sleep_for(60ms);
    EXPECT_EQ(reactor.stats().accepted, 0u);
    return c;
  }();  // hoard released: the next retry tick has fds again

  // The paused listener must come back on the acceptRetryMs cadence and
  // serve the connection that was parked in the backlog all along.
  const auto start = std::chrono::steady_clock::now();
  const auto reply = recvMessage(client);
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(stringOf(*reply), "after-the-storm");
  EXPECT_EQ(reactor.stats().accepted, 1u);
  // Generous bound: recovery needs only one or two 25ms retry ticks.
  EXPECT_LT(waited, 2s);
}

}  // namespace
}  // namespace ute
