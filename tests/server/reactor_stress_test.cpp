// Reactor + worker-pool completion races, for `ctest -L stress` (run in
// the TSan lane): many client threads pipelining against completions
// posted from pool workers, abrupt disconnects racing in-flight work,
// and shutdown racing everything.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "server/reactor.h"
#include "server/tcp.h"
#include "support/errors.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace ute {
namespace {

using namespace std::chrono_literals;

/// Echo via a worker pool: every completion crosses threads through the
/// eventfd wakeup path, which is exactly where completion races live.
class PooledEchoHandler : public Reactor::Handler {
 public:
  PooledEchoHandler() : pool_(4, 1024) {}

  void onRequest(Reactor::Request req,
                 std::vector<std::uint8_t> payload) override {
    auto body =
        std::make_shared<std::vector<std::uint8_t>>(std::move(payload));
    if (!pool_.trySubmit([this, req, body] {
          req.reactor->complete(req, std::move(*body));
        })) {
      req.reactor->complete(req, std::vector<std::uint8_t>{0xEE});
    }
  }

  void onClosed(Reactor::ConnId) override { closed.fetch_add(1); }

  /// Joins the pool. Must run before the Reactor is destroyed whenever
  /// workers may still be completing (the reactor outlives every
  /// complete() caller; pool join is what guarantees that here, the same
  /// contract the real servers encode in member order).
  void quiesce() { pool_.shutdown(); }

  std::atomic<int> closed{0};

 private:
  ThreadPool pool_;
};

TEST(ReactorStress, PipelinedClientsRaceWorkerCompletions) {
  PooledEchoHandler handler;
  Reactor reactor(0, handler);

  constexpr int kClients = 8;
  constexpr int kRequests = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        TcpSocket socket = TcpSocket::connectTo("127.0.0.1", reactor.port());
        Rng rng(1234u + static_cast<std::uint64_t>(c));
        int sent = 0, received = 0;
        while (received < kRequests) {
          // Random pipelining depth: bursts of 1..8 before draining.
          const int burst = static_cast<int>(rng.below(8)) + 1;
          for (int i = 0; i < burst && sent < kRequests; ++i, ++sent) {
            std::string body = "c";
            body += std::to_string(c) + "-" + std::to_string(sent);
            sendMessage(socket, std::vector<std::uint8_t>(body.begin(),
                                                          body.end()));
          }
          while (received < sent) {
            const auto reply = recvMessage(socket);
            if (!reply) throw IoError("unexpected EOF");
            std::string expect = "c";
            expect += std::to_string(c) + "-" + std::to_string(received);
            if (std::string(reply->begin(), reply->end()) != expect) {
              throw FormatError("out-of-order reply");
            }
            ++received;
          }
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const Reactor::Stats stats = reactor.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(stats.responses, stats.requests);
  handler.quiesce();  // join workers before the stack unwinds the reactor
}

TEST(ReactorStress, AbruptDisconnectsRaceInFlightWork) {
  PooledEchoHandler handler;
  Reactor reactor(0, handler);

  constexpr int kClients = 6;
  constexpr int kRounds = 40;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(99u + static_cast<std::uint64_t>(c));
      for (int r = 0; r < kRounds; ++r) {
        try {
          TcpSocket socket =
              TcpSocket::connectTo("127.0.0.1", reactor.port());
          const int burst = static_cast<int>(rng.below(6)) + 1;
          for (int i = 0; i < burst; ++i) {
            sendMessage(socket, std::vector<std::uint8_t>(16, 0xAB));
          }
          // Half the time vanish without reading — the completion then
          // lands on a closed (zombie) connection.
          if (rng.chance(0.5)) continue;
          for (int i = 0; i < burst; ++i) {
            if (!recvMessage(socket)) break;
          }
        } catch (const std::exception&) {
          // Races with our own abrupt closes are the point.
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  // Every accepted connection must eventually be closed and finalized.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    const Reactor::Stats stats = reactor.stats();
    if (stats.closed == stats.accepted) break;
    std::this_thread::sleep_for(10ms);
  }
  const Reactor::Stats stats = reactor.stats();
  EXPECT_EQ(stats.closed, stats.accepted);
  handler.quiesce();  // join workers before the stack unwinds the reactor
}

TEST(ReactorStress, ShutdownRacesTrafficWithoutLeaksOrCrashes) {
  for (int round = 0; round < 10; ++round) {
    PooledEchoHandler handler;
    auto reactor = std::make_unique<Reactor>(0, handler);

    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&] {
        while (!stop.load()) {
          try {
            TcpSocket socket =
                TcpSocket::connectTo("127.0.0.1", reactor->port());
            for (int i = 0; i < 5; ++i) {
              sendMessage(socket, std::vector<std::uint8_t>(32, 0x5A));
              if (!recvMessage(socket)) return;
            }
          } catch (const std::exception&) {
            return;  // listener already gone
          }
        }
      });
    }
    std::this_thread::sleep_for(20ms);
    reactor->shutdown();
    stop.store(true);
    for (auto& t : clients) t.join();
    handler.quiesce();
    reactor.reset();
  }
}

}  // namespace
}  // namespace ute
