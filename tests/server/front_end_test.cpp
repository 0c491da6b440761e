// QueryFrontEnd (server/server.h): the one server side of the query
// protocol under uteserve and uterouter, driven here with a fake request
// function so admission control and remote shutdown are pinned without
// a trace behind them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "server/server.h"
#include "server/tcp.h"
#include "support/thread_annotations.h"

namespace ute {
namespace {

std::vector<std::uint8_t> opRequest(Opcode op) {
  return {static_cast<std::uint8_t>(op)};
}

TEST(QueryFrontEnd, FullPoolAnswersOverloadedAndShutdownStops) {
  // One worker and one queue slot. The fake request function blocks
  // until released, except for kShutdown, which it answers at once.
  ThreadPool pool(1, 1);
  Mutex mu;
  CondVar cv;
  bool release = false;
  std::atomic<int> entered{0};
  QueryFrontEnd frontEnd(
      FrontEndOptions{}, pool,
      [&](std::span<const std::uint8_t> payload, ConnectionContext&) {
        RequestOutcome outcome;
        outcome.response = {static_cast<std::uint8_t>(ErrorCode::kOk)};
        if (payload[0] == static_cast<std::uint8_t>(Opcode::kShutdown)) {
          outcome.shutdown = true;
          return outcome;
        }
        ++entered;
        MutexLock lock(mu);
        while (!release) cv.wait(mu);
        return outcome;
      },
      "test queue");

  // The first request occupies the worker, the second the queue slot.
  TcpSocket busy = TcpSocket::connectTo("127.0.0.1", frontEnd.port());
  sendMessage(busy, opRequest(Opcode::kInfo));
  while (entered.load() == 0) std::this_thread::yield();
  TcpSocket queued = TcpSocket::connectTo("127.0.0.1", frontEnd.port());
  sendMessage(queued, opRequest(Opcode::kInfo));
  while (pool.stats().accepted < 2) std::this_thread::yield();

  // The next request is refused without reaching the function.
  TcpSocket refused = TcpSocket::connectTo("127.0.0.1", frontEnd.port());
  sendMessage(refused, opRequest(Opcode::kInfo));
  const auto overloaded = recvMessage(refused);
  ASSERT_TRUE(overloaded.has_value());
  try {
    decodeOkReply(*overloaded);
    FAIL() << "a full pool must refuse the request";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
    EXPECT_NE(std::string(e.what()).find("test queue full (1 deep)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(pool.stats().rejected, 1u);

  {
    MutexLock lock(mu);
    release = true;
  }
  cv.notifyAll();
  for (TcpSocket* socket : {&busy, &queued}) {
    const auto reply = recvMessage(*socket);
    ASSERT_TRUE(reply.has_value());
    EXPECT_NO_THROW(decodeOkReply(*reply));
  }

  EXPECT_FALSE(frontEnd.stopRequested());
  sendMessage(refused, opRequest(Opcode::kShutdown));
  const auto ok = recvMessage(refused);
  ASSERT_TRUE(ok.has_value());
  EXPECT_NO_THROW(decodeOkReply(*ok));
  for (int i = 0; i < 200 && !frontEnd.stopRequested(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(frontEnd.stopRequested());
  EXPECT_EQ(entered.load(), 2);
}

}  // namespace
}  // namespace ute
