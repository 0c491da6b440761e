// Tests for the batch-parallelism primitives: the bounded MPMC Channel
// (FIFO, blocking, close semantics) and the ThreadPool (submit/wait,
// parallelFor, exception propagation, backpressure).
#include "support/channel.h"
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/errors.h"

namespace ute {
namespace {

TEST(Channel, PreservesFifoOrderSingleThreaded) {
  Channel<int> ch(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ch.send(i));
  for (int i = 0; i < 8; ++i) {
    const auto v = ch.receive();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(Channel, ZeroCapacityIsClampedToOne) {
  Channel<int> ch(0);
  EXPECT_EQ(ch.capacity(), 1u);
  EXPECT_TRUE(ch.send(42));
  EXPECT_EQ(ch.receive(), std::optional<int>(42));
}

TEST(Channel, ReceiveDrainsQueueAfterClose) {
  Channel<int> ch(4);
  EXPECT_TRUE(ch.send(1));
  EXPECT_TRUE(ch.send(2));
  ch.close();
  EXPECT_TRUE(ch.closed());
  EXPECT_FALSE(ch.send(3));  // senders are refused...
  EXPECT_EQ(ch.receive(), std::optional<int>(1));  // ...receivers drain
  EXPECT_EQ(ch.receive(), std::optional<int>(2));
  EXPECT_EQ(ch.receive(), std::nullopt);
  ch.close();  // idempotent
}

TEST(Channel, SendBlocksUntilReceiverMakesRoom) {
  Channel<int> ch(1);
  EXPECT_TRUE(ch.send(1));
  std::atomic<bool> sent{false};
  std::thread producer([&] {
    EXPECT_TRUE(ch.send(2));  // blocks: channel is full
    sent.store(true);
  });
  // The producer cannot finish until we receive.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(sent.load());
  EXPECT_EQ(ch.receive(), std::optional<int>(1));
  producer.join();
  EXPECT_TRUE(sent.load());
  EXPECT_EQ(ch.receive(), std::optional<int>(2));
}

TEST(Channel, TrySendRefusesWhenFullOrClosed) {
  Channel<int> ch(1);
  EXPECT_TRUE(ch.trySend(1));
  EXPECT_FALSE(ch.trySend(2));  // full: refused at once, never blocks
  EXPECT_EQ(ch.receive(), std::optional<int>(1));
  EXPECT_TRUE(ch.trySend(3));
  ch.close();
  EXPECT_FALSE(ch.trySend(4));  // closed
  EXPECT_EQ(ch.receive(), std::optional<int>(3));
  EXPECT_EQ(ch.receive(), std::nullopt);
}

TEST(Channel, CloseWakesBlockedSenderAndReceiver) {
  Channel<int> full(1);
  EXPECT_TRUE(full.send(1));
  std::thread sender([&] { EXPECT_FALSE(full.send(2)); });
  Channel<int> empty(1);
  std::thread receiver([&] { EXPECT_EQ(empty.receive(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  full.close();
  empty.close();
  sender.join();
  receiver.join();
}

TEST(Channel, ManyProducersManyConsumersDeliverEverythingOnce) {
  Channel<int> ch(4);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, &ch] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.send(p * kPerProducer + i));
      }
    });
  }
  std::atomic<long> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (const auto v = ch.receive()) {
        sum.fetch_add(*v);
        count.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  ch.close();
  for (auto& t : consumers) t.join();
  constexpr int kTotal = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), kTotal);
  EXPECT_EQ(sum.load(), static_cast<long>(kTotal) * (kTotal - 1) / 2);
}

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(ran.load(), 100);
  // The pool is reusable after wait().
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(ran.load(), 101);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), UsageError);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallelFor(kN, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallelFor(16,
                                [](std::size_t i) {
                                  if (i == 7) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool survives a failed parallelFor.
  std::atomic<int> ran{0};
  pool.parallelFor(8, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, FreeParallelForRunsInlineForOneJob) {
  // jobs <= 1 must execute on the calling thread, in index order — this
  // is the sequential reference mode the determinism tests compare to.
  const auto self = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallelFor(1, 5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  std::atomic<int> ran{0};
  parallelFor(4, 32, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, EffectiveJobsMapsNonPositiveToHardware) {
  EXPECT_EQ(effectiveJobs(1), 1u);
  EXPECT_EQ(effectiveJobs(7), 7u);
  EXPECT_GE(effectiveJobs(0), 1u);
  EXPECT_GE(effectiveJobs(-3), 1u);
}

}  // namespace
}  // namespace ute
