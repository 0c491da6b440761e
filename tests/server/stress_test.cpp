// Concurrency stress for the query service (ctest label: stress; run
// these under -DUTE_SANITIZE=thread). Eight threads replay deterministic
// random query streams against one shared TraceService with a cache
// small enough to evict constantly; every response must be byte-identical
// to the single-threaded ground truth precomputed before the threads
// start. Plus targeted hammering of FrameCache and ThreadPool alone.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "interval/standard_profile.h"
#include "server/protocol.h"
#include "slog/slog_writer.h"
#include "support/errors.h"
#include "support/thread_annotations.h"
#include "support/thread_pool.h"

#include <unistd.h>

namespace ute {
namespace {

constexpr int kThreads = 8;
constexpr int kQueriesPerThread = 200;

std::string tempPath(const std::string& name) {
  // Each TEST in this file runs as its own ctest process; prefixing the
  // pid keeps parallel processes from clobbering each other's fixtures.
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

std::string writeSlog(const std::string& name) {
  const std::string path = tempPath(name);
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.recordsPerFrame = 32;
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {});
  for (int i = 0; i < 800; ++i) {
    ByteWriter extra;
    extra.u64(static_cast<Tick>(i) * kMs);
    w.addRecord(RecordView::parse(
        encodeRecordBody(makeIntervalType(kRunningState, Bebits::kComplete),
                         static_cast<Tick>(i) * kMs, kMs / 2, 0, i % 2, 0,
                         extra.view())
            .view()));
  }
  w.close();
  return path;
}

/// Deterministic random request stream for one thread.
std::vector<ByteWriter> queryStream(int seed, Tick totalEnd) {
  std::mt19937 rng(1234u + static_cast<unsigned>(seed));
  std::uniform_int_distribution<int> opDist(0, 2);
  std::uniform_int_distribution<Tick> timeDist(0, totalEnd - 1);
  std::vector<ByteWriter> out;
  out.reserve(kQueriesPerThread);
  for (int i = 0; i < kQueriesPerThread; ++i) {
    const Tick a = timeDist(rng);
    const Tick b = timeDist(rng);
    const Tick t0 = std::min(a, b);
    const Tick t1 = std::max(a, b) + 1;
    switch (opDist(rng)) {
      case 0: {
        WindowQuery q;
        q.t0 = t0;
        q.t1 = t1;
        if (i % 5 == 0) q.node = static_cast<NodeId>(i % 2);
        out.push_back(encodeWindowRequest(0, q));
        break;
      }
      case 1:
        out.push_back(encodeSummaryRequest(0, t0, t1));
        break;
      default:
        out.push_back(encodeFrameAtRequest(0, a));
        break;
    }
  }
  return out;
}

TEST(ServerStress, EightThreadsMatchSingleThreadedGroundTruth) {
  const std::string path = writeSlog("stress_service.slog");

  // Ground truth: same dispatch, one thread, roomy cache.
  TraceService single({path});
  const Tick totalEnd = single.trace(0).totalEnd();
  std::vector<std::vector<ByteWriter>> streams;
  std::vector<std::vector<std::vector<std::uint8_t>>> expected;
  for (int t = 0; t < kThreads; ++t) {
    streams.push_back(queryStream(t, totalEnd));
    std::vector<std::vector<std::uint8_t>> answers;
    answers.reserve(streams[t].size());
    for (const ByteWriter& q : streams[t]) {
      answers.push_back(processRequest(single, q.view()).response);
    }
    expected.push_back(std::move(answers));
  }

  // Shared service under churn: budget of roughly three decoded frames,
  // so hot frames are evicted and reloaded all run.
  ServiceOptions options;
  const FrameCache::FramePtr probe = single.frame(0, 0);
  options.cacheBytes = 3 * FrameCache::frameBytes(*probe);
  TraceService shared({path}, options);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < streams[t].size(); ++i) {
        const auto response =
            processRequest(shared, streams[t][i].view()).response;
        if (response != expected[t][i]) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  const FrameCache::Stats stats = shared.cache().stats();
  EXPECT_GT(stats.evictions, 0u) << "cache was supposed to churn";
  EXPECT_LE(stats.bytes, options.cacheBytes);
}

TEST(ServerStress, ClientsShareOneFrameBufferWithoutCopies) {
  // The zero-copy contract: N concurrent clients pulling the same frame
  // must all receive the SAME shared decoded buffer — pointer-identical,
  // one decode total per frame — never per-client copies.
  const std::string path = writeSlog("stress_shared_frame.slog");
  ServiceOptions options;
  options.cacheBytes = 64u << 20;  // roomy: nothing evicts during the test
  TraceService service({path}, options);
  const std::size_t frames = service.trace(0).frameIndex().size();
  ASSERT_GE(frames, 4u);

  std::vector<std::vector<FrameCache::FramePtr>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t].reserve(frames * 4);
      for (int round = 0; round < 4; ++round) {
        for (std::size_t f = 0; f < frames; ++f) {
          seen[t].push_back(service.frame(0, f));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Every thread's handle for frame f aliases one shared buffer. (Even a
  // lost insert race returns the winner's entry, so pointer identity
  // holds under contention.)
  for (std::size_t f = 0; f < frames; ++f) {
    const SlogFrameData* canonical = seen[0][f].get();
    ASSERT_NE(canonical, nullptr);
    for (int t = 0; t < kThreads; ++t) {
      for (int round = 0; round < 4; ++round) {
        EXPECT_EQ(seen[t][round * frames + f].get(), canonical)
            << "thread " << t << " round " << round << " frame " << f
            << " got a private copy";
      }
    }
  }
  // Misses can only happen before a frame's first insert (at most one
  // racing miss per thread); every later lookup must be a hit on the one
  // shared entry.
  const FrameCache::Stats stats = service.cache().stats();
  EXPECT_EQ(stats.entries, frames);
  const auto total = static_cast<std::uint64_t>(kThreads) * 4 * frames;
  EXPECT_EQ(stats.hits + stats.misses, total);
  EXPECT_LE(stats.misses, static_cast<std::uint64_t>(kThreads) * frames);
  EXPECT_GE(stats.hits, total - static_cast<std::uint64_t>(kThreads) * frames);
}

TEST(ServerStress, FrameCacheParallelGetOrLoadKeepsInvariants) {
  SlogFrameData unit;
  unit.intervals.resize(64);
  const std::size_t unitBytes = FrameCache::frameBytes(unit);
  FrameCache cache(8 * unitBytes);

  std::atomic<std::uint64_t> loads{0};
  std::atomic<int> wrongSize{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(99u + static_cast<unsigned>(t));
      std::uniform_int_distribution<std::uint64_t> keyDist(0, 31);
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t key = keyDist(rng);
        const auto frame = cache.getOrLoad(key, [&]() -> FrameCache::FramePtr {
          ++loads;
          auto data = std::make_shared<SlogFrameData>();
          data->intervals.resize(64);
          // The key is recoverable from the payload so cross-key mixups
          // are detectable.
          data->intervals[0].stateId = static_cast<std::uint32_t>(key);
          return data;
        });
        if (frame->intervals.size() != 64 ||
            frame->intervals[0].stateId != key) {
          ++wrongSize;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrongSize.load(), 0);

  const FrameCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * 2000u);
  EXPECT_LE(stats.bytes, 8 * unitBytes);
  EXPECT_GT(stats.evictions, 0u);
  // Every recorded miss corresponds to a loader run or a lost insert
  // race; loads can never exceed misses.
  EXPECT_LE(loads.load(), stats.misses);
}

TEST(ServerStress, ThreadPoolMixedSubmitShutdownRace) {
  // Blocking submit() and non-blocking trySubmit() producers race a
  // shutdown() on one small pool. Every job the pool accepted must run,
  // and every refusal (a false trySubmit, a throwing submit) must be
  // counted as rejected.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4, 16);
    std::atomic<std::uint64_t> ran{0};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> refused{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < 200; ++i) {
          bool ok = false;
          if (p % 2 == 0) {
            ok = pool.trySubmit([&ran] { ++ran; });
          } else {
            try {
              pool.submit([&ran] { ++ran; });
              ok = true;
            } catch (const UsageError&) {
            }
          }
          ++(ok ? accepted : refused);
        }
      });
    }
    // Each round stops the pool at a different point of the 800 calls.
    std::thread stopper([&, round] {
      while (accepted.load() + refused.load() <
             static_cast<std::uint64_t>(round) * 40) {
        std::this_thread::yield();
      }
      pool.shutdown();
    });
    for (std::thread& th : producers) th.join();
    stopper.join();
    pool.shutdown();  // idempotent; everything accepted is drained
    EXPECT_EQ(ran.load(), accepted.load());
    const ThreadPool::Stats stats = pool.stats();
    EXPECT_EQ(stats.accepted, accepted.load());
    EXPECT_EQ(stats.executed, accepted.load());
    EXPECT_EQ(stats.rejected, refused.load());

    // After shutdown, trySubmit refuses (and is counted), submit throws.
    EXPECT_FALSE(pool.trySubmit([&ran] { ++ran; }));
    EXPECT_THROW(pool.submit([&ran] { ++ran; }), UsageError);
    EXPECT_EQ(pool.stats().rejected, refused.load() + 2);
    EXPECT_EQ(ran.load(), accepted.load());
  }
}

TEST(ServerStress, ThreadPoolShutdownReleasesBlockedSubmit) {
  // One worker parked on a gate, one queued job: the queue is full, so a
  // third submit() blocks. shutdown() must release it with UsageError
  // while the gate is still closed, then drain the queued job.
  ThreadPool pool(1, 1);
  Mutex mu;
  CondVar cv;
  bool open = false;
  std::atomic<bool> started{false};
  std::atomic<int> ran{0};
  pool.submit([&] {
    started = true;
    MutexLock lock(mu);
    while (!open) cv.wait(mu);
    ++ran;
  });
  while (!started) std::this_thread::yield();
  pool.submit([&ran] { ++ran; });  // fills the one queue slot

  std::promise<bool> threw;
  std::future<bool> threwFuture = threw.get_future();
  std::thread blocked([&] {
    try {
      pool.submit([&ran] { ++ran; });
      threw.set_value(false);
    } catch (const UsageError&) {
      threw.set_value(true);
    }
  });
  // The submit stays blocked while the queue is full.
  EXPECT_EQ(threwFuture.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);

  std::thread stopper([&pool] { pool.shutdown(); });
  EXPECT_EQ(threwFuture.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "shutdown() left a blocked submit() parked";
  EXPECT_EQ(ran.load(), 0);  // released before the gate opened
  {
    MutexLock lock(mu);
    open = true;
  }
  cv.notifyAll();
  stopper.join();
  blocked.join();
  EXPECT_TRUE(threwFuture.get());
  EXPECT_EQ(ran.load(), 2);
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.rejected, 1u);
}

}  // namespace
}  // namespace ute
