// Pipeline concurrency stress (run under -DUTE_SANITIZE=thread via
// `ctest -L stress`): hammers the Channel and ThreadPool primitives,
// races several record streams over one shared reader, and repeats the
// parallel convert+merge pipeline checking every run is byte-identical
// to the sequential golden output.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "interval/file_reader.h"
#include "support/channel.h"
#include "support/file_io.h"
#include "support/thread_pool.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"

namespace ute {
namespace {

TEST(PipelineStress, ChannelHammer) {
  for (int round = 0; round < 5; ++round) {
    Channel<int> ch(3);
    std::atomic<long> sum{0};
    std::atomic<int> received{0};
    std::vector<std::thread> threads;
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 500;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([p, &ch] {
        for (int i = 0; i < kPerProducer; ++i) {
          ASSERT_TRUE(ch.send(p * kPerProducer + i));
        }
      });
    }
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
      consumers.emplace_back([&] {
        while (const auto v = ch.receive()) {
          sum.fetch_add(*v);
          received.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    ch.close();
    for (auto& t : consumers) t.join();
    constexpr int kTotal = kProducers * kPerProducer;
    EXPECT_EQ(received.load(), kTotal);
    EXPECT_EQ(sum.load(), static_cast<long>(kTotal) * (kTotal - 1) / 2);
  }
}

TEST(PipelineStress, ThreadPoolSubmitStorm) {
  ThreadPool pool(4, /*queueCapacity=*/2);  // tiny queue: backpressure
  std::atomic<int> ran{0};
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 200; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    pool.wait();
  }
  EXPECT_EQ(ran.load(), 20 * 200);
  std::atomic<long> sum{0};
  pool.parallelFor(5000, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 5000L * 4999 / 2);
}

TEST(PipelineStress, ConcurrentRecordStreamsAgree) {
  TestProgramOptions workload;
  workload.iterations = 20;
  PipelineOptions options;
  options.dir = makeScratchDir("stress_streams");
  options.name = "sp";
  options.writeSlog = false;
  options.convert.targetFrameBytes = 2048;
  const PipelineResult run = runPipeline(testProgram(workload), options);
  ASSERT_FALSE(run.intervalFiles.empty());

  // Six record streams over one shared reader: its ByteSource is the
  // only state they share, and every stream must see the same bytes.
  const IntervalFileReader reader(run.intervalFiles.front());
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> counts(6, 0);
  std::vector<std::uint64_t> sums(6, 0);
  for (std::size_t r = 0; r < counts.size(); ++r) {
    threads.emplace_back([r, &reader, &counts, &sums] {
      auto stream = reader.records();
      RecordView view;
      while (stream.next(view)) {
        ++counts[r];
        for (const std::uint8_t b : view.body) sums[r] = sums[r] * 31 + b;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t r = 1; r < counts.size(); ++r) {
    EXPECT_EQ(counts[r], counts[0]);
    EXPECT_EQ(sums[r], sums[0]);
  }
  EXPECT_EQ(counts[0], reader.header().totalRecords);
  EXPECT_GT(counts[0], 0u);
}

TEST(PipelineStress, RepeatedParallelRunsMatchGolden) {
  TestProgramOptions workload;
  workload.iterations = 15;
  workload.nodes = 4;

  PipelineOptions golden;
  golden.dir = makeScratchDir("stress_golden");
  golden.name = "sg";
  golden.convert.targetFrameBytes = 2048;
  golden.merge.targetFrameBytes = 2048;
  const PipelineResult seq = runPipeline(testProgram(workload), golden);
  const auto mergedGolden = readWholeFile(seq.mergedFile);
  const auto slogGolden = readWholeFile(seq.slogFile);

  for (int round = 0; round < 3; ++round) {
    PipelineOptions options = golden;
    options.dir = makeScratchDir("stress_par_" + std::to_string(round));
    options.convert.jobs = 4;
    options.merge.jobs = 4;
    const PipelineResult par = runPipeline(testProgram(workload), options);
    for (std::size_t i = 0; i < par.intervalFiles.size(); ++i) {
      ASSERT_EQ(readWholeFile(par.intervalFiles[i]),
                readWholeFile(seq.intervalFiles[i]))
          << "round " << round << " interval file " << i;
    }
    ASSERT_EQ(readWholeFile(par.mergedFile), mergedGolden)
        << "round " << round << " merged file";
    ASSERT_EQ(readWholeFile(par.slogFile), slogGolden)
        << "round " << round << " SLOG file";
  }
}

}  // namespace
}  // namespace ute
