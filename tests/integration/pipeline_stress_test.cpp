// Pipeline concurrency stress (run under -DUTE_SANITIZE=thread via
// `ctest -L stress`): hammers the Channel and ThreadPool primitives,
// races several record streams over one shared reader, repeats the
// parallel convert+merge pipeline checking every run is byte-identical
// to the sequential golden output, and drives the merge's record-sink
// stage through its failure paths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "interval/file_reader.h"
#include "interval/standard_profile.h"
#include "support/channel.h"
#include "support/file_io.h"
#include "support/thread_pool.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"

namespace ute {
namespace {

/// Per-node interval files of a 4-node run, for driving the merge: its
/// ~53k merged records fill more sink-stage batches than exist, so the
/// drained ones are recycled.
std::vector<std::string> nodeFiles(const std::string& name) {
  TestProgramOptions workload;
  workload.iterations = 600;
  workload.nodes = 4;
  PipelineOptions options;
  options.dir = makeScratchDir(name);
  options.name = name;
  options.writeSlog = false;
  return runPipeline(testProgram(workload), options).intervalFiles;
}

/// FNV-1a over each body the sink sees, in order, and the threads the
/// sink ran on.
struct SinkLog {
  std::vector<std::uint64_t> hashes;
  std::vector<std::thread::id> threads;

  IntervalMerger::RecordSink sink() {
    return [this](const RecordView& record) {
      std::uint64_t h = 1469598103934665603ull;
      for (const std::uint8_t b : record.body) h = (h ^ b) * 1099511628211ull;
      hashes.push_back(h);
      if (threads.empty() || threads.back() != std::this_thread::get_id()) {
        threads.push_back(std::this_thread::get_id());
      }
    };
  }
};

MergeOptions jobs(int n) {
  MergeOptions options;
  options.jobs = n;
  return options;
}

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

TEST(PipelineStress, SinkStageMatchesTheSequentialSink) {
  const std::vector<std::string> inputs = nodeFiles("sink_order");
  const Profile profile = makeStandardProfile();
  const std::string dir = makeScratchDir("sink_order_out");

  SinkLog sequential;
  const MergeResult seq = IntervalMerger(inputs, profile, jobs(1))
                              .mergeTo(dir + "/j1.uti", sequential.sink());
  ASSERT_GT(seq.recordsOut, 40000u);  // more than six batches
  EXPECT_EQ(sequential.threads,
            std::vector<std::thread::id>{std::this_thread::get_id()});

  for (int round = 0; round < 3; ++round) {
    SinkLog staged;
    IntervalMerger(inputs, profile, jobs(4))
        .mergeTo(dir + "/j4.uti", staged.sink());
    // mergeTo returned, so the sink's last call has happened.
    ASSERT_EQ(staged.hashes, sequential.hashes) << "round " << round;
    ASSERT_EQ(staged.threads.size(), 1u);
    EXPECT_NE(staged.threads.front(), std::this_thread::get_id());
    EXPECT_EQ(readWholeFile(dir + "/j4.uti"), readWholeFile(dir + "/j1.uti"));
  }
}

TEST(PipelineStress, SinkStageRethrowsTheSinksError) {
  const std::vector<std::string> inputs = nodeFiles("sink_throw");
  const Profile profile = makeStandardProfile();
  const std::string out = makeScratchDir("sink_throw_out") + "/m.uti";
  const std::uint64_t total =
      IntervalMerger(inputs, profile, jobs(1)).mergeTo(out).recordsOut;

  // The first record, one mid-run (with the merge blocked on a full
  // channel), and the last, which only finish() can report.
  for (const std::uint64_t failAt : {std::uint64_t{1}, total / 2, total}) {
    std::uint64_t calls = 0;
    const auto sink = [&](const RecordView&) {
      if (++calls == failAt) {
        throw std::runtime_error("sink failed at " + std::to_string(failAt));
      }
    };
    try {
      IntervalMerger(inputs, profile, jobs(4)).mergeTo(out, sink);
      ADD_FAILURE() << "no exception for a sink failing at " << failAt;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "sink failed at " + std::to_string(failAt));
    }
    EXPECT_EQ(calls, failAt);  // the worker stopped at the failure
  }
}

TEST(PipelineStress, SinkStageRethrowsTheMergesError) {
  const std::string dir = makeScratchDir("sink_unmatched");
  const Profile profile = makeStandardProfile();
  IntervalFileOptions options;
  options.profileVersion = kStandardProfileVersion;
  options.fieldSelectionMask = kNodeFileMask;
  std::vector<std::string> inputs;
  for (NodeId node = 0; node < 2; ++node) {
    inputs.push_back(dir + "/n" + std::to_string(node) + ".uti");
    IntervalFileWriter w(inputs.back(), options,
                         {{node, 1000 + node, 10000 + node, node, 0,
                           ThreadType::kMpi}});
    for (Tick i = 0; i < 20000; ++i) {
      // Mid-run, node 1 has an end piece whose begin never came.
      const Bebits bebits = node == 1 && i == 10000 ? Bebits::kEnd
                                                    : Bebits::kComplete;
      w.addRecord(encodeRecordBody(makeIntervalType(kRunningState, bebits),
                                   i * 10, 5, 0, node, 0)
                      .view());
    }
    w.close();
  }
  std::atomic<std::uint64_t> calls{0};
  EXPECT_THROW(IntervalMerger(inputs, profile, jobs(4))
                   .mergeTo(dir + "/m.uti",
                            [&calls](const RecordView&) { ++calls; }),
               FormatError);
  // Nothing past the bad record reached the sink, and the worker is
  // joined: nothing calls the sink after mergeTo unwound.
  const std::uint64_t seen = calls.load();
  EXPECT_LE(seen, 20001u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(calls.load(), seen);
}

}  // namespace
}  // namespace ute
