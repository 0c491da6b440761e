// Correctness of the time-resolved metrics engine (src/analysis).
//
// The heart of the file is the brute-force oracle: an O(records x bins)
// recomputation of every base column straight from the frame data, with
// the bin overlap evaluated independently (interval-vs-bin intersection)
// instead of the engine's chunked walk. On the golden 4-node pipeline
// trace the streaming engine must match the oracle cell for cell, and
// the parallel scan must produce byte-identical .utm output to the
// sequential one.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <map>
#include <tuple>

#include "analysis/metrics.h"
#include "analysis/metrics_io.h"
#include "interval/standard_profile.h"
#include "slog/slog_reader.h"
#include "support/file_io.h"
#include "slog/slog_writer.h"
#include "trace/events.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"

#include <unistd.h>

namespace ute {
namespace {

std::string tempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

std::vector<ThreadEntry> twoTaskThreads() {
  return {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
          {1, 1001, 10001, 1, 0, ThreadType::kMpi}};
}

ByteWriter mergedBody(EventType event, Bebits bebits, Tick start, Tick dura,
                      NodeId node, LogicalThreadId thread,
                      const ByteWriter& args = {}) {
  ByteWriter extra;
  extra.bytes(args.view());
  extra.u64(start);  // origStart
  return encodeRecordBody(makeIntervalType(event, bebits), start, dura, 0,
                          node, thread, extra.view());
}

RecordView viewOf(const ByteWriter& body) {
  return RecordView::parse(body.view());
}

ByteWriter sendArgs(std::uint32_t bytes, std::uint32_t seqno) {
  ByteWriter args;
  args.i32(1);      // destTask
  args.i32(3);      // tag
  args.u32(bytes);  // msgSizeSent
  args.u32(seqno);  // seqNo
  args.i32(0);      // comm
  return args;
}

ByteWriter recvArgs(std::uint32_t bytes, std::uint32_t seqno) {
  ByteWriter args;
  args.i32(0);      // srcWanted
  args.i32(3);      // tagWanted
  args.i32(0);      // comm
  args.i32(0);      // srcTask
  args.i32(3);      // tagRecv
  args.u32(bytes);  // msgSizeRecv
  args.u32(seqno);  // seqNo
  return args;
}

// ---------------------------------------------------------------------------
// State classification

TEST(MetricsClassify, MapsStatesToClasses) {
  StateClass c;
  ASSERT_TRUE(classifyState(static_cast<std::uint32_t>(kRunningState), c));
  EXPECT_EQ(c, StateClass::kBusy);
  ASSERT_TRUE(
      classifyState(static_cast<std::uint32_t>(EventType::kMpiSend), c));
  EXPECT_EQ(c, StateClass::kMpi);
  ASSERT_TRUE(
      classifyState(static_cast<std::uint32_t>(EventType::kMpiAllreduce), c));
  EXPECT_EQ(c, StateClass::kMpi);
  ASSERT_TRUE(
      classifyState(static_cast<std::uint32_t>(EventType::kIoRead), c));
  EXPECT_EQ(c, StateClass::kIo);
  ASSERT_TRUE(
      classifyState(static_cast<std::uint32_t>(EventType::kPageFault), c));
  EXPECT_EQ(c, StateClass::kIo);
  ASSERT_TRUE(classifyState(kMarkerStateBase + 3, c));
  EXPECT_EQ(c, StateClass::kMarker);
  // The clock-sync injection state and unknown ids are ignored.
  EXPECT_FALSE(classifyState(static_cast<std::uint32_t>(kClockSyncState), c));
  EXPECT_FALSE(classifyState(999, c));
}

// ---------------------------------------------------------------------------
// Binning on a hand-built trace

TEST(Metrics, BinningConservesTimeExactly) {
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("metrics_bins.slog");
  {
    SlogWriter w(path, SlogOptions{}, profile, twoTaskThreads(), {});
    // 10ms of Running on task 0 spanning many bins, plus an awkward
    // 3-tick interval that straddles a bin boundary.
    w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kComplete, 0,
                                  10 * kMs, 0, 0)));
    w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kComplete,
                                  10 * kMs - 2, 3, 1, 0)));
    w.close();
  }
  SlogReader reader(path);
  MetricsOptions options;
  options.bins = 7;  // does not divide the span: uneven last bin
  const MetricsStore m = computeMetrics(reader, options);
  ASSERT_EQ(m.bins(), 7u);
  ASSERT_EQ(m.taskCount(), 2u);

  std::uint64_t task0 = 0;
  std::uint64_t task1 = 0;
  for (std::uint32_t b = 0; b < m.bins(); ++b) {
    task0 += m.timeNs(StateClass::kBusy, b, 0);
    task1 += m.timeNs(StateClass::kBusy, b, 1);
  }
  EXPECT_EQ(task0, static_cast<std::uint64_t>(10 * kMs));
  EXPECT_EQ(task1, 3u);
  // No bin exceeds its own span (the chunked walk never overfills).
  for (std::uint32_t b = 0; b + 1 < m.bins(); ++b) {
    EXPECT_LE(m.timeNs(StateClass::kBusy, b, 0),
              static_cast<std::uint64_t>(m.binEnd(b) - m.binStart(b)));
  }
}

TEST(Metrics, LastBinAbsorbsTheClosingEdge) {
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("metrics_lastbin.slog");
  {
    SlogWriter w(path, SlogOptions{}, profile, twoTaskThreads(), {});
    // Span of 10 ticks over 3 bins: width ceil(10/3) = 4, so the grid
    // covers [0,12) but the run ends at 10 — and an interval touching
    // the final tick must still land entirely inside bin 2.
    w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kComplete, 0, 1,
                                  0, 0)));
    w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kComplete, 8, 2,
                                  1, 0)));
    w.close();
  }
  SlogReader reader(path);
  MetricsOptions options;
  options.bins = 3;
  const MetricsStore m = computeMetrics(reader, options);
  EXPECT_EQ(m.binWidth(), 4u);
  EXPECT_EQ(m.timeNs(StateClass::kBusy, 2, 1), 2u);
  EXPECT_EQ(m.binOf(std::numeric_limits<Tick>::max() / 2), 2u);
}

// ---------------------------------------------------------------------------
// Message counters and late-sender time

TEST(Metrics, LateSenderTimeFromMatchedArrow) {
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("metrics_late.slog");
  {
    SlogWriter w(path, SlogOptions{}, profile, twoTaskThreads(), {});
    w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kComplete, 0, 10,
                                  0, 0)));
    // Receiver posts at t=500 and blocks; the sender only enters
    // MPI_Send at t=1000. Late-sender time = 1000 - 500 = 500 ticks.
    // Merged records arrive ordered by END time (the merge key), so the
    // send interval [1000, 1100) precedes the receive [500, 1800).
    ByteWriter send = sendArgs(512, 7);
    w.addRecord(viewOf(mergedBody(EventType::kMpiSend, Bebits::kComplete,
                                  1000, 100, 0, 0, send)));
    ByteWriter recv = recvArgs(512, 7);
    w.addRecord(viewOf(mergedBody(EventType::kMpiRecv, Bebits::kComplete,
                                  500, 1300, 1, 0, recv)));
    w.close();
  }
  SlogReader reader(path);
  MetricsOptions options;
  options.bins = 1;
  const MetricsStore m = computeMetrics(reader, options);
  ASSERT_EQ(m.taskCount(), 2u);
  EXPECT_EQ(m.sendCount(0, 0), 1u);
  EXPECT_EQ(m.sendBytes(0, 0), 512u);
  EXPECT_EQ(m.recvCount(0, 1), 1u);
  EXPECT_EQ(m.recvBytes(0, 1), 512u);
  EXPECT_EQ(m.lateSenderNs(0, 1), 500u);
  EXPECT_EQ(m.lateSenderNs(0, 0), 0u);
  EXPECT_EQ(m.lateSenderTotalNs(0), 500u);
}

TEST(Metrics, NoLateSenderWhenSendPrecedesReceive) {
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("metrics_notlate.slog");
  {
    SlogWriter w(path, SlogOptions{}, profile, twoTaskThreads(), {});
    ByteWriter send = sendArgs(64, 9);
    w.addRecord(viewOf(mergedBody(EventType::kMpiSend, Bebits::kComplete,
                                  100, 100, 0, 0, send)));
    ByteWriter recv = recvArgs(64, 9);
    w.addRecord(viewOf(mergedBody(EventType::kMpiRecv, Bebits::kComplete,
                                  600, 200, 1, 0, recv)));
    w.close();
  }
  SlogReader reader(path);
  MetricsOptions options;
  options.bins = 4;
  const MetricsStore m = computeMetrics(reader, options);
  for (std::uint32_t b = 0; b < m.bins(); ++b) {
    EXPECT_EQ(m.lateSenderTotalNs(b), 0u);
  }
}

// ---------------------------------------------------------------------------
// Derived series

TEST(Metrics, DerivedSeriesOnSkewedLoad) {
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("metrics_derived.slog");
  {
    SlogWriter w(path, SlogOptions{}, profile, twoTaskThreads(), {});
    // One bin's worth of run: task 0 runs the whole span, task 1 only a
    // quarter of it (and spends half the span inside MPI_Barrier).
    w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kComplete, 0,
                                  1000, 0, 0)));
    w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kComplete, 0, 250,
                                  1, 0)));
    ByteWriter barrier;
    barrier.i32(0);  // comm
    w.addRecord(viewOf(mergedBody(EventType::kMpiBarrier, Bebits::kComplete,
                                  250, 500, 1, 0, barrier)));
    w.close();
  }
  SlogReader reader(path);
  MetricsOptions options;
  options.bins = 1;
  const MetricsStore m = computeMetrics(reader, options);
  ASSERT_EQ(m.bins(), 1u);
  // Wall time of the single bin is the full 1000-tick span per task.
  EXPECT_EQ(m.idleNs(0, 0), 0u);
  EXPECT_EQ(m.idleNs(0, 1), 750u);
  // Imbalance: busy = {1000, 250} -> (1000 - 625) / 1000.
  EXPECT_DOUBLE_EQ(m.loadImbalance(0), 0.375);
  // Comm fraction: 500 MPI ticks over 2000 task-wall ticks.
  EXPECT_DOUBLE_EQ(m.commFraction(0), 0.25);
}

// ---------------------------------------------------------------------------
// Brute-force oracle on the golden 4-node pipeline trace

struct Oracle {
  MetricsStore grids;  // reused only for shape + accessors via addFrom

  std::vector<std::uint64_t> timeNs[kStateClassCount];
  std::vector<std::uint64_t> sendCount, sendBytes, recvCount, recvBytes;
  std::vector<std::uint64_t> lateNs;
};

/// Recomputes every base column with interval-vs-bin intersection,
/// O(records x bins) — deliberately different arithmetic from the
/// engine's chunk walk.
Oracle bruteForce(const SlogReader& reader, const MetricsStore& shape) {
  Oracle o;
  const std::size_t cells = shape.bins() * shape.taskCount();
  for (auto& grid : o.timeNs) grid.assign(cells, 0);
  o.sendCount.assign(cells, 0);
  o.sendBytes.assign(cells, 0);
  o.recvCount.assign(cells, 0);
  o.recvBytes.assign(cells, 0);
  o.lateNs.assign(cells, 0);

  // Independent (node, thread) -> task map.
  std::map<std::pair<NodeId, LogicalThreadId>, std::uint32_t> taskOf;
  for (const ThreadEntry& t : reader.threads()) {
    if (t.task < 0) continue;
    for (std::uint32_t k = 0; k < shape.taskCount(); ++k) {
      if (shape.tasks()[k] == t.task) {
        taskOf[{t.node, t.ltid}] = k;
      }
    }
  }
  const auto cellOf = [&](std::uint32_t bin, std::uint32_t task) {
    return static_cast<std::size_t>(bin) * shape.taskCount() + task;
  };
  const auto binOf = [&](Tick t) {
    if (t <= shape.origin()) return std::uint32_t{0};
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        (t - shape.origin()) / shape.binWidth(), shape.bins() - 1));
  };
  const auto spreadOracle = [&](std::vector<std::uint64_t>& grid,
                                std::uint32_t task, Tick start, Tick dura) {
    const Tick clippedStart = std::max(start, shape.origin());
    const Tick end = std::max(start + dura, clippedStart);
    for (std::uint32_t b = 0; b < shape.bins(); ++b) {
      const Tick lo = shape.origin() + b * shape.binWidth();
      const Tick hi = b + 1 >= shape.bins()
                          ? std::numeric_limits<Tick>::max()
                          : lo + shape.binWidth();
      const Tick from = std::max(clippedStart, lo);
      const Tick to = std::min(end, hi);
      if (to > from) grid[cellOf(b, task)] += to - from;
    }
  };

  for (std::size_t f = 0; f < reader.frameIndex().size(); ++f) {
    const SlogFramePtr frame = reader.readFrame(f);
    for (const SlogInterval& r : frame->intervals) {
      if (r.pseudo) continue;
      StateClass c;
      if (!classifyState(r.stateId, c)) continue;
      const auto it = taskOf.find({r.node, r.thread});
      if (it == taskOf.end()) continue;
      spreadOracle(o.timeNs[static_cast<std::size_t>(c)], it->second,
                   r.start, r.dura);
    }
    for (const SlogArrow& a : frame->arrows) {
      const auto src = taskOf.find({a.srcNode, a.srcThread});
      if (src != taskOf.end()) {
        ++o.sendCount[cellOf(binOf(a.sendTime), src->second)];
        o.sendBytes[cellOf(binOf(a.sendTime), src->second)] += a.bytes;
      }
      const auto dst = taskOf.find({a.dstNode, a.dstThread});
      if (dst == taskOf.end()) continue;
      ++o.recvCount[cellOf(binOf(a.recvTime), dst->second)];
      o.recvBytes[cellOf(binOf(a.recvTime), dst->second)] += a.bytes;
      // First receive-ish interval ending exactly at recvTime on the
      // destination thread (same retention rule as the engine's map).
      for (const SlogInterval& r : frame->intervals) {
        if (r.pseudo || r.node != a.dstNode || r.thread != a.dstThread) {
          continue;
        }
        const auto event = static_cast<EventType>(r.stateId);
        if (event != EventType::kMpiRecv && event != EventType::kMpiWait &&
            event != EventType::kMpiIrecv) {
          continue;
        }
        if (r.end() != a.recvTime) continue;
        const Tick lateEnd = std::min(a.sendTime, a.recvTime);
        if (lateEnd > r.start) {
          spreadOracle(o.lateNs, dst->second, r.start, lateEnd - r.start);
        }
        break;
      }
    }
  }
  return o;
}

PipelineResult goldenRun(const std::string& hint) {
  TestProgramOptions workload;
  workload.iterations = 30;
  workload.nodes = 4;
  PipelineOptions options;
  options.dir = makeScratchDir(hint);
  options.name = "metrics";
  // Small frames force many frame boundaries and pseudo records.
  options.convert.targetFrameBytes = 2048;
  options.merge.targetFrameBytes = 2048;
  options.slog.recordsPerFrame = 64;
  return runPipeline(testProgram(workload), options);
}

TEST(MetricsOracle, StreamingMatchesBruteForceOnGoldenTrace) {
  const PipelineResult run = goldenRun("metrics_oracle");
  SlogReader reader(run.slogFile);
  ASSERT_GT(reader.frameIndex().size(), 4u)
      << "fixture too small to exercise the frame loop";

  MetricsOptions options;
  options.bins = 97;  // deliberately not a divisor of anything
  const MetricsStore m = computeMetrics(reader, options);
  ASSERT_EQ(m.taskCount(), 4u);
  const Oracle o = bruteForce(reader, m);

  for (std::uint32_t b = 0; b < m.bins(); ++b) {
    for (std::uint32_t k = 0; k < m.taskCount(); ++k) {
      const std::size_t at = b * m.taskCount() + k;
      for (std::uint32_t c = 0; c < kStateClassCount; ++c) {
        EXPECT_EQ(m.timeNs(static_cast<StateClass>(c), b, k),
                  o.timeNs[c][at])
            << "class " << c << " bin " << b << " task " << k;
      }
      EXPECT_EQ(m.sendCount(b, k), o.sendCount[at]) << b << "/" << k;
      EXPECT_EQ(m.sendBytes(b, k), o.sendBytes[at]) << b << "/" << k;
      EXPECT_EQ(m.recvCount(b, k), o.recvCount[at]) << b << "/" << k;
      EXPECT_EQ(m.recvBytes(b, k), o.recvBytes[at]) << b << "/" << k;
      EXPECT_EQ(m.lateSenderNs(b, k), o.lateNs[at]) << b << "/" << k;
    }
  }

  // The trace must actually exercise the counters.
  std::uint64_t busy = 0, mpi = 0, sends = 0;
  for (std::uint32_t b = 0; b < m.bins(); ++b) {
    for (std::uint32_t k = 0; k < m.taskCount(); ++k) {
      busy += m.timeNs(StateClass::kBusy, b, k);
      mpi += m.timeNs(StateClass::kMpi, b, k);
      sends += m.sendCount(b, k);
    }
  }
  EXPECT_GT(busy, 0u);
  EXPECT_GT(mpi, 0u);
  EXPECT_GT(sends, 0u);
}

TEST(MetricsOracle, ParallelJobsProduceByteIdenticalUtm) {
  const PipelineResult run = goldenRun("metrics_jobs");
  SlogReader reader(run.slogFile);

  // 16 bins keep the store small enough that every job count fans out;
  // at 240 bins this small trace stays on one worker.
  ASSERT_GT(metricsWorkers(4, reader.frameIndex(), 16, 4), 1u)
      << "fixture too small to exercise the parallel path";
  for (const std::uint32_t bins : {16u, 240u}) {
    MetricsOptions seq;
    seq.bins = bins;
    seq.jobs = 1;
    const std::vector<std::uint8_t> a = computeMetrics(reader, seq).encode();
    for (const int jobs : {2, 3, 4}) {
      MetricsOptions par = seq;
      par.jobs = jobs;
      EXPECT_EQ(a, computeMetrics(reader, par).encode())
          << ".utm bytes differ between --jobs 1 and --jobs " << jobs
          << " at " << bins << " bins";
    }
  }
}

std::vector<SlogFrameIndexEntry> frameIndexOf(std::size_t frames,
                                              std::uint64_t entries) {
  std::vector<SlogFrameIndexEntry> index(frames);
  for (std::size_t i = 0; i < frames; ++i) {
    index[i].records = static_cast<std::uint32_t>(
        entries * (i + 1) / frames - entries * i / frames);
  }
  return index;
}

TEST(MetricsWorkers, FanOutOnlyWhereEachWorkerOutweighsItsStore) {
  // perfbench batch-wide: 116 frames, 474,300 entries, 64 tasks.
  const auto wide = frameIndexOf(116, 474'300);
  EXPECT_EQ(metricsWorkers(4, wide, 240, 64), 4u);
  EXPECT_EQ(metricsWorkers(1, wide, 240, 64), 1u);
  EXPECT_EQ(metricsWorkers(4, wide, 10'000, 64), 1u);

  // bench_metrics: 468 frames, 119,612 entries, 4 tasks.
  const auto bench = frameIndexOf(468, 119'612);
  EXPECT_EQ(metricsWorkers(4, bench, 240, 4), 4u);
  EXPECT_EQ(metricsWorkers(4, bench, 1'000, 4), 4u);
  EXPECT_EQ(metricsWorkers(4, bench, 4'000, 4), 3u);
  EXPECT_EQ(metricsWorkers(4, bench, 10'000, 4), 1u);

  // Never more workers than frames; a run with no tasks still scans.
  EXPECT_EQ(metricsWorkers(4, frameIndexOf(2, 100'000), 240, 4), 2u);
  EXPECT_EQ(metricsWorkers(4, frameIndexOf(8, 100'000), 240, 0), 4u);
  EXPECT_EQ(metricsWorkers(4, {}, 240, 4), 0u);
}

// ---------------------------------------------------------------------------
// .utm serialization

TEST(MetricsIo, EncodeDecodeRoundTripsEveryColumn) {
  const PipelineResult run = goldenRun("metrics_io");
  SlogReader reader(run.slogFile);
  MetricsOptions options;
  options.bins = 60;
  const MetricsStore m = computeMetrics(reader, options);

  const std::string path = tempPath("metrics_roundtrip.utm");
  writeMetricsFile(path, m);
  const MetricsReader file(path);
  const MetricsStore& d = file.store();

  EXPECT_EQ(d.origin(), m.origin());
  EXPECT_EQ(d.totalEnd(), m.totalEnd());
  EXPECT_EQ(d.binWidth(), m.binWidth());
  EXPECT_EQ(d.bins(), m.bins());
  EXPECT_EQ(d.tasks(), m.tasks());
  EXPECT_EQ(d.threadsPerTask(), m.threadsPerTask());
  for (std::uint32_t b = 0; b < m.bins(); ++b) {
    for (std::uint32_t k = 0; k < m.taskCount(); ++k) {
      for (std::uint32_t c = 0; c < kStateClassCount; ++c) {
        EXPECT_EQ(d.timeNs(static_cast<StateClass>(c), b, k),
                  m.timeNs(static_cast<StateClass>(c), b, k));
      }
      EXPECT_EQ(d.sendCount(b, k), m.sendCount(b, k));
      EXPECT_EQ(d.sendBytes(b, k), m.sendBytes(b, k));
      EXPECT_EQ(d.recvCount(b, k), m.recvCount(b, k));
      EXPECT_EQ(d.recvBytes(b, k), m.recvBytes(b, k));
      EXPECT_EQ(d.lateSenderNs(b, k), m.lateSenderNs(b, k));
    }
  }
  // Re-encoding the decoded store reproduces the file bytes.
  EXPECT_EQ(d.encode(), m.encode());
}

TEST(MetricsIo, DecodeRejectsCorruptHeader) {
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("metrics_corrupt.slog");
  {
    SlogWriter w(path, SlogOptions{}, profile, twoTaskThreads(), {});
    w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kComplete, 0, 100,
                                  0, 0)));
    w.close();
  }
  SlogReader reader(path);
  std::vector<std::uint8_t> bytes = computeMetrics(reader).encode();
  bytes[0] ^= 0xff;  // break the magic
  EXPECT_THROW(MetricsStore::decode(bytes), FormatError);
  EXPECT_THROW(MetricsStore::decode(std::span<const std::uint8_t>(
                   bytes.data(), 8)),
               FormatError);
}

}  // namespace
}  // namespace ute
