// TraceService semantics tests. The window contract (trace_service.h) is
// checked against an independent reference scan written directly from
// that contract over a bare SlogReader — the service's cached, pooled
// read path must be observably identical to a single-threaded scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "interval/standard_profile.h"
#include "server/trace_service.h"
#include "slog/slog_writer.h"
#include "support/errors.h"
#include "support/thread_annotations.h"

#include <unistd.h>

namespace ute {
namespace {

std::string tempPath(const std::string& name) {
  // Each TEST in this file runs as its own ctest process; prefixing the
  // pid keeps parallel processes from clobbering each other's fixtures.
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
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

/// A multi-frame SLOG with work on two nodes, a long-lived marker (so
/// later frames carry pseudo-intervals), and periodic send/recv pairs
/// (so frames carry arrows).
std::string writeRichSlog(const std::string& name) {
  const std::string path = tempPath(name);
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.recordsPerFrame = 32;
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {{4, "phase"}});
  ByteWriter markerArgs;
  markerArgs.u32(4);
  markerArgs.u64(0x1);
  w.addRecord(viewOf(mergedBody(EventType::kUserMarker, Bebits::kBegin, 0,
                                kMs, 0, 0, markerArgs)));
  for (int i = 1; i <= 300; ++i) {
    const Tick t = static_cast<Tick>(i) * kMs;
    if (i % 25 == 0) {
      ByteWriter sendArgs;
      sendArgs.i32(1);                             // destTask
      sendArgs.i32(3);                             // tag
      sendArgs.u32(256);                           // msgSizeSent
      sendArgs.u32(static_cast<std::uint32_t>(i));  // seqNo
      sendArgs.i32(0);                             // comm
      w.addRecord(viewOf(mergedBody(EventType::kMpiSend, Bebits::kComplete,
                                    t, kMs / 8, 0, 0, sendArgs)));
      ByteWriter recvArgs;
      recvArgs.i32(0);                             // srcWanted
      recvArgs.i32(3);                             // tagWanted
      recvArgs.i32(0);                             // comm
      recvArgs.i32(0);                             // srcTask
      recvArgs.i32(3);                             // tagRecv
      recvArgs.u32(256);                           // msgSizeRecv
      recvArgs.u32(static_cast<std::uint32_t>(i));  // seqNo
      w.addRecord(viewOf(mergedBody(EventType::kMpiRecv, Bebits::kComplete,
                                    t + kMs / 4, kMs / 2, 1, 0, recvArgs)));
    } else {
      w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kComplete, t,
                                    kMs / 2, i % 2, 0)));
    }
  }
  ByteWriter endArgs;
  endArgs.u32(4);
  endArgs.u64(0x2);
  w.addRecord(viewOf(mergedBody(EventType::kUserMarker, Bebits::kEnd,
                                301 * kMs, kMs, 0, 0, endArgs)));
  w.close();
  return path;
}

/// Reference implementation of the window contract, straight from the
/// documentation in trace_service.h, over a bare single-threaded reader.
WindowResult referenceWindow(SlogReader& reader, const WindowQuery& q) {
  WindowResult out;
  out.t0 = std::max(q.t0, reader.totalStart());
  out.t1 = std::min(q.t1, reader.totalEnd());
  const auto stateWanted = [&](std::uint32_t id) {
    return q.states.empty() ||
           std::find(q.states.begin(), q.states.end(), id) != q.states.end();
  };
  bool firstConsulted = true;
  for (std::size_t f = 0; f < reader.frameIndex().size(); ++f) {
    const SlogFrameIndexEntry& e = reader.frameIndex()[f];
    if (e.timeEnd <= out.t0 || e.timeStart >= out.t1) continue;
    const SlogFramePtr frame = reader.readFrame(f);
    for (const SlogInterval& r : frame->intervals) {
      if (r.pseudo && !firstConsulted) continue;
      if (!r.pseudo && (r.end() < out.t0 || r.start > out.t1)) continue;
      if (q.node && r.node != *q.node) continue;
      if (q.thread && r.thread != *q.thread) continue;
      if (!stateWanted(r.stateId)) continue;
      out.intervals.push_back(r);
    }
    for (const SlogArrow& a : frame->arrows) {
      if (a.recvTime < out.t0 || a.sendTime > out.t1) continue;
      if (q.node && a.srcNode != *q.node && a.dstNode != *q.node) continue;
      if (q.thread && a.srcThread != *q.thread && a.dstThread != *q.thread)
        continue;
      out.arrows.push_back(a);
    }
    firstConsulted = false;
  }
  return out;
}

void expectSameWindow(const WindowResult& got, const WindowResult& want) {
  EXPECT_EQ(got.t0, want.t0);
  EXPECT_EQ(got.t1, want.t1);
  ASSERT_EQ(got.intervals.size(), want.intervals.size());
  for (std::size_t i = 0; i < got.intervals.size(); ++i) {
    const SlogInterval& a = got.intervals[i];
    const SlogInterval& b = want.intervals[i];
    EXPECT_EQ(a.stateId, b.stateId) << i;
    EXPECT_EQ(a.pseudo, b.pseudo) << i;
    EXPECT_EQ(a.start, b.start) << i;
    EXPECT_EQ(a.dura, b.dura) << i;
    EXPECT_EQ(a.node, b.node) << i;
    EXPECT_EQ(a.thread, b.thread) << i;
  }
  ASSERT_EQ(got.arrows.size(), want.arrows.size());
  for (std::size_t i = 0; i < got.arrows.size(); ++i) {
    EXPECT_EQ(got.arrows[i].sendTime, want.arrows[i].sendTime) << i;
    EXPECT_EQ(got.arrows[i].recvTime, want.arrows[i].recvTime) << i;
    EXPECT_EQ(got.arrows[i].srcNode, want.arrows[i].srcNode) << i;
    EXPECT_EQ(got.arrows[i].dstNode, want.arrows[i].dstNode) << i;
  }
}

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    path_ = new std::string(writeRichSlog("service_test.slog"));
  }
  static void TearDownTestSuite() {
    delete path_;
    path_ = nullptr;
  }
  static std::string* path_;
};

std::string* ServiceTest::path_ = nullptr;

TEST_F(ServiceTest, WindowMatchesReferenceScanAcrossManyWindows) {
  TraceService service({*path_});
  SlogReader reference(*path_);
  const Tick end = reference.totalEnd();
  // Windows at frame boundaries, mid-frame, whole run, and odd offsets.
  const std::vector<std::pair<Tick, Tick>> windows = {
      {0, end},
      {10 * kMs, 50 * kMs},
      {37 * kMs + 123, 222 * kMs + 7},
      {reference.frameIndex()[2].timeStart, reference.frameIndex()[5].timeEnd},
      {reference.frameIndex()[3].timeStart, reference.frameIndex()[3].timeEnd},
      {end - kMs, end},
      {0, 1},
  };
  for (const auto& [t0, t1] : windows) {
    WindowQuery q;
    q.t0 = t0;
    q.t1 = t1;
    SCOPED_TRACE("window [" + std::to_string(t0) + ", " + std::to_string(t1) +
                 ")");
    expectSameWindow(service.window(0, q), referenceWindow(reference, q));
  }
}

TEST_F(ServiceTest, FiltersMatchReferenceScan) {
  TraceService service({*path_});
  SlogReader reference(*path_);
  WindowQuery q;
  q.t0 = 0;
  q.t1 = reference.totalEnd();

  q.node = 1;
  expectSameWindow(service.window(0, q), referenceWindow(reference, q));
  const auto onlyNode1 = service.window(0, q);
  for (const SlogInterval& r : onlyNode1.intervals) EXPECT_EQ(r.node, 1);

  q.node.reset();
  q.thread = 0;
  expectSameWindow(service.window(0, q), referenceWindow(reference, q));

  q.thread.reset();
  q.states = {static_cast<std::uint32_t>(EventType::kMpiSend)};
  const auto onlySends = service.window(0, q);
  expectSameWindow(onlySends, referenceWindow(reference, q));
  ASSERT_FALSE(onlySends.intervals.empty());
  for (const SlogInterval& r : onlySends.intervals) {
    EXPECT_EQ(r.stateId, static_cast<std::uint32_t>(EventType::kMpiSend));
  }
  // State filters never apply to arrows.
  EXPECT_FALSE(onlySends.arrows.empty());
}

TEST_F(ServiceTest, SummaryAgreesWithPreviewTotals) {
  TraceService service({*path_});
  const SlogReader& reader = service.trace(0);
  const auto summary =
      service.summary(0, reader.totalStart(), reader.totalEnd());
  ASSERT_FALSE(summary.empty());
  // Entries sorted by stateId, no zero totals.
  for (std::size_t i = 1; i < summary.size(); ++i) {
    EXPECT_LT(summary[i - 1].stateId, summary[i].stateId);
  }
  for (const SummaryEntry& e : summary) EXPECT_GT(e.ns, 0.0);
  // The preview histogram allocates the same durations across bins, so
  // per-state totals must agree (up to floating-point allocation error).
  const SlogPreview& preview = reader.preview();
  for (std::size_t s = 0; s < reader.states().size(); ++s) {
    double previewTotal = 0;
    for (double v : preview.perStateBinTime[s]) previewTotal += v;
    double summaryTotal = 0;
    for (const SummaryEntry& e : summary) {
      if (e.stateId == reader.states()[s].id) summaryTotal = e.ns;
    }
    EXPECT_NEAR(summaryTotal, previewTotal, 16.0)
        << "state " << reader.states()[s].name;
  }
}

TEST_F(ServiceTest, FrameAtReturnsTheContainingFrame) {
  TraceService service({*path_});
  const SlogReader& reader = service.trace(0);
  const Tick mid =
      reader.totalStart() + (reader.totalEnd() - reader.totalStart()) / 2;
  const FrameAtResult r = service.frameAt(0, mid);
  EXPECT_LE(r.entry.timeStart, mid);
  EXPECT_GE(r.entry.timeEnd, mid);
  EXPECT_EQ(r.entry.records, reader.frameIndex()[r.frameIdx].records);
  ASSERT_NE(r.frame, nullptr);
  EXPECT_FALSE(r.frame->intervals.empty());
}

TEST_F(ServiceTest, ErrorsAreTyped) {
  TraceService service({*path_});
  EXPECT_THROW(service.trace(7), UsageError);
  WindowQuery any;
  any.t0 = 0;
  any.t1 = 100;
  EXPECT_THROW(service.window(7, any), UsageError);
  WindowQuery inverted;
  inverted.t0 = 100;
  inverted.t1 = 100;
  EXPECT_THROW(service.window(0, inverted), UsageError);
  EXPECT_THROW(service.summary(0, 50, 40), UsageError);
  EXPECT_THROW(service.frameAt(0, service.trace(0).totalEnd() + kMs),
               UsageError);
  EXPECT_THROW(service.frame(0, 1u << 20), UsageError);
}

TEST_F(ServiceTest, RepeatedWindowsHitTheCache) {
  ServiceOptions options;
  options.cacheBytes = 256u << 20;  // everything fits
  TraceService service({*path_}, options);
  WindowQuery q;
  q.t0 = 10 * kMs;
  q.t1 = 200 * kMs;
  const auto first = service.window(0, q);
  for (int i = 0; i < 19; ++i) {
    const auto again = service.window(0, q);
    ASSERT_EQ(again.intervals.size(), first.intervals.size());
  }
  const FrameCache::Stats stats = service.cache().stats();
  const double hitRate =
      static_cast<double>(stats.hits) /
      static_cast<double>(stats.hits + stats.misses);
  EXPECT_GT(hitRate, 0.9) << stats.hits << " hits / " << stats.misses
                          << " misses";
  EXPECT_EQ(stats.evictions, 0u);
}

TEST_F(ServiceTest, TinyCacheStillAnswersCorrectly) {
  ServiceOptions options;
  options.cacheBytes = 1;  // every frame evicts the last — pure churn
  TraceService service({*path_}, options);
  SlogReader reference(*path_);
  WindowQuery q;
  q.t0 = 0;
  q.t1 = reference.totalEnd();
  expectSameWindow(service.window(0, q), referenceWindow(reference, q));
  EXPECT_GT(service.cache().stats().evictions, 0u);
}

TEST_F(ServiceTest, MetricsScanKeepsHotFramesCached) {
  SlogReader reference(*path_);
  const std::size_t frames = reference.frameIndex().size();
  ASSERT_GE(frames, 8u);
  std::size_t largest = 0;
  for (std::size_t f = 0; f < frames; ++f) {
    largest = std::max(largest, FrameCache::frameBytes(*reference.readFrame(f)));
  }
  ServiceOptions options;
  options.cacheBytes = 4 * largest;  // half the file or less
  TraceService service({*path_}, options);
  WindowQuery q;
  q.t0 = 100 * kMs;
  q.t1 = 110 * kMs;
  for (int i = 0; i < 5; ++i) service.window(0, q);

  // A metrics request at a bin count not computed yet walks every frame
  // through the cache once.
  service.metrics(0, 77);
  const FrameCache::Stats before = service.cache().stats();
  EXPECT_GE(before.misses, frames);
  service.window(0, q);
  const FrameCache::Stats after = service.cache().stats();
  EXPECT_EQ(after.misses, before.misses) << "the scan evicted the hot window";
  EXPECT_GT(after.hits, before.hits);
}

TEST_F(ServiceTest, PoolBackpressureRejectsWhenFull) {
  ServiceOptions options;
  options.workers = 1;
  options.queueDepth = 1;
  TraceService service({*path_}, options);

  Mutex mu;
  CondVar cv;
  bool release = false;
  std::atomic<bool> started{false};
  ASSERT_TRUE(service.pool().trySubmit([&] {
    started = true;
    MutexLock lock(mu);
    while (!release) cv.wait(mu);
  }));
  while (!started) std::this_thread::yield();  // worker now busy

  EXPECT_TRUE(service.pool().trySubmit([] {}));   // fills the queue slot
  EXPECT_FALSE(service.pool().trySubmit([] {}));  // explicit rejection
  EXPECT_FALSE(service.pool().trySubmit([] {}));

  {
    MutexLock lock(mu);
    release = true;
  }
  cv.notifyAll();
  service.pool().shutdown();  // drains the queued no-op
  const ThreadPool::Stats stats = service.pool().stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.executed, 2u);
}

TEST_F(ServiceTest, MultipleTracesAreIndependent) {
  const std::string second = writeRichSlog("service_test_b.slog");
  TraceService service({*path_, second});
  EXPECT_EQ(service.traceCount(), 2u);
  WindowQuery q;
  q.t0 = 0;
  q.t1 = service.trace(1).totalEnd();
  const auto a = service.window(0, q);
  const auto b = service.window(1, q);
  EXPECT_EQ(a.intervals.size(), b.intervals.size());  // same generator
}

}  // namespace
}  // namespace ute
