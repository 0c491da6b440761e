// TraceService semantics tests. The window contract (trace_service.h) is
// checked against an independent reference scan written directly from
// that contract over a bare SlogReader — the service's cached, pooled
// read path must be observably identical to a single-threaded scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <thread>
#include <tuple>

#include "interval/standard_profile.h"
#include "server/trace_service.h"
#include "slog/slog_codec.h"
#include "slog/slog_writer.h"
#include "support/errors.h"
#include "support/file_io.h"
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

ByteWriter markerArgs(std::uint32_t markerId, std::uint64_t value) {
  ByteWriter args;
  args.u32(markerId);
  args.u64(value);
  return args;
}

ByteWriter sendArgs(std::uint32_t seqNo) {
  ByteWriter args;
  args.i32(1);      // destTask
  args.i32(3);      // tag
  args.u32(256);    // msgSizeSent
  args.u32(seqNo);  // seqNo
  args.i32(0);      // comm
  return args;
}

ByteWriter recvArgs(std::uint32_t seqNo) {
  ByteWriter args;
  args.i32(0);      // srcWanted
  args.i32(3);      // tagWanted
  args.i32(0);      // comm
  args.i32(0);      // srcTask
  args.i32(3);      // tagRecv
  args.u32(256);    // msgSizeRecv
  args.u32(seqNo);  // seqNo
  return args;
}

/// A multi-frame SLOG with work on two nodes, a long-lived marker (so
/// later frames carry pseudo-intervals), and periodic send/recv pairs
/// (so frames carry arrows).
std::string writeRichSlog(const std::string& name,
                          std::uint32_t version = kSlogVersion) {
  const std::string path = tempPath(name);
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.recordsPerFrame = 32;
  options.formatVersion = version;
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {{4, "phase"}});
  w.addRecord(viewOf(mergedBody(EventType::kUserMarker, Bebits::kBegin, 0,
                                kMs, 0, 0, markerArgs(4, 0x1))));
  for (int i = 1; i <= 300; ++i) {
    const Tick t = static_cast<Tick>(i) * kMs;
    if (i % 25 == 0) {
      const auto seqNo = static_cast<std::uint32_t>(i);
      w.addRecord(viewOf(mergedBody(EventType::kMpiSend, Bebits::kComplete,
                                    t, kMs / 8, 0, 0, sendArgs(seqNo))));
      w.addRecord(viewOf(mergedBody(EventType::kMpiRecv, Bebits::kComplete,
                                    t + kMs / 4, kMs / 2, 1, 0,
                                    recvArgs(seqNo))));
    } else {
      w.addRecord(viewOf(mergedBody(kRunningState, Bebits::kComplete, t,
                                    kMs / 2, i % 2, 0)));
    }
  }
  w.addRecord(viewOf(mergedBody(EventType::kUserMarker, Bebits::kEnd,
                                301 * kMs, kMs, 0, 0, markerArgs(4, 0x2))));
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

/// A SLOG of ~200-record frames: intervals of mixed lengths on three
/// nodes (so start order differs from end order), two long-lived markers
/// (pseudo-intervals in many frames) and send/recv pairs (arrows). The
/// writer gets the records in ascending end order, as from a merge.
std::string writeRandomSlog(const std::string& name, std::uint32_t version,
                            std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto uniform = [&](Tick lo, Tick hi) {
    return std::uniform_int_distribution<Tick>(lo, hi)(rng);
  };
  struct Piece {
    Tick end;
    ByteWriter body;
  };
  std::vector<Piece> pieces;
  const auto add = [&](EventType event, Bebits bebits, Tick start, Tick dura,
                       NodeId node, LogicalThreadId thread,
                       const ByteWriter& args = {}) {
    pieces.push_back(
        {start + dura, mergedBody(event, bebits, start, dura, node, thread,
                                  args)});
  };
  constexpr Tick kRun = 400 * kMs;
  add(EventType::kUserMarker, Bebits::kBegin, 0, kMs, 0, 0, markerArgs(4, 1));
  add(EventType::kUserMarker, Bebits::kEnd, kRun, kMs, 0, 0,
      markerArgs(4, 2));
  add(EventType::kUserMarker, Bebits::kBegin, kRun * 3 / 10, kMs, 2, 1,
      markerArgs(5, 1));
  add(EventType::kUserMarker, Bebits::kEnd, kRun * 7 / 10, kMs, 2, 1,
      markerArgs(5, 2));
  const EventType kinds[] = {kRunningState, EventType::kIoRead,
                             EventType::kIoWrite};
  for (std::uint32_t i = 0; i < 1500; ++i) {
    const Tick start = uniform(kMs, kRun - kMs);
    const Tick size = uniform(0, 19);
    const Tick dura = size < 15   ? uniform(1, 2 * kMs)
                      : size < 19 ? uniform(2 * kMs, 20 * kMs)
                                  : uniform(20 * kMs, 150 * kMs);
    const auto node = static_cast<NodeId>(uniform(0, 2));
    const auto thread = static_cast<LogicalThreadId>(uniform(0, 1));
    if (i % 40 == 0) {
      add(EventType::kMpiSend, Bebits::kComplete, start, kMs / 8, node,
          thread, sendArgs(i + 1));
      add(EventType::kMpiRecv, Bebits::kComplete, start + kMs / 4, kMs / 2,
          (node + 1) % 3, thread, recvArgs(i + 1));
    } else {
      const EventType kind = kinds[uniform(0, 2)];
      ByteWriter ioBytes;  // the I/O states' byte count
      if (kind != kRunningState) ioBytes.u32(4096);
      add(kind, Bebits::kComplete, start, dura, node, thread, ioBytes);
    }
  }
  std::stable_sort(
      pieces.begin(), pieces.end(),
      [](const Piece& a, const Piece& b) { return a.end < b.end; });

  const std::string path = tempPath(name);
  SlogOptions options;
  options.recordsPerFrame = 200;
  options.formatVersion = version;
  std::vector<ThreadEntry> threads;
  for (NodeId node = 0; node < 3; ++node) {
    for (LogicalThreadId thread = 0; thread < 2; ++thread) {
      threads.push_back({node, 1000 + node, 10000 + node, node, thread,
                         ThreadType::kMpi});
    }
  }
  const Profile profile = makeStandardProfile();  // the writer keeps a ref
  SlogWriter w(path, options, profile, threads, {{4, "phase"}, {5, "io"}});
  for (const Piece& p : pieces) w.addRecord(viewOf(p.body));
  w.close();
  return path;
}

/// One frame of a crafted SLOG file.
struct CraftedFrame {
  Tick timeStart = 0;
  Tick timeEnd = 0;
  SlogFrameData data;
};

/// Writes a SLOG file straight from `frames`, bypassing SlogWriter, so a
/// test can store a frame layout the writer never produces.
std::string writeCraftedSlog(const std::string& name, std::uint32_t version,
                             const std::vector<CraftedFrame>& frames) {
  constexpr std::uint64_t kHeaderBytes = 64;
  const std::vector<ThreadEntry> threads = {
      {0, 1000, 10000, 0, 0, ThreadType::kMpi},
      {1, 1001, 10001, 1, 0, ThreadType::kMpi},
      {2, 1002, 10002, 2, 1, ThreadType::kMpi}};
  const std::vector<SlogStateDef> states = {
      {static_cast<std::uint32_t>(kRunningState), "Running", 0x4c72b0},
      {static_cast<std::uint32_t>(EventType::kIoRead), "IoRead", 0xdd8452},
      {static_cast<std::uint32_t>(EventType::kIoWrite), "IoWrite",
       0x55a868}};
  ByteWriter body;  // everything after the header
  for (const ThreadEntry& t : threads) putThreadEntry(body, t);
  std::vector<SlogFrameIndexEntry> index;
  for (const CraftedFrame& f : frames) {
    SlogFrameIndexEntry e;
    e.offset = kHeaderBytes + body.size();
    e.records = static_cast<std::uint32_t>(f.data.intervals.size() +
                                           f.data.arrows.size());
    e.timeStart = f.timeStart;
    e.timeEnd = f.timeEnd;
    if (version >= 2) {
      std::vector<std::uint8_t> payload;
      encodeColumnarFrame(f.data.intervals, f.data.arrows, payload);
      body.bytes(payload);
      e.encoding = static_cast<std::uint32_t>(FrameEncoding::kColumnar);
    } else {
      for (const SlogInterval& r : f.data.intervals) {
        body.u8(0);
        putRowInterval(body, r);
      }
      for (const SlogArrow& a : f.data.arrows) {
        body.u8(1);
        putRowArrow(body, a);
      }
    }
    e.sizeBytes =
        static_cast<std::uint32_t>(kHeaderBytes + body.size() - e.offset);
    index.push_back(e);
  }
  const std::uint64_t indexOffset = kHeaderBytes + body.size();
  for (const SlogFrameIndexEntry& e : index) {
    putFrameIndexEntry(body, e);
    if (version >= 2) body.u32(e.encoding);
  }
  const std::uint64_t stateOffset = kHeaderBytes + body.size();
  for (const SlogStateDef& s : states) putStateDef(body, s);
  const std::uint64_t previewOffset = kHeaderBytes + body.size();
  SlogPreview preview;
  preview.origin = frames.front().timeStart;
  preview.binWidth = frames.back().timeEnd - frames.front().timeStart;
  preview.bins = 1;
  preview.perStateBinTime.assign(states.size(), {0.0});
  putPreviewHead(body, preview);
  putPreviewRows(body, preview);

  ByteWriter file;
  file.u32(kSlogMagic);
  file.u32(version);
  file.u32(static_cast<std::uint32_t>(states.size()));
  file.u32(static_cast<std::uint32_t>(threads.size()));
  file.u32(static_cast<std::uint32_t>(frames.size()));
  file.u32(0);  // records per frame (informational)
  file.u64(frames.front().timeStart);
  file.u64(frames.back().timeEnd);
  file.u64(indexOffset);
  file.u64(stateOffset);
  file.u64(previewOffset);
  file.bytes(body.view());
  const std::string path = tempPath(name);
  writeWholeFile(path, file.view());
  return path;
}

/// Three 100 ms frames of ~200 intervals each. Frame 0 has the layout
/// SlogWriter writes: one pseudo-interval first, then real intervals in
/// ascending end order. Frame 1 also holds a pseudo-interval after real
/// ones; frame 2 has one descending end.
std::vector<CraftedFrame> misorderedFrames() {
  std::mt19937 rng(7);
  const auto uniform = [&](Tick lo, Tick hi) {
    return std::uniform_int_distribution<Tick>(lo, hi)(rng);
  };
  const std::uint32_t stateIds[] = {
      static_cast<std::uint32_t>(kRunningState),
      static_cast<std::uint32_t>(EventType::kIoRead),
      static_cast<std::uint32_t>(EventType::kIoWrite)};
  std::vector<CraftedFrame> frames(3);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    CraftedFrame& frame = frames[f];
    frame.timeStart = f * 100 * kMs;
    frame.timeEnd = (f + 1) * 100 * kMs;
    SlogInterval pseudo;
    pseudo.stateId = stateIds[f];
    pseudo.pseudo = true;
    pseudo.start = frame.timeStart;
    pseudo.node = 1;
    frame.data.intervals.push_back(pseudo);
    std::vector<SlogInterval> real;
    for (int i = 0; i < 200; ++i) {
      SlogInterval r;
      r.stateId = stateIds[uniform(0, 2)];
      const Tick end = uniform(frame.timeStart + 1, frame.timeEnd);
      r.dura = std::min(end, i % 10 == 0 ? uniform(10 * kMs, 60 * kMs)
                                         : uniform(1, kMs));
      r.start = end - r.dura;
      r.node = static_cast<NodeId>(uniform(0, 2));
      r.thread = static_cast<LogicalThreadId>(r.node == 2 ? 1 : 0);
      real.push_back(r);
    }
    std::stable_sort(real.begin(), real.end(),
                     [](const SlogInterval& a, const SlogInterval& b) {
                       return a.end() < b.end();
                     });
    frame.data.intervals.insert(frame.data.intervals.end(), real.begin(),
                                real.end());
    for (int i = 0; i < 12; ++i) {
      SlogArrow a;
      a.sendTime = uniform(frame.timeStart, frame.timeEnd - kMs);
      a.recvTime = a.sendTime + uniform(1, kMs);
      a.srcNode = static_cast<NodeId>(i % 3);
      a.dstNode = static_cast<NodeId>((i + 1) % 3);
      a.srcThread = a.srcNode == 2 ? 1 : 0;
      a.dstThread = a.dstNode == 2 ? 1 : 0;
      a.bytes = 64;
      frame.data.arrows.push_back(a);
    }
  }
  auto& late = frames[1].data.intervals;
  SlogInterval stray = late.front();
  stray.node = 2;
  stray.thread = 1;
  late.insert(late.begin() + 120, stray);
  auto& descending = frames[2].data.intervals;
  std::swap(descending[50], descending[150]);
  return frames;
}

/// Reference summary straight from its contract: the non-pseudo
/// intervals of every frame the linear definition selects, clipped to
/// the clamped window and added into a map in record order.
std::vector<SummaryEntry> referenceSummary(SlogReader& reader, Tick t0,
                                           Tick t1) {
  t0 = std::max(t0, reader.totalStart());
  t1 = std::min(t1, reader.totalEnd());
  std::map<std::uint32_t, double> perState;
  for (std::size_t f = 0; f < reader.frameIndex().size(); ++f) {
    const SlogFrameIndexEntry& e = reader.frameIndex()[f];
    if (e.timeEnd <= t0 || e.timeStart >= t1) continue;
    const SlogFramePtr frame = reader.readFrame(f);
    for (const SlogInterval& r : frame->intervals) {
      if (r.pseudo) continue;
      const Tick lo = std::max(r.start, t0);
      const Tick hi = std::min(r.end(), t1);
      if (hi <= lo) continue;
      perState[r.stateId] += static_cast<double>(hi - lo);
    }
  }
  std::vector<SummaryEntry> out;
  for (const auto& [stateId, ns] : perState) out.push_back({stateId, ns});
  return out;
}

/// The frames [first, last] that framesOverlapping's documentation
/// defines, found by testing every index entry.
std::optional<std::pair<std::size_t, std::size_t>> linearFramesOverlapping(
    const SlogReader& reader, Tick t0, Tick t1) {
  std::optional<std::pair<std::size_t, std::size_t>> span;
  const auto& index = reader.frameIndex();
  for (std::size_t f = 0; f < index.size(); ++f) {
    if (index[f].timeEnd <= t0 || index[f].timeStart >= t1) continue;
    if (!span) span.emplace(f, f);
    span->second = f;
  }
  return span;
}

/// Window edges a bounded scan could get wrong: frame edges, interval
/// starts and ends (and one tick either side), points outside the run,
/// and uniform points.
class EdgePicker {
 public:
  EdgePicker(SlogReader& reader, std::uint32_t seed) : rng_(seed) {
    for (const SlogFrameIndexEntry& e : reader.frameIndex()) {
      frameEdges_.push_back(e.timeStart);
      frameEdges_.push_back(e.timeEnd);
    }
    for (std::size_t f = 0; f < reader.frameIndex().size(); ++f) {
      const SlogFramePtr frame = reader.readFrame(f);
      for (const SlogInterval& r : frame->intervals) {
        recordEdges_.push_back(r.start);
        recordEdges_.push_back(r.end());
      }
    }
    lo_ = reader.totalStart();
    hi_ = reader.totalEnd();
  }

  Tick pick() {
    const Tick span = hi_ - lo_;
    switch (below(6)) {
      case 0:
        return frameEdges_[below(frameEdges_.size())];
      case 1:
        return recordEdges_[below(recordEdges_.size())];
      case 2:
        return recordEdges_[below(recordEdges_.size())] + 1;
      case 3:
        return recordEdges_[below(recordEdges_.size())] - 1;
      case 4:  // up to a tenth of the run beyond either end
        return lo_ - std::min(lo_, span / 10) + below(span + span / 5 + 1);
      default:
        return lo_ + below(span + 1);
    }
  }

  /// A window of two picked edges, or (one time in eight) one spanning
  /// from the run's first quarter to its last.
  std::pair<Tick, Tick> window() {
    Tick t0 = pick();
    Tick t1 = pick();
    if (below(8) == 0) {
      t0 = lo_ + below((hi_ - lo_) / 4 + 1);
      t1 = hi_ - below((hi_ - lo_) / 4 + 1);
    }
    if (t1 < t0) std::swap(t0, t1);
    if (t1 == t0) ++t1;
    return {t0, t1};
  }

  std::size_t below(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

 private:
  std::mt19937 rng_;
  std::vector<Tick> frameEdges_;
  std::vector<Tick> recordEdges_;
  Tick lo_ = 0;
  Tick hi_ = 0;
};

/// Cycles the window filters: none, node, thread, one state, two states,
/// and all three at once.
void applyFilter(int round, WindowQuery& q) {
  switch (round % 6) {
    case 1:
      q.node = static_cast<NodeId>(round % 3);
      break;
    case 2:
      q.thread = static_cast<LogicalThreadId>(round % 2);
      break;
    case 3:
      q.states = {static_cast<std::uint32_t>(kRunningState)};
      break;
    case 4:
      q.states = {static_cast<std::uint32_t>(EventType::kIoWrite),
                  static_cast<std::uint32_t>(EventType::kMpiSend)};
      break;
    case 5:
      q.node = 1;
      q.thread = 0;
      q.states = {static_cast<std::uint32_t>(EventType::kIoRead),
                  static_cast<std::uint32_t>(kRunningState)};
      break;
    default:
      break;
  }
}

/// `rounds` random windows over `path`: each window and its summary must
/// equal the reference scans, and a window no frame overlaps must be
/// refused by both.
void expectRandomQueriesMatchReference(const std::string& path, int rounds,
                                       std::uint32_t seed) {
  TraceService service({path});
  SlogReader reference(path);
  EdgePicker picker(reference, seed);
  for (int round = 0; round < rounds; ++round) {
    WindowQuery q;
    std::tie(q.t0, q.t1) = picker.window();
    applyFilter(round, q);
    SCOPED_TRACE("round " + std::to_string(round) + ": window [" +
                 std::to_string(q.t0) + ", " + std::to_string(q.t1) + ")");
    const Tick t0 = std::max(q.t0, reference.totalStart());
    const Tick t1 = std::min(q.t1, reference.totalEnd());
    if (t1 <= t0 || !linearFramesOverlapping(reference, t0, t1)) {
      EXPECT_THROW(service.window(0, q), ServiceError);
      if (t1 <= t0) {
        EXPECT_THROW(service.summary(0, q.t0, q.t1), ServiceError);
      }
      continue;
    }
    expectSameWindow(service.window(0, q), referenceWindow(reference, q));
    const std::vector<SummaryEntry> got = service.summary(0, q.t0, q.t1);
    const std::vector<SummaryEntry> want =
        referenceSummary(reference, q.t0, q.t1);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].stateId, want[i].stateId) << i;
      EXPECT_EQ(got[i].ns, want[i].ns) << i;  // bit-identical sums
    }
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

TEST_F(ServiceTest, RandomWindowsAndSummariesMatchReferenceScans) {
  // The rich fixture in both encodings, then ~200-record frames whose
  // long intervals make start order differ from end order.
  expectRandomQueriesMatchReference(*path_, 300, 1);
  expectRandomQueriesMatchReference(writeRichSlog("rich_v1.slog", 1), 300, 2);
  for (const std::uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const std::string path = writeRandomSlog(
        "random_v" + std::to_string(version) + ".slog", version, 11);
    ASSERT_GE(SlogReader(path).frameIndex().size(), 6u);
    TraceService service({path});
    for (std::size_t f = 0; f < service.trace(0).frameIndex().size(); ++f) {
      EXPECT_FALSE(service.frame(0, f)->startFloors.empty()) << f;
    }
    expectRandomQueriesMatchReference(path, 600, 3 + version);
  }
}

TEST_F(ServiceTest, FramesOverlappingMatchesLinearDefinition) {
  for (const std::string& path :
       {*path_, writeRandomSlog("edges.slog", kSlogVersion, 5)}) {
    const SlogReader reader(path);
    std::vector<Tick> edges = {0, reader.totalEnd() + 1};
    for (const SlogFrameIndexEntry& e : reader.frameIndex()) {
      for (const Tick t : {e.timeStart, e.timeEnd}) {
        edges.push_back(t);
        edges.push_back(t + 1);
        if (t > 0) edges.push_back(t - 1);
      }
      edges.push_back(e.timeStart + (e.timeEnd - e.timeStart) / 2);
    }
    for (const Tick t0 : edges) {
      for (const Tick t1 : edges) {
        EXPECT_EQ(reader.framesOverlapping(t0, t1),
                  linearFramesOverlapping(reader, t0, t1))
            << "[" << t0 << ", " << t1 << ")";
      }
    }
  }
}

TEST(ServiceLayout, MisorderedFramesMatchReferenceScan) {
  const std::vector<CraftedFrame> frames = misorderedFrames();
  for (const std::uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const std::string path = writeCraftedSlog(
        "misordered_v" + std::to_string(version) + ".slog", version, frames);
    expectRandomQueriesMatchReference(path, 600, 9 + version);
    // Only the frame in the writer's layout got a time index; the other
    // two were read whole.
    TraceService indexed({path});
    EXPECT_FALSE(indexed.frame(0, 0)->startFloors.empty());
    EXPECT_TRUE(indexed.frame(0, 1)->startFloors.empty());
    EXPECT_TRUE(indexed.frame(0, 2)->startFloors.empty());
    // Windows inside each frame, and one over all three.
    TraceService service({path});
    SlogReader reference(path);
    for (std::size_t f = 0; f <= frames.size(); ++f) {
      WindowQuery q;
      q.t0 = f < frames.size() ? frames[f].timeStart + 30 * kMs : 0;
      q.t1 = f < frames.size() ? frames[f].timeEnd - 30 * kMs
                               : frames.back().timeEnd;
      expectSameWindow(service.window(0, q), referenceWindow(reference, q));
    }
  }
}

}  // namespace
}  // namespace ute
