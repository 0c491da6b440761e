// Event-to-interval conversion tests (Section 3.1): begin/end matching,
// piece splitting on thread dispatch, nested markers, Running synthesis,
// bebits accounting, and cross-task marker unification — on hand-crafted
// raw traces where every expected interval is known exactly.
#include "convert/converter.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "interval/file_reader.h"
#include "interval/record.h"
#include "interval/standard_profile.h"
#include "trace/writer.h"
#include "temp_dir.h"

#include <unistd.h>

namespace ute {
namespace {

struct Rec {
  EventType type;
  Bebits bebits;
  Tick start;
  Tick dura;
  CpuId cpu;
  LogicalThreadId thread;
  std::vector<std::uint8_t> body;
};

std::vector<Rec> convertAndRead(const std::string& rawPath,
                                const std::string& outPath) {
  MarkerUnifier markers;
  EventToIntervalConverter converter(markers);
  converter.convertFile(rawPath, outPath);
  IntervalFileReader reader(outPath);
  std::vector<Rec> out;
  auto stream = reader.records();
  RecordView view;
  while (stream.next(view)) {
    out.push_back({view.eventType(), view.bebits(), view.start, view.dura,
                   view.cpu, view.node, {view.body.begin(), view.body.end()}});
    out.back().thread = view.thread;
  }
  return out;
}

/// A session pre-loaded with one thread-info record for ltid 0 (task 0).
std::unique_ptr<TraceSession> newSession(const std::string& prefix,
                                         int nThreads = 1) {
  TraceOptions options;
  options.filePrefix = tempPath(prefix);
  auto session = std::make_unique<TraceSession>(options, /*node=*/0, 4);
  for (int i = 0; i < nThreads; ++i) {
    session->cut(EventType::kThreadInfo, 0, 0, i, 0,
                 payloadThreadInfo(i, 1000, 10000 + i, 0, ThreadType::kMpi));
  }
  return session;
}

TEST(Convert, UninterruptedCallBecomesCompleteInterval) {
  auto session = newSession("conv_complete");
  const std::string raw = session->filePath();
  session->cut(EventType::kThreadDispatch, 0, 2, 0, 100,
               payloadThreadDispatch(-1, 0));
  session->cut(EventType::kMpiSend, kFlagBegin, 2, 0, 200,
               payloadMpiSend(1, 7, 512, 1, 0));
  session->cut(EventType::kMpiSend, kFlagEnd, 2, 0, 260, ByteWriter{});
  session->cut(EventType::kThreadDispatch, 0, 2, -1, 400,
               payloadThreadDispatch(0, -1, /*oldExited=*/true));
  session->close();

  const auto recs = convertAndRead(raw, tempPath("conv_complete.uti"));
  // Running begin [100,200), MPI_Send complete [200,260), Running end
  // [260,400).
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].type, kRunningState);
  EXPECT_EQ(recs[0].bebits, Bebits::kBegin);
  EXPECT_EQ(recs[0].start, 100u);
  EXPECT_EQ(recs[0].dura, 100u);
  EXPECT_EQ(recs[0].cpu, 2);

  EXPECT_EQ(recs[1].type, EventType::kMpiSend);
  EXPECT_EQ(recs[1].bebits, Bebits::kComplete);
  EXPECT_EQ(recs[1].start, 200u);
  EXPECT_EQ(recs[1].dura, 60u);

  EXPECT_EQ(recs[2].type, kRunningState);
  EXPECT_EQ(recs[2].bebits, Bebits::kEnd);
  EXPECT_EQ(recs[2].start, 260u);
  EXPECT_EQ(recs[2].dura, 140u);
}

TEST(Convert, DeschedulingSplitsCallIntoPieces) {
  auto session = newSession("conv_pieces", 2);
  const std::string raw = session->filePath();
  // Thread 0 enters a recv, is descheduled twice during it, resumes on a
  // different cpu, then exits the call: begin + continuation + end.
  session->cut(EventType::kThreadDispatch, 0, 0, 0, 100,
               payloadThreadDispatch(-1, 0));
  session->cut(EventType::kMpiRecv, kFlagBegin, 0, 0, 150,
               payloadMpiRecvEntry(-1, 9, 0));
  session->cut(EventType::kThreadDispatch, 0, 0, 1, 200,
               payloadThreadDispatch(0, 1));  // 0 out, 1 in
  session->cut(EventType::kThreadDispatch, 0, 1, 0, 300,
               payloadThreadDispatch(1, 0));  // 0 back in on cpu 1
  session->cut(EventType::kThreadDispatch, 0, 1, 1, 350,
               payloadThreadDispatch(0, 1));  // 0 out again
  session->cut(EventType::kThreadDispatch, 0, 3, 0, 420,
               payloadThreadDispatch(1, 0));  // 0 in on cpu 3
  session->cut(EventType::kMpiRecv, kFlagEnd, 3, 0, 500,
               payloadMpiRecvExit(2, 9, 64, 5));
  session->cut(EventType::kThreadDispatch, 0, 3, -1, 600,
               payloadThreadDispatch(0, -1, true));
  session->cut(EventType::kThreadDispatch, 0, 1, -1, 650,
               payloadThreadDispatch(1, -1, true));
  session->close();

  const auto recs = convertAndRead(raw, tempPath("conv_pieces.uti"));
  std::vector<Rec> recv;
  for (const auto& r : recs) {
    if (r.type == EventType::kMpiRecv) recv.push_back(r);
  }
  ASSERT_EQ(recv.size(), 3u);
  EXPECT_EQ(recv[0].bebits, Bebits::kBegin);
  EXPECT_EQ(recv[0].start, 150u);
  EXPECT_EQ(recv[0].dura, 50u);
  EXPECT_EQ(recv[0].cpu, 0);
  EXPECT_EQ(recv[1].bebits, Bebits::kContinuation);
  EXPECT_EQ(recv[1].start, 300u);
  EXPECT_EQ(recv[1].dura, 50u);
  EXPECT_EQ(recv[1].cpu, 1);
  EXPECT_EQ(recv[2].bebits, Bebits::kEnd);
  EXPECT_EQ(recv[2].start, 420u);
  EXPECT_EQ(recv[2].dura, 80u);
  EXPECT_EQ(recv[2].cpu, 3);
}

TEST(Convert, NestedMarkersSplitOuterStates) {
  // Marker 1 contains marker 2 which contains an MPI call: exactly the
  // Section 3.3 example. The outer marker's pieces are begin + end; the
  // inner one is split by the MPI interval.
  auto session = newSession("conv_nested");
  const std::string raw = session->filePath();
  session->cut(EventType::kThreadDispatch, 0, 0, 0, 100,
               payloadThreadDispatch(-1, 0));
  session->cut(EventType::kMarkerDef, 0, 0, 0, 110,
               payloadMarkerDef(1, "outer"));
  session->cut(EventType::kUserMarker, kFlagBegin, 0, 0, 110,
               payloadUserMarker(1, 0x100));
  session->cut(EventType::kMarkerDef, 0, 0, 0, 130,
               payloadMarkerDef(2, "inner"));
  session->cut(EventType::kUserMarker, kFlagBegin, 0, 0, 130,
               payloadUserMarker(2, 0x200));
  session->cut(EventType::kMpiBarrier, kFlagBegin, 0, 0, 200, [] {
    ByteWriter w;
    w.i32(0);
    return w;
  }());
  session->cut(EventType::kMpiBarrier, kFlagEnd, 0, 0, 280, ByteWriter{});
  session->cut(EventType::kUserMarker, kFlagEnd, 0, 0, 350,
               payloadUserMarker(2, 0x208));
  session->cut(EventType::kUserMarker, kFlagEnd, 0, 0, 400,
               payloadUserMarker(1, 0x108));
  session->cut(EventType::kThreadDispatch, 0, 0, -1, 450,
               payloadThreadDispatch(0, -1, true));
  session->close();

  const auto recs = convertAndRead(raw, tempPath("conv_nested.uti"));
  std::vector<Rec> markers;
  for (const auto& r : recs) {
    if (r.type == EventType::kUserMarker) markers.push_back(r);
  }
  // outer: begin [110,130) + end [350,400)
  // inner: begin [130,200) + end [280,350)
  ASSERT_EQ(markers.size(), 4u);
  EXPECT_EQ(markers[0].bebits, Bebits::kBegin);     // outer piece 1
  EXPECT_EQ(markers[0].start, 110u);
  EXPECT_EQ(markers[0].dura, 20u);
  EXPECT_EQ(markers[1].bebits, Bebits::kBegin);     // inner piece 1
  EXPECT_EQ(markers[1].start, 130u);
  EXPECT_EQ(markers[1].dura, 70u);
  EXPECT_EQ(markers[2].bebits, Bebits::kEnd);       // inner piece 2
  EXPECT_EQ(markers[2].start, 280u);
  EXPECT_EQ(markers[2].dura, 70u);
  EXPECT_EQ(markers[3].bebits, Bebits::kEnd);       // outer piece 2
  EXPECT_EQ(markers[3].start, 350u);
  EXPECT_EQ(markers[3].dura, 50u);

  // The barrier itself is complete.
  bool sawBarrier = false;
  for (const auto& r : recs) {
    if (r.type == EventType::kMpiBarrier) {
      EXPECT_EQ(r.bebits, Bebits::kComplete);
      EXPECT_EQ(r.start, 200u);
      EXPECT_EQ(r.dura, 80u);
      sawBarrier = true;
    }
  }
  EXPECT_TRUE(sawBarrier);
}

TEST(Convert, ArgumentsLandOnFirstAndLastPieces) {
  auto session = newSession("conv_args", 2);
  const std::string raw = session->filePath();
  session->cut(EventType::kThreadDispatch, 0, 0, 0, 100,
               payloadThreadDispatch(-1, 0));
  session->cut(EventType::kMpiRecv, kFlagBegin, 0, 0, 150,
               payloadMpiRecvEntry(3, 9, 0));
  session->cut(EventType::kThreadDispatch, 0, 0, 1, 200,
               payloadThreadDispatch(0, 1));
  session->cut(EventType::kThreadDispatch, 0, 0, 0, 300,
               payloadThreadDispatch(1, 0));
  session->cut(EventType::kMpiRecv, kFlagEnd, 0, 0, 380,
               payloadMpiRecvExit(3, 9, 2048, 77));
  session->cut(EventType::kThreadDispatch, 0, 0, -1, 400,
               payloadThreadDispatch(0, -1, true));
  session->cut(EventType::kThreadDispatch, 0, 1, -1, 410,
               payloadThreadDispatch(1, -1, true));
  session->close();

  MarkerUnifier markers;
  EventToIntervalConverter converter(markers);
  const std::string out = tempPath("conv_args.uti");
  converter.convertFile(raw, out);

  const Profile profile = makeStandardProfile();
  IntervalFileReader reader(out);
  auto stream = reader.records();
  RecordView view;
  while (stream.next(view)) {
    if (view.eventType() != EventType::kMpiRecv) continue;
    if (view.bebits() == Bebits::kBegin) {
      EXPECT_EQ(getScalarByName(profile, kNodeFileMask, view, "srcWanted"),
                std::optional<std::int64_t>(3));
      EXPECT_FALSE(getScalarByName(profile, kNodeFileMask, view,
                                   "msgSizeRecv")
                       .has_value());
    }
    if (view.bebits() == Bebits::kEnd) {
      EXPECT_EQ(getScalarByName(profile, kNodeFileMask, view, "msgSizeRecv"),
                std::optional<std::int64_t>(2048));
      EXPECT_EQ(getScalarByName(profile, kNodeFileMask, view, "seqNo"),
                std::optional<std::int64_t>(77));
    }
  }
}

TEST(Convert, GlobalClockRecordsBecomeClockSyncIntervals) {
  auto session = newSession("conv_clock");
  const std::string raw = session->filePath();
  session->cut(EventType::kGlobalClock, 0, 0, 0, 500,
               payloadGlobalClock(480, 500));
  session->cut(EventType::kGlobalClock, 0, 0, 0, 1500,
               payloadGlobalClock(1480, 1500));
  session->close();

  const auto recs = convertAndRead(raw, tempPath("conv_clock.uti"));
  std::vector<Rec> sync;
  for (const auto& r : recs) {
    if (r.type == kClockSyncState) sync.push_back(r);
  }
  ASSERT_EQ(sync.size(), 2u);
  EXPECT_EQ(sync[0].start, 500u);
  EXPECT_EQ(sync[0].dura, 0u);
  const RecordView view = RecordView::parse(sync[0].body);
  const Profile profile = makeStandardProfile();
  EXPECT_EQ(getScalarByName(profile, kNodeFileMask, view, "globalTime"),
            std::optional<std::int64_t>(480));
}

TEST(Convert, MarkerIdsUnifiedAcrossTasks) {
  // Two "tasks" on two nodes define the same strings in opposite orders,
  // so their task-local ids collide (Section 3.1). After conversion with
  // a shared unifier, equal strings share one id everywhere.
  TraceOptions optionsA;
  optionsA.filePrefix = tempPath("conv_unify");
  TraceSession a(optionsA, 0, 1);
  a.cut(EventType::kThreadInfo, 0, 0, 0, 0,
        payloadThreadInfo(0, 1000, 10000, 0, ThreadType::kMpi));
  a.cut(EventType::kThreadDispatch, 0, 0, 0, 10, payloadThreadDispatch(-1, 0));
  a.cut(EventType::kMarkerDef, 0, 0, 0, 20, payloadMarkerDef(1, "Init"));
  a.cut(EventType::kUserMarker, kFlagBegin, 0, 0, 20,
        payloadUserMarker(1, 0));
  a.cut(EventType::kUserMarker, kFlagEnd, 0, 0, 30, payloadUserMarker(1, 0));
  a.cut(EventType::kMarkerDef, 0, 0, 0, 40, payloadMarkerDef(2, "Work"));
  a.cut(EventType::kUserMarker, kFlagBegin, 0, 0, 40,
        payloadUserMarker(2, 0));
  a.cut(EventType::kUserMarker, kFlagEnd, 0, 0, 50, payloadUserMarker(2, 0));
  a.close();

  TraceSession b(optionsA, 1, 1);  // same prefix, node 1
  b.cut(EventType::kThreadInfo, 0, 0, 0, 0,
        payloadThreadInfo(0, 1001, 10001, 1, ThreadType::kMpi));
  b.cut(EventType::kThreadDispatch, 0, 0, 0, 10, payloadThreadDispatch(-1, 0));
  // Opposite definition order: "Work" gets local id 1 here.
  b.cut(EventType::kMarkerDef, 0, 0, 0, 20, payloadMarkerDef(1, "Work"));
  b.cut(EventType::kUserMarker, kFlagBegin, 0, 0, 20,
        payloadUserMarker(1, 0));
  b.cut(EventType::kUserMarker, kFlagEnd, 0, 0, 30, payloadUserMarker(1, 0));
  b.cut(EventType::kMarkerDef, 0, 0, 0, 40, payloadMarkerDef(2, "Init"));
  b.cut(EventType::kUserMarker, kFlagBegin, 0, 0, 40,
        payloadUserMarker(2, 0));
  b.cut(EventType::kUserMarker, kFlagEnd, 0, 0, 50, payloadUserMarker(2, 0));
  b.close();

  const auto results =
      convertRun({a.filePath(), b.filePath()}, tempPath("conv_unify_out"));
  ASSERT_EQ(results.size(), 2u);

  const Profile profile = makeStandardProfile();
  // Collect (unified marker id -> string) from both outputs and the id
  // used by each file's "Init" marker interval.
  std::map<std::string, std::uint32_t> idsA, idsB;
  for (int i = 0; i < 2; ++i) {
    IntervalFileReader reader(results[static_cast<std::size_t>(i)].outputPath);
    auto& ids = i == 0 ? idsA : idsB;
    for (const auto& [id, name] : reader.markers()) ids[name] = id;
  }
  ASSERT_EQ(idsA.size(), 2u);
  EXPECT_EQ(idsA.at("Init"), idsB.at("Init"));
  EXPECT_EQ(idsA.at("Work"), idsB.at("Work"));
  EXPECT_NE(idsA.at("Init"), idsA.at("Work"));
}

TEST(Convert, RecordsEmittedInEndTimeOrder) {
  auto session = newSession("conv_order", 3);
  const std::string raw = session->filePath();
  // Interleave activity on three threads across two cpus.
  session->cut(EventType::kThreadDispatch, 0, 0, 0, 100,
               payloadThreadDispatch(-1, 0));
  session->cut(EventType::kThreadDispatch, 0, 1, 1, 110,
               payloadThreadDispatch(-1, 1));
  session->cut(EventType::kMpiBarrier, kFlagBegin, 0, 0, 150, [] {
    ByteWriter w;
    w.i32(0);
    return w;
  }());
  session->cut(EventType::kThreadDispatch, 0, 0, 2, 200,
               payloadThreadDispatch(0, 2));
  session->cut(EventType::kThreadDispatch, 0, 1, -1, 260,
               payloadThreadDispatch(1, -1, true));
  session->cut(EventType::kThreadDispatch, 0, 1, 0, 300,
               payloadThreadDispatch(-1, 0));
  session->cut(EventType::kMpiBarrier, kFlagEnd, 1, 0, 380, ByteWriter{});
  session->cut(EventType::kThreadDispatch, 0, 1, -1, 420,
               payloadThreadDispatch(0, -1, true));
  session->cut(EventType::kThreadDispatch, 0, 0, -1, 500,
               payloadThreadDispatch(2, -1, true));
  session->close();

  const auto recs = convertAndRead(raw, tempPath("conv_order.uti"));
  Tick lastEnd = 0;
  for (const auto& r : recs) {
    EXPECT_GE(r.start + r.dura, lastEnd);
    lastEnd = r.start + r.dura;
  }
  ASSERT_GE(recs.size(), 5u);
}

TEST(MarkerUnifier, DuplicateStringsShareOneIdAcrossTasks) {
  // Two tasks define the same strings under colliding task-local ids; the
  // unifier keys on the string alone, so equal strings map to one global
  // id and ids are dense in first-encounter order.
  MarkerUnifier markers;
  EXPECT_EQ(markers.unify("Init"), 1u);  // task A, local id 1
  EXPECT_EQ(markers.unify("Work"), 2u);  // task A, local id 2
  EXPECT_EQ(markers.unify("Work"), 2u);  // task B, local id 1 (collision)
  EXPECT_EQ(markers.unify("Init"), 1u);  // task B, local id 2 (collision)
  EXPECT_EQ(markers.unify("Done"), 3u);
  EXPECT_EQ(markers.size(), 3u);
  const std::vector<std::string> table = markers.table();
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0], "Init");
  EXPECT_EQ(table[1], "Work");
  EXPECT_EQ(table[2], "Done");
}

TEST(MarkerUnifier, PreassignPinsIdsForLaterUnifyCalls) {
  // preassign() replays the sequential encounter order ahead of parallel
  // conversion; later unify() calls (from any worker) must return the
  // pinned ids, and duplicates within the preassign list are ignored.
  MarkerUnifier markers;
  markers.preassign({"alpha", "beta", "alpha", "gamma"});
  EXPECT_EQ(markers.size(), 3u);
  EXPECT_EQ(markers.unify("gamma"), 3u);
  EXPECT_EQ(markers.unify("beta"), 2u);
  EXPECT_EQ(markers.unify("alpha"), 1u);
  EXPECT_EQ(markers.unify("delta"), 4u);  // new strings keep extending
  markers.preassign({"beta", "epsilon"});  // idempotent for known strings
  EXPECT_EQ(markers.unify("epsilon"), 5u);
  EXPECT_EQ(markers.size(), 5u);
}

TEST(MarkerUnifier, ConcurrentUnifyIsConsistent) {
  // Hammer one unifier from several threads with overlapping string sets;
  // every thread must observe the same string->id mapping and the final
  // table must be a permutation-free dense 1..N assignment.
  MarkerUnifier markers;
  constexpr int kThreads = 4;
  constexpr int kStrings = 64;
  std::vector<std::map<std::string, std::uint32_t>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &markers, &seen] {
      for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < kStrings; ++i) {
          // Each thread walks the strings in a different order.
          const int idx = (i * (t + 1) + round) % kStrings;
          const std::string name = "marker" + std::to_string(idx);
          const std::uint32_t id = markers.unify(name);
          const auto it = seen[static_cast<std::size_t>(t)].find(name);
          if (it != seen[static_cast<std::size_t>(t)].end()) {
            EXPECT_EQ(it->second, id);
          } else {
            seen[static_cast<std::size_t>(t)].emplace(name, id);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(markers.size(), static_cast<std::size_t>(kStrings));
  const std::vector<std::string> table = markers.table();
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& [name, id] : seen[static_cast<std::size_t>(t)]) {
      ASSERT_GE(id, 1u);
      ASSERT_LE(id, table.size());
      EXPECT_EQ(table[id - 1], name);
    }
  }
}

TEST(Convert, MismatchedExitRejected) {
  auto session = newSession("conv_mismatch");
  const std::string raw = session->filePath();
  session->cut(EventType::kThreadDispatch, 0, 0, 0, 100,
               payloadThreadDispatch(-1, 0));
  session->cut(EventType::kMpiSend, kFlagBegin, 0, 0, 150,
               payloadMpiSend(1, 0, 8, 1, 0));
  session->cut(EventType::kMpiRecv, kFlagEnd, 0, 0, 200,
               payloadMpiRecvExit(0, 0, 8, 1));
  session->close();

  MarkerUnifier markers;
  EventToIntervalConverter converter(markers);
  EXPECT_THROW(
      converter.convertFile(raw, tempPath("conv_mismatch.uti")),
      FormatError);
}

}  // namespace
}  // namespace ute
