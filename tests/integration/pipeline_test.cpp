// Whole-pipeline integration tests: simulate -> trace -> convert ->
// merge -> SLOG, asserting the cross-stage invariants the paper's
// framework promises.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "interval/standard_profile.h"
#include "interval/ute_api.h"
#include "slog/slog_reader.h"
#include "stats/engine.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"

namespace ute {
namespace {

const PipelineResult& testRun() {
  static const PipelineResult result = [] {
    TestProgramOptions workload;
    workload.iterations = 40;
    PipelineOptions options;
    options.dir = makeScratchDir("pipeline_test");
    options.name = "tp";
    options.merge.targetFrameBytes = 4096;  // many frames: pseudo records
    return runPipeline(testProgram(workload), options);
  }();
  return result;
}

TEST(Pipeline, ProducesAllArtifacts) {
  const PipelineResult& r = testRun();
  EXPECT_EQ(r.rawFiles.size(), 2u);       // two nodes
  EXPECT_EQ(r.intervalFiles.size(), 2u);
  EXPECT_FALSE(r.mergedFile.empty());
  EXPECT_FALSE(r.slogFile.empty());
  EXPECT_GT(r.rawEvents, 1000u);
  EXPECT_GT(r.intervalRecords, 1000u);
  EXPECT_GT(r.merge.recordsOut, 0u);
  EXPECT_GT(r.slogIntervals, 0u);
  EXPECT_GT(r.slogArrows, 0u);
}

TEST(Pipeline, EveryMergedRecordDecodesAgainstTheProfile) {
  const PipelineResult& r = testRun();
  const Profile profile = makeStandardProfile();
  IntervalFileReader merged(r.mergedFile);
  merged.checkProfile(profile);
  auto stream = merged.records();
  RecordView view;
  std::uint64_t n = 0;
  Tick lastEnd = 0;
  while (stream.next(view)) {
    ++n;
    EXPECT_GE(view.end(), lastEnd);
    lastEnd = view.end();
    const RecordSpec* spec = profile.find(view.intervalType);
    ASSERT_NE(spec, nullptr) << "unknown interval type " << view.intervalType;
    // The record's bytes exactly cover the selected fields.
    std::size_t total = 0;
    const bool ok = forEachField(
        *spec, merged.header().fieldSelectionMask, view.body,
        [&](const FieldSpec& f, std::span<const std::uint8_t> data,
            std::uint32_t) {
          total += data.size() + (f.isVector ? f.counterLen : 0);
          return true;
        });
    EXPECT_TRUE(ok);
    EXPECT_EQ(total, view.body.size());
  }
  EXPECT_EQ(n, merged.header().totalRecords);
}

TEST(Pipeline, BebitsBalancePerThreadAndState) {
  // Per (node, thread, event type): begins == ends, and continuations
  // only appear between a begin and its end.
  const PipelineResult& r = testRun();
  IntervalFileReader merged(r.mergedFile);
  auto stream = merged.records();
  RecordView view;
  std::map<std::tuple<NodeId, LogicalThreadId, EventType>, int> open;
  while (stream.next(view)) {
    if (view.eventType() == kClockSyncState) continue;
    if (view.dura == 0 && view.bebits() == Bebits::kContinuation) {
      continue;  // frame-start pseudo records restate, not open/close
    }
    const auto key = std::make_tuple(view.node, view.thread,
                                     view.eventType());
    switch (view.bebits()) {
      case Bebits::kBegin:
        ++open[key];
        break;
      case Bebits::kEnd:
        EXPECT_GT(open[key], 0) << "end without begin";
        --open[key];
        break;
      case Bebits::kContinuation:
        EXPECT_GT(open[key], 0) << "continuation outside a call";
        break;
      case Bebits::kComplete:
        break;
    }
  }
  for (const auto& [key, count] : open) {
    EXPECT_EQ(count, 0) << "unbalanced state for thread "
                        << std::get<1>(key);
  }
}

TEST(Pipeline, Figure5TotalBytesMatchesRuntimeGroundTruth) {
  const PipelineResult& r = testRun();
  using namespace ute::api;
  interval_header header;
  frame_directory framedir;
  table_format table;
  unsigned char buffer[4096];
  long long ilong = 0;
  long long total = 0;
  UteFile* f = readHeader(r.mergedFile.c_str(), &header);
  ASSERT_NE(f, nullptr);
  ASSERT_GT(readFrameDir(f, &framedir), 0);
  ASSERT_EQ(readProfile(r.profileFile.c_str(), &table, header.masks), 0);
  long length = 0;
  while ((length = getInterval(f, &framedir, buffer, sizeof buffer)) > 0) {
    if (getItemByName(&table, buffer, length, "msgSizeSent", &ilong) > 0) {
      total += ilong;
    }
  }
  freeProfile(&table);
  closeInterval(f);
  EXPECT_EQ(static_cast<std::uint64_t>(total), r.mpiStats.bytesSent);
}

TEST(Pipeline, MarkerStringsUnifiedAcrossNodes) {
  const PipelineResult& r = testRun();
  // Worker threads define markers in different orders per task; after
  // conversion the same string has one id in every per-node file.
  std::map<std::string, std::uint32_t> seen;
  for (const std::string& path : r.intervalFiles) {
    IntervalFileReader reader(path);
    for (const auto& [id, name] : reader.markers()) {
      const auto [it, inserted] = seen.emplace(name, id);
      EXPECT_EQ(it->second, id) << "marker '" << name
                                << "' has inconsistent ids";
    }
  }
  EXPECT_GE(seen.size(), 4u);  // Initial Phase, Main Loop, Reduce, Workers
}

TEST(Pipeline, MergedCountsAddUp) {
  const PipelineResult& r = testRun();
  // recordsOut = sum of inputs minus dropped ClockSync records.
  std::uint64_t inputRecords = 0;
  std::uint64_t clockRecords = 0;
  for (const std::string& path : r.intervalFiles) {
    IntervalFileReader reader(path);
    inputRecords += reader.header().totalRecords;
    auto stream = reader.records();
    RecordView view;
    while (stream.next(view)) {
      if (view.eventType() == kClockSyncState) ++clockRecords;
    }
  }
  EXPECT_EQ(r.merge.recordsOut, inputRecords - clockRecords);
  // The merged file additionally holds the frame-start pseudo records.
  IntervalFileReader merged(r.mergedFile);
  EXPECT_EQ(merged.header().totalRecords,
            r.merge.recordsOut + r.merge.pseudoRecords);
  EXPECT_GT(r.merge.pseudoRecords, 0u);
}

TEST(Pipeline, WideRunKeepsFramesMostlyPayload) {
  // 128 tasks x 4 threads leave hundreds of states open at every frame
  // boundary. Restating them all must not crowd out the payload: at most
  // one pseudo record per four real ones, and a merged file that stays
  // small per real record (~62 B). Frames sized by bytes alone put 1.25
  // pseudo records beside each real one here (105 B per record), and
  // the file grows without bound as the run lengthens.
  TestProgramOptions workload;
  workload.tasks = 128;
  workload.nodes = 16;
  workload.iterations = 120;
  PipelineOptions options;
  options.dir = makeScratchDir("pipeline_wide");
  options.name = "wide";
  const PipelineResult r = runPipeline(testProgram(workload), options);
  ASSERT_GT(r.merge.recordsOut, 0u);
  EXPECT_GT(r.merge.pseudoRecords, 0u);
  EXPECT_LE(4 * r.merge.pseudoRecords, r.merge.recordsOut);
  EXPECT_LT(std::filesystem::file_size(r.mergedFile),
            80 * r.merge.recordsOut);
  std::filesystem::remove_all(options.dir);
}

TEST(Pipeline, ClockRatiosReflectConfiguredDrifts) {
  const PipelineResult& r = testRun();
  // Node 0 drifts 0 ppm, node 1 +22 ppm (workloadClock).
  ASSERT_EQ(r.merge.ratios.size(), 2u);
  EXPECT_NEAR(r.merge.ratios[0], 1.0, 1e-6);
  EXPECT_NEAR(r.merge.ratios[1], 1.0 / 1.000022, 1e-6);
}

TEST(Pipeline, SlogFramesCoverTheMergedTimeRange) {
  const PipelineResult& r = testRun();
  IntervalFileReader merged(r.mergedFile);
  SlogReader slog(r.slogFile);
  EXPECT_EQ(slog.totalStart(), merged.header().minStart);
  EXPECT_LE(slog.totalEnd(), merged.header().maxEnd);
  // Every time in the run maps to exactly one frame.
  const Tick span = slog.totalEnd() - slog.totalStart();
  for (int i = 1; i < 10; ++i) {
    const Tick t = slog.totalStart() + span * static_cast<Tick>(i) / 10;
    EXPECT_TRUE(slog.frameIndexFor(t).has_value()) << "no frame at " << t;
  }
}

TEST(Pipeline, StatsBytesAgreeWithRuntime) {
  const PipelineResult& r = testRun();
  const Profile profile = makeStandardProfile();
  IntervalFileReader merged(r.mergedFile);
  StatsEngine engine(profile);
  const auto tables = engine.runProgram(
      "table name=bytes condition=(firstpiece == 1) "
      "x=(\"comm\", comm) y=(\"total\", msgSizeSent, sum)",
      merged);
  double total = 0;
  for (const auto& row : tables[0].rows) total += std::stod(row[1]);
  EXPECT_NEAR(total, static_cast<double>(r.mpiStats.bytesSent), 0.5);
}

TEST(Pipeline, TraceOffSuppressesMiddleSection) {
  // A workload that disables tracing around its middle produces far
  // fewer MPI events there (Section 2.1's partial tracing).
  SimulationConfig config;
  NodeConfig node;
  node.cpuCount = 1;
  config.nodes.push_back(node);
  ProcessConfig proc;
  ProgramBuilder b;
  b.markerBegin("on");
  b.compute(kMs);
  b.markerEnd("on");
  b.traceOff();
  b.markerBegin("off");
  b.compute(kMs);
  b.markerEnd("off");
  b.traceOn();
  b.markerBegin("on2");
  b.compute(kMs);
  b.markerEnd("on2");
  ThreadConfig tc;
  tc.program = b.build();
  proc.threads.push_back(tc);
  config.processes.push_back(proc);
  PipelineOptions options;
  options.dir = makeScratchDir("pipeline_traceoff");
  options.writeSlog = false;
  const PipelineResult r = runPipeline(std::move(config), options);

  IntervalFileReader merged(r.mergedFile);
  std::map<std::string, int> markerCount;
  for (const auto& [id, name] : merged.markers()) markerCount[name] = 0;
  EXPECT_EQ(markerCount.count("off"), 0u);  // never traced
  EXPECT_EQ(markerCount.count("on"), 1u);
  EXPECT_EQ(markerCount.count("on2"), 1u);
}

TEST(Pipeline, ThreadMaskShapesTheSlogAndMergedTablesAlike) {
  // With a thread-type mask the merged .uti drops the other threads; the
  // SLOG written in the same pass must list exactly the same threads.
  const PipelineResult& r = testRun();
  const Profile profile = makeStandardProfile();
  MergeOptions merge;
  merge.threadTypeMask = MergeOptions::threadTypeBit(ThreadType::kMpi);
  const std::string dir = makeScratchDir("pipeline_thread_mask");
  slogMerge(r.intervalFiles, profile, merge, dir + "/mpi.merged.uti",
            dir + "/mpi.slog", SlogOptions{});

  const std::vector<ThreadEntry> merged =
      IntervalFileReader(dir + "/mpi.merged.uti").threads();
  const std::vector<ThreadEntry> slog = SlogReader(dir + "/mpi.slog").threads();
  ASSERT_FALSE(merged.empty());
  EXPECT_LT(merged.size(), IntervalFileReader(r.mergedFile).threads().size());
  ASSERT_EQ(slog.size(), merged.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].type, ThreadType::kMpi) << i;
    EXPECT_EQ(slog[i].task, merged[i].task) << i;
    EXPECT_EQ(slog[i].pid, merged[i].pid) << i;
    EXPECT_EQ(slog[i].systemTid, merged[i].systemTid) << i;
    EXPECT_EQ(slog[i].node, merged[i].node) << i;
    EXPECT_EQ(slog[i].ltid, merged[i].ltid) << i;
    EXPECT_EQ(slog[i].type, merged[i].type) << i;
  }
}

}  // namespace
}  // namespace ute
