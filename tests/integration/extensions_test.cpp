// Tests for the Section 5 extensions: additional system activities (I/O,
// page faults), the atomic global-clock read, and the record-type
// discriminated view.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "interval/standard_profile.h"
#include "mpisim/mpi_runtime.h"
#include "sim/simulation.h"
#include "stats/engine.h"
#include "trace/reader.h"
#include "viz/timeline_model.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"
#include "temp_dir.h"

namespace ute {
namespace {

SimulationConfig oneThreadConfig(const std::string& name, Program program) {
  SimulationConfig config;
  NodeConfig node;
  node.cpuCount = 2;
  config.nodes.push_back(node);
  ProcessConfig proc;
  ThreadConfig tc;
  tc.program = std::move(program);
  proc.threads.push_back(std::move(tc));
  config.processes.push_back(std::move(proc));
  // In the process's own directory, so parallel ctest processes never
  // share trace files.
  config.trace.filePrefix = tempPath(name);
  return config;
}

TEST(IoExtension, BlockingIoCutsBeginEndAndReleasesCpu) {
  // Thread 0 writes 1 MB (~38 ms at the default disk model); thread 1
  // computes meanwhile on the same CPU count — overlap proves the writer
  // was off-CPU.
  SimulationConfig config = oneThreadConfig(
      "ext_io", ProgramBuilder().compute(kMs).ioWrite(1 << 20).compute(
                                    kMs).build());
  config.nodes[0].cpuCount = 1;
  {
    ProcessConfig proc;
    ThreadConfig tc;
    tc.program = ProgramBuilder().compute(30 * kMs).build();
    proc.threads.push_back(std::move(tc));
    config.processes.push_back(std::move(proc));
  }
  Simulation sim(std::move(config));
  sim.run();
  // I/O (~39.6 ms) overlaps the 30 ms compute: total well under the sum.
  EXPECT_LT(sim.finishTimeNs(), 60 * kMs);
  EXPECT_GE(sim.finishTimeNs(), 40 * kMs);

  TraceFileReader reader(sim.traceFilePaths()[0]);
  int ioBegin = 0;
  int ioEnd = 0;
  while (const auto ev = reader.next()) {
    if (ev->type != EventType::kIoWrite) continue;
    if ((ev->flags & kFlagBegin) != 0) {
      ++ioBegin;
      ByteReader pr = ev->payloadReader();
      EXPECT_EQ(pr.u32(), 1u << 20);
    } else {
      ++ioEnd;
    }
  }
  EXPECT_EQ(ioBegin, 1);
  EXPECT_EQ(ioEnd, 1);
}

TEST(IoExtension, ConvertsToIoStateIntervals) {
  PipelineOptions options;
  options.dir = makeScratchDir("ext_io_pipeline");
  options.writeSlog = false;
  SimulationConfig config = oneThreadConfig(
      "unused", ProgramBuilder().compute(kMs).ioRead(64 * 1024).compute(
                                    kMs).build());
  const PipelineResult run = runPipeline(std::move(config), options);

  const Profile profile = makeStandardProfile();
  IntervalFileReader merged(run.mergedFile);
  auto stream = merged.records();
  RecordView view;
  int ioIntervals = 0;
  Tick spanStart = 0;
  Tick spanEnd = 0;
  while (stream.next(view)) {
    if (view.eventType() != EventType::kIoRead) continue;
    ++ioIntervals;
    if (isFirstPiece(view.bebits())) {
      spanStart = view.start;
      EXPECT_EQ(getScalarByName(profile, kMergedFileMask, view, kFieldIoBytes),
                std::optional<std::int64_t>(64 * 1024));
    }
    if (isLastPiece(view.bebits())) spanEnd = view.end();
  }
  // begin piece (posting) + end piece (resume) around the blocking wait.
  EXPECT_GE(ioIntervals, 2);
  // The call's connected span covers the device time (>= 5 ms latency).
  EXPECT_GE(spanEnd - spanStart, 5 * kMs);
}

TEST(PageFaults, StallThreadsAndAppearAsPointRecords) {
  SimulationConfig config = oneThreadConfig(
      "ext_fault", [] {
        ProgramBuilder b;
        b.loop(50);
        b.compute(500 * kUs);
        b.endLoop();
        return b.build();
      }());
  config.costs.pageFaultChance = 0.3;
  config.costs.pageFaultServiceNs = 300 * kUs;
  PipelineOptions options;
  options.dir = makeScratchDir("ext_fault_pipeline");
  options.writeSlog = false;
  const PipelineResult run = runPipeline(std::move(config), options);

  IntervalFileReader merged(run.mergedFile);
  auto stream = merged.records();
  RecordView view;
  int faults = 0;
  const Profile profile = makeStandardProfile();
  while (stream.next(view)) {
    if (view.eventType() != EventType::kPageFault) continue;
    ++faults;
    EXPECT_EQ(view.bebits(), Bebits::kComplete);
    EXPECT_EQ(view.dura, 0u);
    const auto addr =
        getScalarByName(profile, kMergedFileMask, view, kFieldFaultAddr);
    ASSERT_TRUE(addr.has_value());
    EXPECT_NE(*addr, 0);
  }
  // ~30% of 50 bursts fault; allow wide slack but require several.
  EXPECT_GE(faults, 5);
  EXPECT_LE(faults, 40);
}

TEST(PageFaults, StatsSeeThemAsAState) {
  SimulationConfig config = oneThreadConfig(
      "ext_fault_stats", [] {
        ProgramBuilder b;
        b.loop(40);
        b.compute(200 * kUs);
        b.endLoop();
        return b.build();
      }());
  config.costs.pageFaultChance = 0.5;
  PipelineOptions options;
  options.dir = makeScratchDir("ext_fault_stats");
  options.writeSlog = false;
  const PipelineResult run = runPipeline(std::move(config), options);

  const Profile profile = makeStandardProfile();
  IntervalFileReader merged(run.mergedFile);
  StatsEngine engine(profile);
  const auto tables = engine.runProgram(
      "table name=t condition=(state == \"PageFault\") "
      "x=(\"node\", node) y=(\"faults\", dura, count)",
      merged);
  ASSERT_EQ(tables[0].rows.size(), 1u);
  EXPECT_GT(std::stoi(tables[0].cell(0, "faults")), 3);
}

TEST(AtomicClockRead, EliminatesOutlierPairs) {
  // Same daemon outlier probability, with and without the atomic read.
  const auto worstSlopeDeviation = [](bool atomic) {
    SimulationConfig config = oneThreadConfig(
        atomic ? "ext_atomic" : "ext_nonatomic",
        ProgramBuilder().compute(2 * kSec).build());
    config.clockDaemon.periodNs = 100 * kMs;
    config.clockDaemon.outlierChance = 0.3;
    config.clockDaemon.outlierDelayNs = 2 * kMs;
    config.clockDaemon.atomicRead = atomic;
    Simulation sim(std::move(config));
    sim.run();

    TraceFileReader reader(sim.traceFilePaths()[0]);
    std::vector<TimestampPair> pairs;
    while (const auto ev = reader.next()) {
      if (ev->type != EventType::kGlobalClock) continue;
      ByteReader pr = ev->payloadReader();
      TimestampPair p;
      p.global = pr.u64();
      p.local = pr.u64();
      pairs.push_back(p);
    }
    double worst = 0;
    for (std::size_t i = 1; i < pairs.size(); ++i) {
      const double slope =
          (static_cast<double>(pairs[i].global) -
           static_cast<double>(pairs[i - 1].global)) /
          (static_cast<double>(pairs[i].local) -
           static_cast<double>(pairs[i - 1].local));
      worst = std::max(worst, std::abs(slope - 1.0));
    }
    return worst;
  };
  EXPECT_LT(worstSlopeDeviation(true), 1e-9);   // perfect pairs
  EXPECT_GT(worstSlopeDeviation(false), 1e-3);  // visible excursions
}

TEST(StateActivityView, RowPerRecordType) {
  PipelineOptions options;
  options.dir = makeScratchDir("ext_stateview");
  options.name = "flash";
  options.writeSlog = false;
  FlashOptions flashOptions;
  flashOptions.initIterations = 10;
  flashOptions.evolveIterations = 8;
  const PipelineResult run = runPipeline(flash(flashOptions), options);

  const Profile profile = makeStandardProfile();
  IntervalFileReader merged(run.mergedFile);
  ViewOptions view;
  view.kind = ViewKind::kStateActivity;
  const TimeSpaceModel m = buildView(merged, profile, view);

  std::map<std::string, std::size_t> rowSegments;
  for (const VizTimeline& row : m.rows) {
    rowSegments[row.label] += row.segments.size();
  }
  // One row per state; the workload's states all show up.
  EXPECT_GT(rowSegments["Running"], 0u);
  EXPECT_GT(rowSegments["MPI_Bcast"], 0u);
  EXPECT_GT(rowSegments["MPI_Barrier"], 0u);
  EXPECT_GT(rowSegments["IoWrite"], 0u);
  EXPECT_GT(rowSegments["initialization"], 0u);  // marker state
  // Colored by thread: the legend names threads, not states.
  for (const auto& [key, entry] : m.legend) {
    EXPECT_NE(entry.first.find(".t"), std::string::npos);
  }
}

}  // namespace
}  // namespace ute
