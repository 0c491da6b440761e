// Assertions for the qualitative claims of the paper's figures, on the
// same workloads the examples and benchmarks use.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "interval/standard_profile.h"
#include "slog/slog_reader.h"
#include "stats/engine.h"
#include "viz/timeline_model.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"

namespace ute {
namespace {

const PipelineResult& sppmRun() {
  static const PipelineResult result = [] {
    SppmOptions workload;
    workload.timesteps = 15;
    PipelineOptions options;
    options.dir = makeScratchDir("figures_sppm");
    options.name = "sppm";
    return runPipeline(sppm(workload), options);
  }();
  return result;
}

const PipelineResult& flashRun() {
  static const PipelineResult result = [] {
    PipelineOptions options;
    options.dir = makeScratchDir("figures_flash");
    options.name = "flash";
    options.slog.recordsPerFrame = 256;
    return runPipeline(flash(FlashOptions{}), options);
  }();
  return result;
}

// --- Figure 8: thread-activity view of sPPM --------------------------------

TEST(Figure8, FourNodesFourThreadsOneMpiThreadEach) {
  const PipelineResult& r = sppmRun();
  IntervalFileReader merged(r.mergedFile);
  // 4 nodes x (4 program threads + 1 daemon).
  std::map<NodeId, int> mpiThreads;
  std::map<NodeId, int> userThreads;
  for (const ThreadEntry& t : merged.threads()) {
    if (t.type == ThreadType::kMpi) ++mpiThreads[t.node];
    if (t.type == ThreadType::kUser) ++userThreads[t.node];
  }
  ASSERT_EQ(mpiThreads.size(), 4u);
  for (const auto& [node, count] : mpiThreads) {
    EXPECT_EQ(count, 1) << "node " << node;   // one thread makes MPI calls
    EXPECT_EQ(userThreads[node], 3);
  }
}

TEST(Figure8, MpiCallsConfinedToTheMpiThread) {
  const PipelineResult& r = sppmRun();
  IntervalFileReader merged(r.mergedFile);
  std::set<std::pair<NodeId, LogicalThreadId>> mpiThreads;
  for (const ThreadEntry& t : merged.threads()) {
    if (t.type == ThreadType::kMpi) mpiThreads.insert({t.node, t.ltid});
  }
  auto stream = merged.records();
  RecordView view;
  while (stream.next(view)) {
    if (!isMpiEvent(view.eventType())) continue;
    EXPECT_TRUE(mpiThreads.count({view.node, view.thread}))
        << "MPI interval on non-MPI thread " << view.node << ":"
        << view.thread;
  }
}

TEST(Figure8, OneThreadPerProcessIsIdle) {
  const PipelineResult& r = sppmRun();
  const Profile profile = makeStandardProfile();
  IntervalFileReader merged(r.mergedFile);
  ViewOptions options;
  options.kind = ViewKind::kThreadActivity;
  const TimeSpaceModel m = buildView(merged, profile, options);
  // The last thread of each process barely accumulates busy time.
  std::map<std::string, double> busyNs;
  for (const VizTimeline& row : m.rows) {
    double busy = 0;
    for (const VizSegment& s : row.segments) {
      busy += static_cast<double>(s.end - s.start);
    }
    busyNs[row.label] = busy;
  }
  const double span = static_cast<double>(m.maxTime - m.minTime);
  for (int node = 0; node < 4; ++node) {
    std::string idle = "n";
    idle += std::to_string(node) + ".t3";
    std::string mpi = "n";
    mpi += std::to_string(node) + ".t0";
    EXPECT_LT(busyNs.at(idle), 0.05 * span) << idle << " should be idle";
    EXPECT_GT(busyNs.at(mpi), 5.0 * busyNs.at(idle));
  }
}

// --- Figure 9: processor-activity view of sPPM -----------------------------

TEST(Figure9, CpusAreMostlyIdle) {
  const PipelineResult& r = sppmRun();
  const Profile profile = makeStandardProfile();
  IntervalFileReader merged(r.mergedFile);
  ViewOptions options;
  options.kind = ViewKind::kProcessorActivity;
  for (int n = 0; n < 4; ++n) options.cpuCountHint[n] = 8;
  const TimeSpaceModel m = buildView(merged, profile, options);
  ASSERT_EQ(m.rows.size(), 32u);  // 4 nodes x 8 CPUs, idle ones included
  double busy = 0;
  for (const VizTimeline& row : m.rows) {
    for (const VizSegment& s : row.segments) {
      busy += static_cast<double>(s.end - s.start);
    }
  }
  const double capacity =
      static_cast<double>(m.maxTime - m.minTime) * 32.0;
  // "the CPUs are mostly idle": well under half the capacity is used.
  EXPECT_LT(busy / capacity, 0.5);
  EXPECT_GT(busy / capacity, 0.01);
}

TEST(Figure9, MpiThreadsMigrateBetweenCpus) {
  const PipelineResult& r = sppmRun();
  const Profile profile = makeStandardProfile();
  IntervalFileReader merged(r.mergedFile);
  ViewOptions options;
  options.kind = ViewKind::kThreadProcessor;
  const TimeSpaceModel m = buildView(merged, profile, options);
  for (const VizTimeline& row : m.rows) {
    if (row.label != "n0.t0" && row.label != "n1.t0") continue;
    std::set<std::uint32_t> cpus;
    for (const VizSegment& s : row.segments) cpus.insert(s.colorKey);
    EXPECT_GE(cpus.size(), 2u)
        << row.label << " should jump between CPUs";
  }
}

// --- Figure 6: the statistics viewer's time-bin table ----------------------

TEST(Figure6, InterestingTimeFormsThreeSeparatedRanges) {
  const PipelineResult& r = flashRun();
  const Profile profile = makeStandardProfile();
  IntervalFileReader merged(r.mergedFile);
  StatsEngine engine(profile);
  const auto tables = engine.runProgram(predefinedTablesProgram(), merged);
  const StatsTable& table = tables[0];
  ASSERT_EQ(table.name, "interesting_by_node_bin");

  // Collapse to per-bin totals and look for busy/quiet/busy/quiet/busy.
  std::map<int, double> perBin;
  for (const auto& row : table.rows) {
    perBin[std::stoi(row[1])] += std::stod(row[2]);
  }
  std::vector<bool> busy(50, false);
  for (const auto& [bin, v] : perBin) {
    if (v > 1e-4) busy[static_cast<std::size_t>(bin)] = true;
  }
  int ranges = 0;
  bool in = false;
  for (bool b : busy) {
    if (b && !in) ++ranges;
    in = b;
  }
  EXPECT_EQ(ranges, 3) << "init / regrid / termination phases";
  EXPECT_TRUE(busy.front());
  EXPECT_TRUE(busy.back());
}

// --- Figure 7: preview + frame display --------------------------------------

TEST(Figure7, PreviewShowsThePhases) {
  const PipelineResult& r = flashRun();
  SlogReader slog(r.slogFile);
  // Sum the non-Running, non-marker state rows per rebinned column.
  const SlogPreview p = rebinPreview(slog.preview(), 50);
  std::vector<double> interesting(50, 0.0);
  for (std::size_t s = 0; s < slog.states().size(); ++s) {
    const std::uint32_t id = slog.states()[s].id;
    if (id == static_cast<std::uint32_t>(kRunningState) ||
        id >= kMarkerStateBase) {
      continue;
    }
    for (std::size_t b = 0; b < 50; ++b) {
      interesting[b] += p.perStateBinTime[s][b];
    }
  }
  int ranges = 0;
  bool in = false;
  for (double v : interesting) {
    const bool b = v > 1e5;
    if (b && !in) ++ranges;
    in = b;
  }
  EXPECT_EQ(ranges, 3);
}

TEST(Figure7, FrameViewCompletesStatesViaPseudoIntervals) {
  const PipelineResult& r = flashRun();
  SlogReader slog(r.slogFile);
  ASSERT_GE(slog.frameIndex().size(), 2u);
  // Pick the middle of the run (inside the long "evolution" marker which
  // began in an earlier frame).
  const Tick middle =
      slog.totalStart() + (slog.totalEnd() - slog.totalStart()) / 2;
  const auto idx = slog.frameIndexFor(middle);
  ASSERT_TRUE(idx.has_value());
  ASSERT_GT(*idx, 0u);
  const SlogFramePtr frame = slog.readFrame(*idx);
  bool sawPseudo = false;
  for (const SlogInterval& i : frame->intervals) {
    if (i.pseudo) sawPseudo = true;
  }
  EXPECT_TRUE(sawPseudo)
      << "states crossing into the frame must be restated";

  // The frame view renders the open marker across the frame.
  const TimeSpaceModel m = buildSlogFrameView(slog, *idx);
  bool markerSpansFrame = false;
  for (const VizTimeline& row : m.rows) {
    for (const VizSegment& s : row.segments) {
      if (s.colorKey >= kMarkerStateBase && s.pseudo &&
          s.start == m.minTime) {
        markerSpansFrame = true;
      }
    }
  }
  EXPECT_TRUE(markerSpansFrame);
}

TEST(Figure7, FrameLookupIsIndexDriven) {
  const PipelineResult& r = flashRun();
  SlogReader slog(r.slogFile);
  // Every index entry is found by its own midpoint.
  for (std::size_t i = 0; i < slog.frameIndex().size(); ++i) {
    const SlogFrameIndexEntry& e = slog.frameIndex()[i];
    if (e.timeEnd <= e.timeStart) continue;
    const Tick mid = e.timeStart + (e.timeEnd - e.timeStart) / 2;
    const auto found = slog.frameIndexFor(mid);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, i);
  }
}

}  // namespace
}  // namespace ute
