// Figure 9: processor-activity view of the same sPPM run — up to eight
// timelines per node, CPUs mostly idle, MPI threads jumping from one CPU
// to another on the same node. Prints the view plus the migration and
// utilization numbers behind the paper's observations.
#include <cstdio>
#include <map>
#include <set>

#include "bench_util.h"
#include "interval/standard_profile.h"
#include "viz/ascii_render.h"
#include "viz/timeline_model.h"
#include "workloads/workloads.h"

namespace {

using namespace ute;

std::string gMergedFile;
constexpr int kNodes = 4;
constexpr int kCpus = 8;

void printFigure9(const std::string& dir) {
  SppmOptions workload;
  workload.timesteps = 30;
  PipelineOptions options;
  options.dir = dir;
  options.name = "sppm";
  const PipelineResult run = runPipeline(sppm(workload), options);
  gMergedFile = run.mergedFile;

  const Profile profile = makeStandardProfile();
  ViewOptions view;
  view.kind = ViewKind::kProcessorActivity;
  for (int n = 0; n < kNodes; ++n) view.cpuCountHint[n] = kCpus;
  IntervalFileReader merged(run.mergedFile);
  const TimeSpaceModel model = buildView(merged, profile, view);
  std::printf("=== Figure 9: processor-activity view of sPPM ===\n%s\n",
              renderAscii(model).c_str());

  // The paper's two observations, quantified.
  double busy = 0;
  for (const VizTimeline& row : model.rows) {
    for (const VizSegment& s : row.segments) {
      busy += static_cast<double>(s.end - s.start);
    }
  }
  const double capacity =
      static_cast<double>(model.maxTime - model.minTime) * kNodes * kCpus;
  std::printf("CPU utilization: %.1f%% of %d processors (\"the CPUs are "
              "mostly idle\")\n", 100.0 * busy / capacity, kNodes * kCpus);

  IntervalFileReader merged2(run.mergedFile);
  ViewOptions tp;
  tp.kind = ViewKind::kThreadProcessor;
  const TimeSpaceModel migration = buildView(merged2, profile, tp);
  for (const VizTimeline& row : migration.rows) {
    if (row.id != 0) continue;  // the MPI thread of each process
    std::set<std::uint32_t> cpus;
    for (const VizSegment& s : row.segments) cpus.insert(s.colorKey);
    std::printf("MPI thread %s ran on %zu distinct CPUs\n",
                row.label.c_str(), cpus.size());
  }
  std::printf("\n");
}

void BM_BuildProcessorActivityView(benchmark::State& state) {
  const Profile profile = makeStandardProfile();
  ViewOptions view;
  view.kind = ViewKind::kProcessorActivity;
  for (int n = 0; n < kNodes; ++n) view.cpuCountHint[n] = kCpus;
  std::uint64_t records = 0;
  for (auto _ : state) {
    IntervalFileReader merged(gMergedFile);
    records += merged.header().totalRecords;
    benchmark::DoNotOptimize(buildView(merged, profile, view));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_BuildProcessorActivityView)->Unit(benchmark::kMillisecond);

void BM_BuildThreadProcessorView(benchmark::State& state) {
  const Profile profile = makeStandardProfile();
  ViewOptions view;
  view.kind = ViewKind::kThreadProcessor;
  for (auto _ : state) {
    IntervalFileReader merged(gMergedFile);
    benchmark::DoNotOptimize(buildView(merged, profile, view));
  }
}
BENCHMARK(BM_BuildThreadProcessorView)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const ute::benchutil::ScratchDir scratch("bench_fig9");
  printFigure9(scratch.path());
  return ute::benchutil::runBenchmarks(argc, argv);
}
