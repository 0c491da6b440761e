// Figure 8: thread-activity view of the ASCI sPPM benchmark shape —
// 4 nodes, each an 8-way SMP, four threads per MPI process, one of which
// makes MPI calls; one thread is idle. Prints the view and benchmarks
// building + rendering it.
#include <cstdio>

#include "bench_util.h"
#include "interval/standard_profile.h"
#include "viz/ascii_render.h"
#include "viz/svg_render.h"
#include "viz/timeline_model.h"
#include "workloads/workloads.h"

namespace {

using namespace ute;

std::string gMergedFile;

void printFigure8(const std::string& dir) {
  SppmOptions workload;
  workload.timesteps = 30;
  PipelineOptions options;
  options.dir = dir;
  options.name = "sppm";
  const PipelineResult run = runPipeline(sppm(workload), options);
  gMergedFile = run.mergedFile;

  const Profile profile = makeStandardProfile();
  IntervalFileReader merged(run.mergedFile);
  ViewOptions view;
  view.kind = ViewKind::kThreadActivity;
  view.connectPieces = true;
  const TimeSpaceModel model = buildView(merged, profile, view);
  std::printf("=== Figure 8: thread-activity view of sPPM (4 nodes x 8-way "
              "SMP, 4 threads/process, 1 MPI thread) ===\n%s\n",
              renderAscii(model).c_str());
}

void BM_BuildThreadActivityView(benchmark::State& state) {
  const Profile profile = makeStandardProfile();
  ViewOptions view;
  view.kind = ViewKind::kThreadActivity;
  view.connectPieces = state.range(0) != 0;
  std::uint64_t records = 0;
  for (auto _ : state) {
    IntervalFileReader merged(gMergedFile);
    records += merged.header().totalRecords;
    benchmark::DoNotOptimize(buildView(merged, profile, view));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetLabel(view.connectPieces ? "connected" : "pieces");
}
BENCHMARK(BM_BuildThreadActivityView)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

void BM_RenderSvg(benchmark::State& state) {
  const Profile profile = makeStandardProfile();
  IntervalFileReader merged(gMergedFile);
  ViewOptions view;
  view.kind = ViewKind::kThreadActivity;
  const TimeSpaceModel model = buildView(merged, profile, view);
  for (auto _ : state) {
    benchmark::DoNotOptimize(renderSvg(model));
  }
}
BENCHMARK(BM_RenderSvg)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const ute::benchutil::ScratchDir scratch("bench_fig8");
  printFigure8(scratch.path());
  return ute::benchutil::runBenchmarks(argc, argv);
}
