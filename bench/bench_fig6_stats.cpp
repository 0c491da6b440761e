// Figure 6: the statistics viewer's pre-defined table — per-node sum of
// interesting (non-Running) interval durations over 50 equal time bins —
// on the FLASH-like phased workload. The printed heatmap shows the three
// busy time ranges the paper's figure identifies. Microbenchmarks cover
// the statistics engine's record throughput.
#include <cstdio>

#include "bench_util.h"
#include "interval/standard_profile.h"
#include "stats/engine.h"
#include "stats/parser.h"
#include "viz/stats_viewer.h"
#include "workloads/workloads.h"

namespace {

using namespace ute;

std::string gMergedFile;

void printFigure6(const std::string& dir) {
  PipelineOptions options;
  options.dir = dir;
  options.name = "flash";
  options.writeSlog = false;
  const PipelineResult run = runPipeline(flash(FlashOptions{}), options);
  gMergedFile = run.mergedFile;

  const Profile profile = makeStandardProfile();
  IntervalFileReader merged(run.mergedFile);
  StatsEngine engine(profile);
  const auto tables = engine.runProgram(predefinedTablesProgram(), merged);

  std::printf("=== Figure 6: statistics visualization (sum of interesting "
              "durations per node x 50 time bins) ===\n");
  for (const StatsTable& t : tables) {
    if (t.name != "interesting_by_node_bin") continue;
    std::printf("%s\n",
                renderStatsHeatmapAscii(t, "bin", "node", "sum(duration)")
                    .c_str());
  }
  std::printf("\n");
}

void BM_PredefinedTables(benchmark::State& state) {
  const Profile profile = makeStandardProfile();
  StatsEngine engine(profile);
  std::uint64_t records = 0;
  for (auto _ : state) {
    IntervalFileReader merged(gMergedFile);
    records += merged.header().totalRecords;
    benchmark::DoNotOptimize(
        engine.runProgram(predefinedTablesProgram(), merged));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_PredefinedTables)->Unit(benchmark::kMillisecond);

void BM_SingleTable(benchmark::State& state) {
  const Profile profile = makeStandardProfile();
  StatsEngine engine(profile);
  std::uint64_t records = 0;
  for (auto _ : state) {
    IntervalFileReader merged(gMergedFile);
    records += merged.header().totalRecords;
    benchmark::DoNotOptimize(engine.runProgram(
        "table name=t condition=(state != \"Running\") "
        "x=(\"node\", node) x=(\"bin\", timebin(50)) "
        "y=(\"sum\", dura, sum)",
        merged));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_SingleTable)->Unit(benchmark::kMillisecond);

void BM_ParseProgram(benchmark::State& state) {
  const std::string program = predefinedTablesProgram();
  for (auto _ : state) {
    benchmark::DoNotOptimize(parseStatsProgram(program));
  }
}
BENCHMARK(BM_ParseProgram);

}  // namespace

int main(int argc, char** argv) {
  const ute::benchutil::ScratchDir scratch("bench_fig6");
  printFigure6(scratch.path());
  return ute::benchutil::runBenchmarks(argc, argv);
}
