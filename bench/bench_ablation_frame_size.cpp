// Ablation for Sections 2.3/4.0: the frame size trades file overhead
// (directory entries, restated pseudo-intervals) against the cost of
// loading the single frame a viewer displays. Prints a sweep over target
// frame sizes and benchmarks time-based frame lookup.
#include <cstdio>

#include "bench_util.h"
#include "interval/file_reader.h"
#include "interval/standard_profile.h"
#include "merge/merger.h"
#include "workloads/workloads.h"

namespace {

using namespace ute;

std::string gDir;
std::vector<std::string> gInputs;
std::string gLookupFile;

void printAblation() {
  // One mid-size test-program run feeds every sweep point.
  TestProgramOptions workload;
  workload.iterations = 1500;
  PipelineOptions options;
  options.dir = gDir;
  options.name = "base";
  options.writeSlog = false;
  const PipelineResult run = runPipeline(testProgram(workload), options);
  gInputs = run.intervalFiles;

  const Profile profile = makeStandardProfile();
  std::printf("=== Ablation (Sections 2.3/4.0): frame size sweep ===\n");
  std::printf("%12s %10s %12s %10s %14s %14s\n", "frame bytes", "frames",
              "file bytes", "pseudo", "locate us", "read-frame us");
  for (std::size_t frameBytes : {4096ul, 16384ul, 65536ul, 262144ul}) {
    MergeOptions merge;
    merge.targetFrameBytes = frameBytes;
    const std::string out =
        gDir + "/sweep_" + std::to_string(frameBytes) + ".uti";
    IntervalMerger merger(gInputs, profile, merge);
    const MergeResult result = merger.mergeTo(out);

    IntervalFileReader reader(out);
    std::uint64_t frames = 0;
    for (FrameDirectory dir = reader.firstDirectory(); !dir.frames.empty();
         dir = reader.readDirectory(dir.nextOffset)) {
      frames += dir.frames.size();
      if (dir.nextOffset == 0) break;
    }
    const Tick middle =
        reader.header().minStart +
        (reader.header().maxEnd - reader.header().minStart) / 2;
    // Average the locate + read costs.
    const auto t0 = benchutil::now();
    for (int i = 0; i < 50; ++i) {
      benchmark::DoNotOptimize(reader.frameContaining(middle));
    }
    const double locateUs = benchutil::secondsSince(t0) / 50 * 1e6;
    const auto frame = reader.frameContaining(middle);
    const auto t1 = benchutil::now();
    for (int i = 0; i < 50; ++i) {
      benchmark::DoNotOptimize(reader.readFrame(*frame));
    }
    const double readUs = benchutil::secondsSince(t1) / 50 * 1e6;

    FileReader f(out);
    std::printf("%12zu %10llu %12llu %10llu %14.2f %14.2f\n", frameBytes,
                static_cast<unsigned long long>(frames),
                static_cast<unsigned long long>(f.size()),
                static_cast<unsigned long long>(result.pseudoRecords),
                locateUs, readUs);
    if (frameBytes == 16384ul) gLookupFile = out;
  }
  std::printf("(small frames: cheap display, more pseudo-record overhead; "
              "large frames: the reverse)\n\n");
}

void BM_FrameContaining(benchmark::State& state) {
  IntervalFileReader reader(gLookupFile);
  const Tick middle =
      reader.header().minStart +
      (reader.header().maxEnd - reader.header().minStart) / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reader.frameContaining(middle));
  }
}
BENCHMARK(BM_FrameContaining)->Unit(benchmark::kMicrosecond);

void BM_SequentialScan(benchmark::State& state) {
  std::uint64_t records = 0;
  for (auto _ : state) {
    IntervalFileReader reader(gLookupFile);
    auto stream = reader.records();
    RecordView view;
    while (stream.next(view)) ++records;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_SequentialScan)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const ute::benchutil::ScratchDir scratch("bench_frame_sweep");
  gDir = scratch.path();
  printAblation();
  return ute::benchutil::runBenchmarks(argc, argv);
}
