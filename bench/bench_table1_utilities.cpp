// Table 1: speed of the convert and slogmerge utilities as the raw event
// count scales — the paper's scalability claim is that sec/event stays
// roughly constant from 40 K to 11.2 M raw events (the test program with
// 4 MPI tasks of 4 threads each, run at different problem sizes).
//
// Prints the same two rows the paper reports, then runs per-event
// microbenchmarks on a mid-size trace.
// A parallel-pipeline sweep (--jobs {1,2,4,8} by default, or {1,N} when
// run with --jobs N) over the 641,354-event size reports per-stage
// speedup and records/s (best of 3) and writes BENCH_pipeline.json; a
// parallel run whose outputs differ from the sequential reference fails
// the bench.
// perfbench batch-wide times the same chain at k = 64 (`convert.s`,
// `merge.s`, `slog.encode_s`, `tput_per_s`); this bench keeps Table 1's
// sec/event shape across problem sizes, which perfbench does not sweep.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "interval/standard_profile.h"
#include "support/file_io.h"
#include "support/text.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"

namespace {

using namespace ute;

struct SizedRun {
  std::uint64_t rawEvents = 0;
  std::vector<std::string> rawFiles;
  std::vector<std::string> intervalFiles;
  double convertSecPerEvent = 0;
  double slogmergeSecPerEvent = 0;
};

/// One Table 1 column: simulate, then convert and slogmerge (merge + SLOG
/// emission in one pass) at --jobs 1; the simulation is not timed.
SizedRun runAtSize(const std::string& dir, std::uint64_t targetEvents) {
  TestProgramOptions workload;
  workload.iterations = testProgramIterationsFor(targetEvents);
  PipelineOptions options;
  options.dir = dir;
  std::string name = "t";
  name += std::to_string(targetEvents);
  options.name = std::move(name);
  const PipelineResult run = runPipeline(testProgram(workload), options);
  SizedRun out;
  out.rawEvents = run.rawEvents;
  out.rawFiles = run.rawFiles;
  out.intervalFiles = run.intervalFiles;
  const auto events = static_cast<double>(run.rawEvents);
  out.convertSecPerEvent = run.convertSeconds / events;
  out.slogmergeSecPerEvent = run.mergeSeconds / events;
  return out;
}

std::string gScratch;
std::vector<std::string> gMidIntervalFiles;
std::vector<std::string> gMidRawFiles;

void printTable1() {
  // The paper's six problem sizes (raw event counts).
  const std::vector<std::uint64_t> sizes = {40282,  128378,  254225,
                                            641354, 4613568, 11216936};

  std::printf("=== Table 1: utility speed (sec/event), test program with 4 "
              "MPI tasks x 4 threads ===\n");
  std::vector<SizedRun> runs;
  for (std::uint64_t target : sizes) {
    runs.push_back(runAtSize(gScratch, target));
  }
  std::printf("%-24s", "# raw events");
  for (const SizedRun& r : runs) {
    std::printf(" %12s", withCommas(r.rawEvents).c_str());
  }
  std::printf("\n%-24s", "sec/event in convert");
  for (const SizedRun& r : runs) {
    std::printf(" %12.7f", r.convertSecPerEvent);
  }
  std::printf("\n%-24s", "sec/event in slogmerge");
  for (const SizedRun& r : runs) {
    std::printf(" %12.7f", r.slogmergeSecPerEvent);
  }
  const double first = runs.front().convertSecPerEvent;
  const double last = runs.back().convertSecPerEvent;
  std::printf("\nconvert sec/event ratio largest/smallest: %.2f "
              "(the paper's claim: roughly constant)\n\n",
              last / first);
  gMidRawFiles = runs[1].rawFiles;
  gMidIntervalFiles = runs[1].intervalFiles;
}

struct SweepPoint {
  int jobs = 1;
  double convertSeconds = 0;
  double mergeSeconds = 1e9;
};

/// Best of kSweepReps chains per job count, run round-robin over the job
/// counts so a scheduler hiccup or a busy neighbour hits one rep, not a
/// whole row.
constexpr int kSweepReps = 3;

/// Simulates one 4-node workload, then runs convert+slogmerge on its raw
/// files at each job count; every output must byte-match the --jobs 1
/// reference.
void printPipelineSweep(const std::vector<int>& jobsList) {
  std::printf("=== Parallel pipeline sweep: test program on 4 nodes ===\n");
  TestProgramOptions workload;
  workload.iterations = testProgramIterationsFor(641354);
  workload.nodes = 4;
  PipelineOptions reference;
  reference.dir = gScratch + "/sweep";
  reference.name = "reference";
  const PipelineResult ref = runPipeline(testProgram(workload), reference);
  std::vector<std::vector<std::uint8_t>> refBytes;
  for (const std::string& f : ref.intervalFiles) {
    refBytes.push_back(readWholeFile(f));
  }
  const std::vector<std::uint8_t> refMerged = readWholeFile(ref.mergedFile);
  const std::vector<std::uint8_t> refSlog = readWholeFile(ref.slogFile);

  const Profile profile = makeStandardProfile();
  std::vector<SweepPoint> points;
  for (const int jobs : jobsList) points.push_back(SweepPoint{jobs});
  for (int rep = 0; rep < kSweepReps; ++rep) {
    for (SweepPoint& p : points) {
      ChainOptions options;
      options.convert.jobs = p.jobs;
      options.merge.jobs = p.jobs;
      const ChainResult run = convertAndMerge(
          ref.rawFiles, gScratch + "/sweep/j" + std::to_string(p.jobs),
          profile, options);
      for (std::size_t i = 0; i < run.intervalFiles.size(); ++i) {
        benchutil::require(readWholeFile(run.intervalFiles[i]) == refBytes[i],
                           "interval file differs from --jobs 1");
      }
      benchutil::require(readWholeFile(run.mergedFile) == refMerged,
                         "merged interval file differs from --jobs 1");
      benchutil::require(readWholeFile(run.slogFile) == refSlog,
                         "SLOG file differs from --jobs 1");
      if (run.convertSeconds + run.mergeSeconds <
          p.convertSeconds + p.mergeSeconds) {
        p.convertSeconds = run.convertSeconds;
        p.mergeSeconds = run.mergeSeconds;
      }
    }
  }
  const std::uint64_t records = ref.merge.recordsIn;

  const double base =
      points.front().convertSeconds + points.front().mergeSeconds;
  std::printf("%6s %12s %12s %10s %14s\n", "jobs", "convert(s)",
              "merge(s)", "speedup", "records/s");
  std::vector<benchutil::JsonObject> rows;
  for (const SweepPoint& p : points) {
    const double total = p.convertSeconds + p.mergeSeconds;
    const double recordsPerSec = static_cast<double>(records) / total;
    std::printf("%6d %12.3f %12.3f %9.2fx %14s\n", p.jobs, p.convertSeconds,
                p.mergeSeconds, base / total,
                withCommas(static_cast<std::uint64_t>(recordsPerSec)).c_str());
    benchutil::JsonObject row;
    row.add("jobs", p.jobs)
        .add("convert_seconds", p.convertSeconds, 6)
        .add("merge_seconds", p.mergeSeconds, 6)
        .add("speedup", base / total, 4)
        .add("records_per_second", recordsPerSec, 1)
        .add("identical_to_jobs1", true);
    rows.push_back(row);
  }
  std::printf("(every --jobs N output byte-identical to --jobs 1)\n\n");

  benchutil::JsonObject doc;
  doc.add("workload", "test program, 4 nodes")
      .add("raw_events", ref.rawEvents)
      .add("records", records)
      .add("best_of", kSweepReps)
      .add("points", rows);
  benchutil::writeBenchFile("BENCH_pipeline.json", doc);
  std::printf("\n");
}

void BM_ConvertPerEvent(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto results =
        convertRun(gMidRawFiles, gScratch + "/bm_convert");
    for (const auto& r : results) events += r.rawEvents;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ConvertPerEvent)->Unit(benchmark::kMillisecond);

void BM_SlogmergePerEvent(benchmark::State& state) {
  const Profile profile = makeStandardProfile();
  std::uint64_t records = 0;
  for (auto _ : state) {
    records += slogMerge(gMidIntervalFiles, profile, MergeOptions{},
                         gScratch + "/bm.merged.uti", gScratch + "/bm.slog",
                         SlogOptions{})
                   .merge.recordsIn;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_SlogmergePerEvent)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip a leading-edge --jobs N (benchmark::Initialize rejects unknown
  // flags): when given, sweep {1, N} instead of the default ladder.
  std::vector<int> jobsList = {1, 2, 4, 8};
  std::vector<char*> args(argv, argv + argc);
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (std::strcmp(args[i], "--jobs") == 0 && i + 1 < args.size()) {
      jobsList = {1, std::atoi(args[i + 1])};
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      break;
    }
  }
  int newArgc = static_cast<int>(args.size());

  gScratch = ute::makeScratchDir("bench_table1");
  printTable1();
  printPipelineSweep(jobsList);
  return ute::benchutil::runBenchmarks(newArgc, args.data());
}
