// Metrics-engine throughput: records/s of the streaming computeMetrics()
// pass, swept over the bin count {240, 1000, 10000} and the worker count
// {1, hardware}. Also reports the encoded .utm size per point (the store
// grows linearly with bins x tasks, independent of trace size) and the
// worker count metricsWorkers() picked; a parallel run whose .utm
// differs from the sequential reference fails the bench, as does a .utm
// that differs between the trace's row v1 and columnar v2 encodings. Writes the
// sweep to BENCH_metrics.json, then runs microbenchmarks of the scan and
// the encode/decode round trip. perfbench batch-wide times one 240-bin
// --jobs 4 pass (`analysis.metrics_s`); the bin sweep is only here.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/metrics.h"
#include "bench_util.h"
#include "slog/slog_reader.h"
#include "support/text.h"
#include "support/thread_pool.h"
#include "workloads/workloads.h"

namespace {

using namespace ute;

std::string gSlog;    // columnar v2 (the default encoding)
std::string gSlogV1;  // the same trace written row-major v1
std::uint64_t gRecords = 0;

/// Best of kReps runs, so one point is the scan, not a scheduler hiccup
/// or a neighbour on a shared host. Points compared with each other are
/// timed round-robin, one rep each in turn.
constexpr int kReps = 15;

struct Point {
  const char* encoding = "columnar-v2";
  std::uint32_t bins = 240;
  int jobs = 1;
  double seconds = 1e9;
  std::vector<std::uint8_t> utm;
};

/// Times the first readers.size() points round-robin, point i over
/// readers[i].
void timeRoundRobin(std::vector<Point>& points,
                    const std::vector<const SlogReader*>& readers) {
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < readers.size(); ++i) {
      MetricsOptions options;
      options.bins = points[i].bins;
      options.jobs = points[i].jobs;
      const auto t0 = benchutil::now();
      const MetricsStore store = computeMetrics(*readers[i], options);
      points[i].seconds =
          std::min(points[i].seconds, benchutil::secondsSince(t0));
      if (rep == 0) points[i].utm = store.encode();
    }
  }
}

std::string recordsPerSec(double seconds) {
  return withCommas(static_cast<std::uint64_t>(
      static_cast<double>(gRecords) / seconds));
}

void printSweep() {
  TestProgramOptions workload;
  workload.iterations = 1200;
  workload.nodes = 4;
  PipelineOptions options;
  options.dir = makeScratchDir("bench_metrics");
  options.name = "metrics";
  options.slog.recordsPerFrame = 256;  // plenty of frames to scan
  const PipelineResult run = runPipeline(testProgram(workload), options);
  gSlog = run.slogFile;
  gRecords = run.merge.recordsOut;

  PipelineOptions v1Options = options;
  v1Options.name = "metrics_v1";
  v1Options.slog.formatVersion = 1;
  gSlogV1 = runPipeline(testProgram(workload), v1Options).slogFile;
  const SlogReader reader(gSlog);
  const SlogReader readerV1(gSlogV1);

  // Encoding sweep: the metrics scan over the same trace stored row v1
  // vs columnar v2 — the .utm bytes must be identical either way (the
  // encoding may change speed, never results).
  std::printf("=== Metrics engine: encoding sweep (240 bins, 1 job) ===\n");
  std::printf("%12s %10s %14s\n", "encoding", "seconds", "records/s");
  std::vector<Point> encodings(2);
  encodings[0].encoding = "row-v1";
  timeRoundRobin(encodings, {&readerV1, &reader});
  benchutil::require(encodings[0].utm == encodings[1].utm,
                     ".utm differs between row v1 and columnar v2");
  std::vector<benchutil::JsonObject> encodingRows;
  for (const Point& p : encodings) {
    std::printf("%12s %10.4f %14s\n", p.encoding, p.seconds,
                recordsPerSec(p.seconds).c_str());
    benchutil::JsonObject row;
    row.add("encoding", p.encoding)
        .add("bins", p.bins)
        .add("jobs", p.jobs)
        .add("seconds", p.seconds, 6)
        .add("records_per_second",
             static_cast<double>(gRecords) / p.seconds, 1)
        .add("utm_identical_across_encodings", true);
    encodingRows.push_back(row);
  }
  std::printf("\n");

  // At least 4 workers even on small machines, so the parallel path and
  // its byte-identity check always run.
  const int hw = std::max(4, static_cast<int>(effectiveJobs(0)));
  const std::size_t tasks = makeMetricsStore(reader, {}).taskCount();
  std::printf("=== Metrics engine: bins x jobs sweep ===\n");
  std::printf("(%s merged records, %zu frames)\n",
              withCommas(gRecords).c_str(), reader.frameIndex().size());
  std::printf("%8s %6s %8s %10s %14s %10s\n", "bins", "jobs", "workers",
              "seconds", "records/s", ".utm size");
  std::vector<benchutil::JsonObject> rows;
  for (const std::uint32_t bins : {240u, 1000u, 10000u}) {
    std::vector<Point> points(2);
    for (Point& p : points) p.bins = bins;
    points[1].jobs = hw;
    const std::size_t workers[2] = {
        metricsWorkers(1, reader.frameIndex(), bins, tasks),
        metricsWorkers(hw, reader.frameIndex(), bins, tasks)};
    // A --jobs N that resolves to one worker runs the --jobs 1
    // computation; it is timed once and both rows carry that timing.
    if (workers[1] == workers[0]) {
      timeRoundRobin(points, {&reader});
      points[1].seconds = points[0].seconds;
    } else {
      timeRoundRobin(points, {&reader, &reader});
      benchutil::require(points[0].utm == points[1].utm,
                         ".utm differs between --jobs 1 and --jobs N");
    }
    for (int i = 0; i < 2; ++i) {
      const Point& p = points[static_cast<std::size_t>(i)];
      std::printf("%8u %6d %8zu %10.4f %14s %9.1fK\n", p.bins, p.jobs,
                  workers[i], p.seconds, recordsPerSec(p.seconds).c_str(),
                  static_cast<double>(points[0].utm.size()) / 1024);
      benchutil::JsonObject& row = rows.emplace_back();
      row.add("bins", p.bins)
          .add("jobs", p.jobs)
          .add("workers", workers[i])
          .add("seconds", p.seconds, 6)
          .add("records_per_second",
               static_cast<double>(gRecords) / p.seconds, 1)
          .add("utm_bytes", points[0].utm.size())
          .add("identical_to_jobs1", true);
    }
  }
  std::printf("(every --jobs N .utm byte-identical to --jobs 1)\n\n");

  benchutil::JsonObject doc;
  doc.add("workload", "test program, 4 nodes")
      .add("records", gRecords)
      .add("frames", reader.frameIndex().size())
      .add("best_of", kReps)
      .add("note",
           "a --jobs N row with the same worker count as --jobs 1 runs the "
           "same computation and carries the --jobs 1 timing")
      .add("encoding_points", encodingRows)
      .add("points", rows);
  benchutil::writeBenchFile("BENCH_metrics.json", doc);
  std::printf("\n");
}

void BM_ComputeMetrics(benchmark::State& state) {
  SlogReader reader(gSlog);
  MetricsOptions options;
  options.bins = 240;
  options.jobs = static_cast<int>(state.range(0));
  std::uint64_t records = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(computeMetrics(reader, options));
    records += gRecords;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_ComputeMetrics)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_EncodeDecodeUtm(benchmark::State& state) {
  SlogReader reader(gSlog);
  MetricsOptions options;
  options.bins = static_cast<std::uint32_t>(state.range(0));
  const MetricsStore store = computeMetrics(reader, options);
  for (auto _ : state) {
    const std::vector<std::uint8_t> bytes = store.encode();
    benchmark::DoNotOptimize(MetricsStore::decode(bytes));
  }
}
BENCHMARK(BM_EncodeDecodeUtm)->Arg(240)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  printSweep();
  return ute::benchutil::runBenchmarks(argc, argv);
}
