// Figure 7: preview + frame display, and the scalability property behind
// it — "Scalability in the time it takes to display this frame
// (independence from the size of the SLOG file) comes from the
// combination of this preview and the frame index".
//
// Prints the preview histogram for the FLASH-like run, then a table of
// frame-locate-and-display times against SLOG files whose sizes span two
// orders of magnitude: the display time stays flat while the file grows.
// The table's last column carries the claim over to queries: a warm
// TraceService window of fixed duration at the middle of the run. Its
// last row splits the largest run into more than 10^4 small frames, so
// both the frame lookup and the window must stay flat in the frame count
// as well as in the file size.
#include <cstdio>

#include "bench_util.h"
#include "server/trace_service.h"
#include "slog/slog_reader.h"
#include "viz/ascii_render.h"
#include "viz/timeline_model.h"
#include "workloads/workloads.h"

namespace {

using namespace ute;

struct SizedSlog {
  std::uint64_t fileBytes = 0;
  std::string path;
};

std::vector<SizedSlog> gSlogs;
std::string gFlashSlog;

std::string buildSlogOfSize(const std::string& dir, std::uint32_t iterations,
                            std::uint32_t recordsPerFrame) {
  TestProgramOptions workload;
  workload.iterations = iterations;
  PipelineOptions options;
  options.dir = dir;
  std::string name = "s";
  name += std::to_string(iterations);
  name += "_";
  name += std::to_string(recordsPerFrame);
  options.name = std::move(name);
  options.slog.recordsPerFrame = recordsPerFrame;
  return runPipeline(testProgram(workload), options).slogFile;
}

void printFigure7(const std::string& dir) {
  // The preview itself, on the FLASH-like phased run.
  {
    PipelineOptions options;
    options.dir = dir;
    options.name = "flash";
    options.slog.recordsPerFrame = 512;
    const PipelineResult run = runPipeline(flash(FlashOptions{}), options);
    gFlashSlog = run.slogFile;
    SlogReader slog(run.slogFile);
    std::printf("=== Figure 7 (preview window): whole-run state histogram "
                "===\n%s\n",
                renderPreviewAscii(slog.preview(), slog.states(), 72)
                    .c_str());
  }

  // The scalability claim: locate + load + build one frame's view, as
  // the file size grows ~30x; then the same largest run in small frames.
  std::printf("=== Figure 7 (frame display scalability) ===\n");
  std::printf("%14s %10s %10s %16s %16s\n", "slog bytes", "frames",
              "records", "frame display ms", "warm window us");
  struct Size {
    std::uint32_t iterations;
    std::uint32_t recordsPerFrame;
  };
  Tick windowTicks = 0;  // 1/32 of the smallest run, for every file
  for (const Size size : {Size{300, 2048}, Size{1200, 2048}, Size{4800, 2048},
                          Size{9600, 2048}, Size{9600, 64}}) {
    const std::string path =
        buildSlogOfSize(dir, size.iterations, size.recordsPerFrame);
    SlogReader slog(path);
    const Tick middle =
        slog.totalStart() + (slog.totalEnd() - slog.totalStart()) / 2;
    // Warm: one untimed pass, then average 20 timed displays.
    const auto display = [&] {
      const auto idx = slog.frameIndexFor(middle);
      benchmark::DoNotOptimize(buildSlogFrameView(slog, *idx));
    };
    display();
    const auto t0 = benchutil::now();
    for (int i = 0; i < 20; ++i) display();
    const double ms = benchutil::secondsSince(t0) / 20.0 * 1e3;

    // Warm window: one untimed call caches its frames, then 200 timed.
    if (windowTicks == 0) {
      windowTicks = (slog.totalEnd() - slog.totalStart()) / 32;
    }
    TraceService service({path});
    WindowQuery q;
    q.t0 = middle;
    q.t1 = middle + windowTicks;
    benchmark::DoNotOptimize(service.window(0, q));
    const auto w0 = benchutil::now();
    for (int i = 0; i < 200; ++i) {
      benchmark::DoNotOptimize(service.window(0, q));
    }
    const double windowUs = benchutil::secondsSince(w0) / 200.0 * 1e6;

    std::uint64_t records = 0;
    for (const auto& e : slog.frameIndex()) records += e.records;
    FileReader f(path);
    std::printf("%14llu %10zu %10llu %16.3f %16.1f\n",
                static_cast<unsigned long long>(f.size()),
                slog.frameIndex().size(),
                static_cast<unsigned long long>(records), ms, windowUs);
    gSlogs.push_back({f.size(), path});
  }
  std::printf("(display time and warm window time stay flat while the file "
              "and its frame count grow — the frame index + "
              "pseudo-intervals at work)\n\n");
}

void BM_FrameLocateAndDisplay(benchmark::State& state) {
  const SizedSlog& sized = gSlogs[static_cast<std::size_t>(state.range(0))];
  SlogReader slog(sized.path);
  const Tick middle =
      slog.totalStart() + (slog.totalEnd() - slog.totalStart()) / 2;
  for (auto _ : state) {
    const auto idx = slog.frameIndexFor(middle);
    benchmark::DoNotOptimize(buildSlogFrameView(slog, *idx));
  }
  state.counters["file_bytes"] = static_cast<double>(sized.fileBytes);
}
BENCHMARK(BM_FrameLocateAndDisplay)->DenseRange(0, 4)->Unit(
    benchmark::kMicrosecond);

void BM_PreviewRebin(benchmark::State& state) {
  SlogReader slog(gFlashSlog);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rebinPreview(slog.preview(), 50));
  }
}
BENCHMARK(BM_PreviewRebin);

}  // namespace

int main(int argc, char** argv) {
  const ute::benchutil::ScratchDir scratch("bench_fig7");
  printFigure7(scratch.path());
  return ute::benchutil::runBenchmarks(argc, argv);
}
