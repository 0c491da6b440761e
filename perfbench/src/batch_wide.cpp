// batch-wide: the offline chain at --jobs 4 over k = 64 per-node raw
// files. Merge selection, pass-1 clock fits and the convert fan-out all
// scale with k, so this is the workload a merge-k change must move; the
// other two workloads run merge at small k or not at all.
//
// Set-up simulates the 64 nodes (repeated, median reported) and runs one
// untimed --jobs 1 warm-up pass whose outputs are the reference. Timed
// passes reuse the same inputs; each one's .slog and .utm must be
// byte-identical to the reference. A viewing phase then opens random
// frames of the produced SLOG, which is what a user does next with it.
#include <filesystem>
#include <string>
#include <vector>

#include "chain.h"
#include "clock/sync.h"
#include "common.h"
#include "gen.h"
#include "interval/file_reader.h"
#include "slog/slog_reader.h"
#include "spans.h"
#include "stream/online_fit.h"
#include "workloads/workloads.h"
#include "workloads_all.h"

namespace perfbench {

namespace {

constexpr int kNodes = 64;
constexpr int kTasks = 64;
constexpr std::uint32_t kIterations = 300;
constexpr int kJobs = 4;
constexpr int kSetupReps = 5;
constexpr int kMinPasses = 3;
constexpr double kViewSliceSeconds = 0.4;

ute::SimulationConfig wideConfig(std::uint64_t seed) {
  ute::TestProgramOptions o;
  o.iterations = kIterations;
  o.tasks = kTasks;
  o.nodes = kNodes;
  o.seed = seed;
  return ute::testProgram(o);
}

/// The (global, local) pairs of an interval file's ClockSync records.
std::vector<ute::TimestampPair> clockPairs(const std::string& path) {
  ute::IntervalFileReader reader(path);
  std::vector<ute::TimestampPair> pairs;
  auto records = reader.records();
  ute::RecordView view;
  ute::TimestampPair pair;
  while (records.next(view)) {
    if (clockPairOf(view.body, pair)) pairs.push_back(pair);
  }
  return pairs;
}

}  // namespace

WorkloadResult runBatchWide(const RunOptions& opt) {
  namespace fs = std::filesystem;
  WorkloadResult res;
  const fs::path dir = fs::path(opt.scratch) / "batch-wide";
  fs::create_directories(dir / "raw");

  RawRun raw;
  const double setupS = medianSetupSeconds(kSetupReps, [&](int) {
    raw = simulate(wideConfig(opt.seed), (dir / "raw" / "run").string());
  });

  // Untimed warm-up at --jobs 1: the reference outputs.
  fs::create_directories(dir / "ref");
  const ChainResult ref =
      runChain(raw, (dir / "ref" / "run").string(), 1, true);
  const std::vector<unsigned char> refSlog = fileBytes(ref.slogPath);
  const std::vector<unsigned char> refUtm = fileBytes(ref.utmPath);

  fs::create_directories(dir / "pass");
  ute::SlogReader reader(ref.slogPath);
  const std::size_t frames = reader.frameIndex().size();
  Rng rng = Rng(opt.seed).fork(1);

  const std::vector<Metric> measured = measurePhases(opt, res, [&](double seconds,
                                                                   bool traced) {
    // Rounds of one timed pass followed by a slice of viewing (frames at
    // uniformly random positions of the fresh SLOG), so both metrics
    // sample the whole phase.
    std::vector<ChainResult> passes;
    std::vector<double> frameMs;
    const auto phase0 = Clock::now();
    while (passes.size() < kMinPasses || secondsSince(phase0) < seconds) {
      passes.push_back(
          runChain(raw, (dir / "pass" / "run").string(), kJobs, true));
      ++res.attempted;
      const ChainResult& p = passes.back();
      if (fileBytes(p.slogPath) != refSlog) {
        res.fail("pass " + std::to_string(passes.size()) +
                 ": .slog differs from the --jobs 1 reference");
      } else if (fileBytes(p.utmPath) != refUtm) {
        res.fail("pass " + std::to_string(passes.size()) +
                 ": .utm differs from the --jobs 1 reference");
      }
      const auto view0 = Clock::now();
      while (secondsSince(view0) < kViewSliceSeconds) {
        const std::size_t idx = rng.below(frames);
        ute::SlogFramePtr frame;
        {
          Span span("slog.readFrame");
          const auto t0 = Clock::now();
          frame = reader.readFrame(idx);
          frameMs.push_back(msBetween(t0, Clock::now()));
        }
        ++res.attempted;
        const std::size_t entries =
            frame->intervals.size() + frame->arrows.size();
        if (entries != reader.frameIndex()[idx].records) {
          res.fail("frame " + std::to_string(idx) + " decoded " +
                   std::to_string(entries) + " entries, index says " +
                   std::to_string(reader.frameIndex()[idx].records));
        }
      }
    }

    std::vector<double> passSeconds, convertS, mergeS, slogS, metricsS;
    for (const ChainResult& p : passes) {
      passSeconds.push_back(p.seconds);
      convertS.push_back(p.convertSeconds);
      mergeS.push_back(p.mergeSeconds);
      slogS.push_back(p.slogSeconds);
      metricsS.push_back(p.metricsSeconds);
    }
    const double passMedian = median(passSeconds);
    const Summary view = summarize(frameMs);
    res.notes.push_back(std::string("batch-wide") + (traced ? " (traced)" : "") +
                        ": pipeline_s median " + std::to_string(passMedian) +
                        " s over " + std::to_string(passes.size()) +
                        " --jobs 4 passes; frame reads n=" +
                        std::to_string(view.n) + ", " +
                        std::to_string(view.beyondP99) + " beyond p99");

    if (traced) {
      // Pass 1 of the merge on its own: one batch clock fit per input.
      double fitSeconds = 0;
      for (const std::string& path : ref.intervalFiles) {
        std::vector<ute::TimestampPair> pairs = clockPairs(path);
        Span span("clock.batchClockFit");
        const auto t0 = Clock::now();
        const ute::ClockMap map = ute::batchClockFit(
            std::move(pairs), ute::SyncMethod::kRmsSegments, true, 5e-5);
        fitSeconds += secondsSince(t0);
        if (!map.valid()) res.fail("clock fit invalid for " + path);
      }
      const double convertMedian = median(convertS);
      const std::vector<Metric> layers = {
          {"sim.s", Tracer::instance().totalSeconds("sim.run") / kSetupReps,
           "s"},
          {"sim.events", static_cast<double>(raw.events), "count"},
          {"convert.s", convertMedian, "s"},
          {"convert.records_per_s",
           static_cast<double>(ref.rawEvents) / convertMedian, "1/s"},
          {"clock.fit_s", fitSeconds, "s"},
          {"merge.s", median(mergeS), "s"},
          {"merge.records_out", static_cast<double>(ref.recordsOut), "count"},
          {"merge.pseudo_per_record",
           static_cast<double>(ref.pseudoRecords) /
               static_cast<double>(ref.recordsOut),
           "ratio"},
          {"slog.encode_s", median(slogS), "s"},
          {"slog.bytes_per_record",
           static_cast<double>(fs::file_size(ref.slogPath)) /
               static_cast<double>(ref.slogEntries),
           "B"},
          {"slog.frame_read_p50_ms", view.p50, "ms"},
          {"analysis.metrics_s", median(metricsS), "s"},
      };
      res.perLayer.insert(res.perLayer.end(), layers.begin(), layers.end());
    }
    return std::vector<Metric>{
        {"p50_ms", view.p50, "ms"},
        {"p99_ms", view.p99, "ms"},
        {"tput_per_s", static_cast<double>(ref.rawEvents) / passMedian, "1/s"},
    };
  });

  res.endToEnd = {{"setup_s", setupS, "s"}, {"peak_rss_mb", peakRssMb(), "MB"}};
  res.endToEnd.insert(res.endToEnd.end(), measured.begin(), measured.end());
  res.notes.push_back(
      "batch-wide: k=" + std::to_string(ref.intervalFiles.size()) +
      " raw events=" + std::to_string(ref.rawEvents) +
      " merged records=" + std::to_string(ref.recordsOut) + " (pseudo " +
      std::to_string(ref.pseudoRecords) + ") in " + std::to_string(frames) +
      " SLOG frames");
  return res;
}

}  // namespace perfbench
