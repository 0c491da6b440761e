#include "chain.h"

#include <map>
#include <utility>

#include "analysis/metrics.h"
#include "analysis/metrics_io.h"
#include "common.h"
#include "convert/converter.h"
#include "interval/record.h"
#include "interval/standard_profile.h"
#include "merge/merger.h"
#include "mpisim/mpi_runtime.h"
#include "sim/simulation.h"
#include "slog/slog_reader.h"
#include "slog/slog_writer.h"
#include "spans.h"

namespace perfbench {

RawRun simulate(ute::SimulationConfig config, const std::string& prefix) {
  config.trace.filePrefix = prefix;
  RawRun run;
  ute::Simulation sim(std::move(config));
  ute::MpiRuntime mpi(sim);
  sim.setMpiService(&mpi);
  {
    Span span("sim.run");
    sim.run();
  }
  run.files = sim.traceFilePaths();
  for (ute::NodeId n = 0;
       static_cast<std::size_t>(n) < sim.config().nodes.size(); ++n) {
    run.events += sim.sessionStats(n).eventsCut;
  }
  return run;
}

bool clockPairOf(std::span<const std::uint8_t> body,
                 ute::TimestampPair& out) {
  using namespace ute;
  const RecordView v = RecordView::parse(body);
  if (v.eventType() != kClockSyncState) return false;
  if (body.size() < kCommonPrefixBytes + 8) return false;
  std::uint64_t g = 0;
  for (int i = 0; i < 8; ++i) {
    g |= static_cast<std::uint64_t>(body[kCommonPrefixBytes + i]) << (8 * i);
  }
  out.local = v.start;
  out.global = g;
  return true;
}

ChainResult runChain(const RawRun& raw, const std::string& prefix, int jobs,
                     bool writeMetrics) {
  using namespace ute;
  Tracer& tracer = Tracer::instance();
  const bool traced = tracer.enabled();
  ChainResult out;
  const auto t0 = Clock::now();
  Span chain("chain.run");

  ConvertOptions convertOptions;
  convertOptions.jobs = jobs;
  {
    Span span("convert.convertRun");
    const auto c0 = Clock::now();
    for (const ConvertResult& c : convertRun(raw.files, prefix, convertOptions)) {
      out.intervalFiles.push_back(c.outputPath);
      out.rawEvents += c.rawEvents;
    }
    out.convertSeconds = secondsSince(c0);
  }

  // The SLOG writer takes the merged thread table and markers, collected
  // from the inputs the way utepipeline does.
  const Profile profile = makeStandardProfile();
  std::vector<ThreadEntry> threads;
  std::map<std::uint32_t, std::string> markers;
  for (const std::string& path : out.intervalFiles) {
    IntervalFileReader reader(path);
    threads.insert(threads.end(), reader.threads().begin(),
                   reader.threads().end());
    for (const auto& [id, name] : reader.markers()) markers.emplace(id, name);
  }

  MergeOptions mergeOptions;
  mergeOptions.jobs = jobs;
  out.slogPath = prefix + ".slog";
  SlogWriter slog(out.slogPath, SlogOptions{}, profile, threads, markers);
  IntervalMerger merger(out.intervalFiles, profile, mergeOptions);
  MergeResult merged;
  std::uint32_t mergeSpan = 0;
  {
    Span span("merge.mergeTo");
    mergeSpan = span.id();
    const auto m0 = Clock::now();
    if (traced) {
      std::int64_t sinkNs = 0;
      std::uint64_t calls = 0;
      merged = merger.mergeTo(prefix + ".merged.uti",
                              [&](const RecordView& r) {
                                const std::int64_t s = nowNs();
                                slog.addRecord(r);
                                sinkNs += nowNs() - s;
                                ++calls;
                              });
      tracer.addChildTime(span.id(), sinkNs, calls);
      out.slogSeconds = static_cast<double>(sinkNs) * 1e-9;
    } else {
      merged = merger.mergeTo(prefix + ".merged.uti",
                              [&slog](const RecordView& r) {
                                slog.addRecord(r);
                              });
      out.mergeSeconds = secondsSince(m0);
    }
  }
  if (traced) {
    out.mergeSeconds =
        static_cast<double>(selfTimeNs(tracer.record(mergeSpan),
                                       tracer.childrenOf(mergeSpan))) *
        1e-9;
  }
  {
    Span span("slog.close");
    const auto s0 = Clock::now();
    slog.close();
    out.slogSeconds += secondsSince(s0);
  }
  out.recordsOut = merged.recordsOut;
  out.pseudoRecords = merged.pseudoRecords;
  out.slogEntries = slog.intervalsWritten() + slog.arrowsWritten();

  if (writeMetrics) {
    Span span("analysis.computeMetrics");
    const auto a0 = Clock::now();
    SlogReader reader(out.slogPath);
    MetricsOptions metricsOptions;
    metricsOptions.jobs = jobs;
    out.utmPath = prefix + ".utm";
    writeMetricsFile(out.utmPath, computeMetrics(reader, metricsOptions));
    out.metricsSeconds = secondsSince(a0);
  }
  out.seconds = secondsSince(t0);
  return out;
}

}  // namespace perfbench
