// perfbench — the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload batch-wide|query-zipf|live-tail --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--git-sha SHA]
//
// Drives the layers in-process through their public entry points, checks
// the outputs, and prints as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (and the spans go to DIR/trace-<workload>-<seed>.json).
// See perfbench/README.md.
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "common.h"
#include "spans.h"
#include "workloads_all.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricName>& perLayerNames() {
  static const std::vector<MetricName> names = {
      {"sim.s", "s"},
      {"sim.events", "count"},
      {"convert.s", "s"},
      {"convert.records_per_s", "1/s"},
      {"clock.fit_s", "s"},
      {"merge.s", "s"},
      {"merge.records_out", "count"},
      {"merge.pseudo_per_record", "ratio"},
      {"slog.encode_s", "s"},
      {"slog.bytes_per_record", "B"},
      {"slog.frame_read_p50_ms", "ms"},
      {"analysis.metrics_s", "s"},
      {"server.service_p50_ms", "ms"},
      {"server.wire_p50_ms", "ms"},
      {"server.cache_hit_ratio", "ratio"},
      {"server.cache_evictions", "count"},
      {"server.pool_rejected", "count"},
      {"server.syscalls_per_req", "count"},
      {"fed.query_p50_ms", "ms"},
      {"fed.query_p99_ms", "ms"},
      {"fed.hop_p50_ms", "ms"},
      {"fed.cache_hit_ratio", "ratio"},
      {"fed.syscalls_per_req", "count"},
      {"stream.ack_p50_ms", "ms"},
      {"stream.watermark_lag_ms", "ms"},
      {"stream.frames_sealed", "count"},
      {"stream.tail_poll_p50_ms", "ms"},
      {"stream.syscalls_per_record", "count"},
      {"gen.late_p99_ms", "ms"},
      {"gen.sent", "count"},
      {"overhead.p50_ms", "ms"},
      {"overhead.p99_ms", "ms"},
      {"overhead.tput_per_s", "1/s"},
  };
  return names;
}

namespace {

std::string fsTypeName(const std::string& path) {
  struct statfs st{};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload batch-wide|query-zipf|live-tail "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--git-sha SHA]\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  namespace fs = std::filesystem;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0 || !args.count("workload") || !args.count("work-dir")) {
    return usage();
  }
  RunOptions opt;
  opt.workload = args["workload"];
  opt.seed = std::strtoull(args.count("seed") ? args["seed"].c_str() : "1",
                           nullptr, 10);
  opt.seconds = args.count("seconds") ? std::atof(args["seconds"].c_str()) : 10;
  opt.trace = args.count("trace") && args["trace"] == "1";
  if (opt.seconds <= 0) return usage();

  WorkloadResult (*run)(const RunOptions&) = nullptr;
  if (opt.workload == "batch-wide") run = runBatchWide;
  else if (opt.workload == "query-zipf") run = runQueryZipf;
  else if (opt.workload == "live-tail") run = runLiveTail;
  else return usage();

  const fs::path workDir = args["work-dir"];
  opt.scratch = (workDir / ("scratch-" + opt.workload + "-" +
                            std::to_string(getpid())))
                    .string();
  fs::remove_all(opt.scratch);
  fs::create_directories(opt.scratch);

  // Environment stamp: what the numbers below were measured on.
  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
  std::printf(
      "perfbench-env {\"nproc\": %ld, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"release\": %s, \"git_sha\": \"%s\", "
      "\"scratch_fs\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, PERFBENCH_BUILD_TYPE,
      release ? "true" : "false",
      args.count("git-sha") ? args["git-sha"].c_str() : "unknown",
      fsTypeName(opt.scratch).c_str(), opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0);
  if (!release) {
    std::printf("perfbench: WARNING: not a Release build; timings are not "
                "comparable\n");
  }
  std::fflush(stdout);

  Tracer::instance().enable(opt.trace);
  WorkloadResult res;
  try {
    res = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    fs::remove_all(opt.scratch);
    return 1;
  }
  fs::remove_all(opt.scratch);

  if (opt.trace) {
    const std::string tracePath =
        (workDir / ("trace-" + opt.workload + "-" + std::to_string(opt.seed) +
                    ".json"))
            .string();
    if (!Tracer::instance().write(tracePath)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", tracePath.c_str());
      return 1;
    }
    std::printf("perfbench: spans written to %s\n", tracePath.c_str());
  }
  for (const Metric& m : res.endToEnd) {
    std::printf("perfbench: %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& note : res.notes) {
    std::printf("perfbench: %s\n", note.c_str());
  }
  if (!res.valid) {
    std::printf("perfbench: run INVALID: the open-loop generator fell "
                "behind its schedule\n");
  }

  std::vector<Metric> metrics;
  if (opt.trace) {
    std::map<std::string, double> measured;
    for (const Metric& m : res.perLayer) measured[m.name] = m.value;
    for (const MetricName& n : perLayerNames()) {
      metrics.push_back({n.name, measured.count(n.name) ? measured[n.name] : 0,
                         n.unit});
    }
  } else {
    metrics = res.endToEnd;
  }
  std::string line = std::string("{\"correct\": ") +
                     (res.failed == 0 && res.valid ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            jsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
