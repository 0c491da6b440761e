// Shared plumbing for the three workloads: run options, the result every
// workload returns, and small helpers (timing, peak RSS, file bytes, the
// set-up and measurement phase helpers).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "server/reactor.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the run's generated inputs and outputs (created and
  /// removed by main()).
  std::string scratch;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main(): the operation tally, the
/// end-to-end metrics, the per-layer metrics (traced run only) and
/// report lines for the human reader.
struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the run cannot be trusted, e.g. the open-loop generator
  /// fell behind its schedule.
  bool valid = true;
  std::vector<Metric> endToEnd;
  std::vector<Metric> perLayer;
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    ++failed;
    if (notes.size() < 64) notes.push_back("FAILED: " + why);
  }
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// System calls a reactor has made: reads, writes, waits and wake-ups.
inline std::uint64_t syscalls(const ute::Reactor::Stats& s) {
  return s.recvCalls + s.sendCalls + s.epollWaits + s.eventfdWakeups;
}

/// Peak resident set of this process so far, in MB.
double peakRssMb();

/// Whole-file bytes (for the byte-identity checks).
std::vector<unsigned char> fileBytes(const std::string& path);

/// Runs `setup(rep)` `reps` times and returns the median wall time in
/// seconds. The last repetition's state is what the workload measures on.
template <typename F>
double medianSetupSeconds(int reps, F&& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup(i);
    times.push_back(secondsSince(t0));
  }
  return median(times);
}

/// Runs a workload's measured phase. An untraced run gives it the whole
/// budget. A traced run gives the first half to an untraced pass and the
/// second half to a traced pass, takes the per-layer metrics from the
/// traced one, and adds "overhead.<metric>" = traced minus untraced for
/// each end-to-end metric the phase measures. `measure(seconds, traced)`
/// returns those end-to-end metrics, and adds per-layer ones to the
/// result itself when traced.
template <typename Measure>
std::vector<Metric> measurePhases(const RunOptions& opt, WorkloadResult& res,
                                  Measure&& measure) {
  Tracer& tracer = Tracer::instance();
  if (!opt.trace) return measure(opt.seconds, false);
  tracer.enable(false);
  const std::vector<Metric> plain = measure(opt.seconds / 2, false);
  tracer.enable(true);
  const std::vector<Metric> traced = measure(opt.seconds / 2, true);
  for (std::size_t i = 0; i < traced.size() && i < plain.size(); ++i) {
    res.perLayer.push_back({"overhead." + traced[i].name,
                            traced[i].value - plain[i].value,
                            traced[i].unit});
  }
  return traced;
}

}  // namespace perfbench
