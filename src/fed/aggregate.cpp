#include "fed/aggregate.h"

#include <algorithm>
#include <cmath>

namespace ute {

Distribution summarize(std::vector<double> values) {
  Distribution d;
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  d.min = values.front();
  d.max = values.back();
  double sum = 0;
  for (double v : values) sum += v;
  d.mean = sum / static_cast<double>(values.size());
  // Nearest-rank percentile: the smallest value with at least p% of the
  // sample at or below it.
  const auto rank = [&values](double p) {
    const std::size_t n = values.size();
    std::size_t r = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n)));
    if (r == 0) r = 1;
    return values[std::min(r, n) - 1];
  };
  d.p50 = rank(0.50);
  d.p99 = rank(0.99);
  return d;
}

AggregateReply aggregateStores(const std::vector<AggregateInput>& inputs) {
  AggregateReply reply;
  std::vector<double> comm, imbalance, late;
  reply.runs.reserve(inputs.size());
  for (const AggregateInput& input : inputs) {
    AggregateRun run;
    run.globalId = input.globalId;
    run.backend = input.backend;
    run.name = input.name;
    const MetricsStore& store = *input.store;
    run.commFraction = store.commFraction(0, store.bins());
    run.loadImbalance = store.loadImbalance(0, store.bins());
    run.lateSenderFraction = store.lateSenderFraction(0, store.bins());
    comm.push_back(run.commFraction);
    imbalance.push_back(run.loadImbalance);
    late.push_back(run.lateSenderFraction);
    reply.runs.push_back(std::move(run));
  }
  reply.commFraction = summarize(std::move(comm));
  reply.loadImbalance = summarize(std::move(imbalance));
  reply.lateSenderFraction = summarize(std::move(late));
  return reply;
}

namespace {

/// One run's series resampled onto `bins` equal slices of its own
/// [origin, end of last bin) — relative time, so two runs of different
/// length and epoch compare bin-for-bin. Source cells are split across
/// target bins proportionally to overlap (double arithmetic; comparison
/// is a diagnostic, not an exact-integer contract like .utm itself).
struct Rebinned {
  std::uint32_t bins = 0;
  std::uint32_t tasks = 0;
  std::vector<double> mpi;   ///< per target bin, summed over tasks
  std::vector<double> wall;  ///< per target bin, summed over tasks
  std::vector<double> busy;  ///< bin-major, bins × tasks

  double comm(std::uint32_t b) const { return fractionOf(mpi[b], wall[b]); }
  double imbalance(std::uint32_t b) const {
    double maxBusy = 0, total = 0;
    for (std::uint32_t k = 0; k < tasks; ++k) {
      const double v = busy[static_cast<std::size_t>(b) * tasks + k];
      maxBusy = std::max(maxBusy, v);
      total += v;
    }
    return imbalanceOf(maxBusy, total, tasks);
  }
};

Rebinned rebin(const MetricsStore& store, std::uint32_t bins) {
  Rebinned out;
  out.bins = bins;
  out.tasks = store.taskCount();
  out.mpi.assign(bins, 0.0);
  out.wall.assign(bins, 0.0);
  out.busy.assign(static_cast<std::size_t>(bins) * out.tasks, 0.0);
  if (store.bins() == 0) return out;
  const Tick origin = store.origin();
  const Tick runEnd = store.binEnd(store.bins() - 1);
  const double runSpan = static_cast<double>(runEnd - origin);
  if (runSpan <= 0) return out;
  const double targetWidth = runSpan / static_cast<double>(bins);
  for (std::uint32_t sb = 0; sb < store.bins(); ++sb) {
    const double s0 = static_cast<double>(store.binStart(sb) - origin);
    const double s1 = static_cast<double>(store.binEnd(sb) - origin);
    if (s1 <= s0) continue;
    double srcMpi = 0, srcWall = 0;
    for (std::uint32_t k = 0; k < out.tasks; ++k) {
      srcMpi += static_cast<double>(store.timeNs(StateClass::kMpi, sb, k));
      srcWall += static_cast<double>(store.wallNs(sb, k));
    }
    const auto firstTarget =
        static_cast<std::uint32_t>(std::min<double>(s0 / targetWidth,
                                                    bins - 1));
    for (std::uint32_t tb = firstTarget; tb < bins; ++tb) {
      const double t0 = static_cast<double>(tb) * targetWidth;
      const double t1 = (tb + 1 == bins) ? runSpan : t0 + targetWidth;
      const double overlap = std::min(s1, t1) - std::max(s0, t0);
      if (overlap <= 0) {
        if (t0 >= s1) break;
        continue;
      }
      const double frac = overlap / (s1 - s0);
      out.mpi[tb] += frac * srcMpi;
      out.wall[tb] += frac * srcWall;
      for (std::uint32_t k = 0; k < out.tasks; ++k) {
        out.busy[static_cast<std::size_t>(tb) * out.tasks + k] +=
            frac *
            static_cast<double>(store.timeNs(StateClass::kBusy, sb, k));
      }
    }
  }
  return out;
}

}  // namespace

CompareReply compareStores(const MetricsStore& a, const MetricsStore& b,
                           std::uint32_t bins) {
  CompareReply reply;
  reply.bins = bins;
  const Rebinned ra = rebin(a, bins);
  const Rebinned rb = rebin(b, bins);
  reply.commDelta.reserve(bins);
  reply.imbalanceDelta.reserve(bins);
  for (std::uint32_t t = 0; t < bins; ++t) {
    const double commDelta = rb.comm(t) - ra.comm(t);
    const double imbalanceDelta = rb.imbalance(t) - ra.imbalance(t);
    reply.commDelta.push_back(commDelta);
    reply.imbalanceDelta.push_back(imbalanceDelta);
    reply.maxAbsCommDelta =
        std::max(reply.maxAbsCommDelta, std::abs(commDelta));
    reply.maxAbsImbalanceDelta =
        std::max(reply.maxAbsImbalanceDelta, std::abs(imbalanceDelta));
  }
  return reply;
}

}  // namespace ute
