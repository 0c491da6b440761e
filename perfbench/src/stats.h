// Order statistics for the benchmark's reports. Every percentile travels
// with its sample count and the number of samples that lie beyond it, so
// a reader can tell a well-supported tail from one read off a handful of
// points.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least q of the samples at or below it. q in (0, 1].
inline double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Samples strictly past the nearest-rank q-th percentile's position:
/// n - ceil(q * n). The reporting rule is that a tail percentile needs at
/// least 100 of them.
inline std::size_t samplesBeyond(std::size_t n, double q) {
  const auto atOrBelow =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > atOrBelow ? n - atOrBelow : 0;
}

/// The median as Python's statistics.median computes it (mean of the two
/// middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  std::size_t beyondP99 = 0;
};

inline Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.p50 = percentile(samples, 0.50);
  s.p99 = percentile(samples, 0.99);
  s.beyondP99 = samplesBeyond(s.n, 0.99);
  return s;
}

}  // namespace perfbench
