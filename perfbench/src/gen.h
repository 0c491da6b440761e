// The load generator's random sources. Everything derives from the
// run's --seed, so one seed always produces the same query mix and the
// same arrival schedule; the program under test only ever sees the
// generated inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// SplitMix64: tiny, fast, and fully determined by its seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

  /// A child stream: independent of the parent's later draws.
  Rng fork(std::uint64_t salt) { return Rng(next() ^ (salt * 0xD1B54A32D192ED03ull)); }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1 (rank 0 most popular), by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t sample(Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Open-loop send times at a fixed rate, as offsets in seconds from the
/// phase start covering [0, seconds): one every 1/rate, from a random
/// phase in the first interval. Evenly spaced sends keep the generator's
/// own bursts out of the latencies; the phase keeps several generators
/// from sending in lockstep.
inline std::vector<double> fixedRateSchedule(Rng& rng, double ratePerSec,
                                             double seconds) {
  std::vector<double> due;
  const double gap = 1.0 / ratePerSec;
  const double phase = rng.uniform() * gap;
  for (std::size_t i = 0; phase + static_cast<double>(i) * gap < seconds;
       ++i) {
    due.push_back(phase + static_cast<double>(i) * gap);
  }
  return due;
}

}  // namespace perfbench
