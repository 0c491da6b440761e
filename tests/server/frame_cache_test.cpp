// FrameCache unit tests: frequency admission, byte budgeting, and the
// hit/miss/eviction counters the service's stats op reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "server/frame_cache.h"

namespace ute {
namespace {

/// A frame with `n` intervals — its cache charge is deterministic.
FrameCache::FramePtr frameOf(std::size_t n) {
  auto data = std::make_shared<SlogFrameData>();
  data->intervals.resize(n);
  return data;
}

const std::size_t kUnit = FrameCache::frameBytes(*frameOf(10));

/// getOrLoad wrapper that counts how often the loader actually ran —
/// the observable difference between a hit and a (re)load.
struct CountingLoader {
  FrameCache& cache;
  int loads = 0;
  FrameCache::FramePtr get(std::uint64_t key, std::size_t n = 10) {
    return cache.getOrLoad(key, [&] {
      ++loads;
      return frameOf(n);
    });
  }
};

TEST(FrameCache, HitsShareOneDecode) {
  FrameCache cache(1 << 20);
  CountingLoader loader{cache};
  const auto a = loader.get(1);
  const auto b = loader.get(1);
  EXPECT_EQ(loader.loads, 1);
  EXPECT_EQ(a.get(), b.get());  // same decoded frame shared
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(FrameCache, ZipfHotSetBeatsRecency) {
  // Zipf(1.1) over 64 equal keys with room for 9: a recency-only LRU
  // replays this stream at a 0.50 hit ratio, this cache at 0.62.
  constexpr int kKeys = 64;
  std::vector<double> cdf(kKeys);
  double total = 0;
  for (int k = 0; k < kKeys; ++k) {
    total += 1.0 / std::pow(k + 1, 1.1);
    cdf[k] = total;
  }
  FrameCache cache(9 * kUnit);
  CountingLoader loader{cache};
  std::mt19937_64 rng(42);
  constexpr int kRequests = 20000;
  for (int i = 0; i < kRequests; ++i) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53 * total;
    const auto key = static_cast<std::uint64_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    loader.get(std::min<std::uint64_t>(key, kKeys - 1));
  }
  const auto stats = cache.stats();
  const double hitRatio = static_cast<double>(stats.hits) / kRequests;
  EXPECT_GE(hitRatio, 0.6) << stats.hits << " hits / " << stats.misses
                           << " misses";
  EXPECT_LE(stats.bytes, 9 * kUnit);
}

TEST(FrameCache, ColdScanKeepsHotSet) {
  FrameCache cache(6 * kUnit);
  CountingLoader loader{cache};
  for (int round = 0; round < 20; ++round) {
    for (std::uint64_t key = 1; key <= 4; ++key) loader.get(key);
  }
  for (std::uint64_t key = 100; key < 200; ++key) loader.get(key);
  const int loads = loader.loads;
  for (std::uint64_t key = 1; key <= 4; ++key) loader.get(key);
  EXPECT_EQ(loader.loads, loads) << "a one-pass scan flushed the hot set";
}

TEST(FrameCache, RefusedCandidateCountsAsEviction) {
  // Room for the window entry plus one main entry.
  FrameCache cache(2 * kUnit);
  CountingLoader loader{cache};
  for (int i = 0; i < 5; ++i) loader.get(1);  // hot
  loader.get(2);  // 1 moves into main, which has room
  EXPECT_EQ(cache.stats().evictions, 0u);
  loader.get(3);  // candidate 2 (seen once) cannot displace hot 1
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  const int loads = loader.loads;
  loader.get(1);
  loader.get(3);  // the newest load sits in the window
  EXPECT_EQ(loader.loads, loads);
  loader.get(2);
  EXPECT_EQ(loader.loads, loads + 1) << "the refused candidate was dropped";
}

TEST(FrameCache, ByteBudgetHolds) {
  const std::size_t budget = 8 * kUnit;
  FrameCache cache(budget);
  CountingLoader loader{cache};
  for (std::uint64_t key = 0; key < 100; ++key) loader.get(key);
  const auto stats = cache.stats();
  EXPECT_LE(stats.bytes, budget);
  EXPECT_GE(stats.evictions, 100u - stats.entries);
  EXPECT_GT(stats.entries, 0u);
}

TEST(FrameCache, OversizedEntrySurvivesAlone) {
  FrameCache cache(kUnit);
  CountingLoader loader{cache};
  loader.get(1, 10000);  // far over budget
  EXPECT_EQ(cache.stats().entries, 1u);
  loader.get(1, 10000);
  EXPECT_EQ(loader.loads, 1) << "oversized frame must not thrash";
}

TEST(FrameCache, LookupProbesWithoutLoading) {
  FrameCache cache(1 << 20);
  EXPECT_EQ(cache.lookup(7), nullptr);
  CountingLoader loader{cache};
  loader.get(7);
  EXPECT_NE(cache.lookup(7), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);  // failed probe + initial load
}

TEST(FrameCache, ClearDropsEntriesKeepsCounters) {
  FrameCache cache(1 << 20);
  CountingLoader loader{cache};
  loader.get(1);
  loader.get(2);
  cache.clear();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.misses, 2u);
  loader.get(1);
  EXPECT_EQ(loader.loads, 3);
}

TEST(FrequencySketch, SaturatesHalvesAndWidens) {
  FrequencySketch sketch;
  EXPECT_EQ(sketch.width(), 64u);
  for (int i = 0; i < 40; ++i) sketch.record(7);
  EXPECT_EQ(sketch.estimate(7), 15u);
  EXPECT_EQ(sketch.estimate(8), 0u);
  // Every 10 x width records, each counter halves.
  for (std::size_t i = 40; i < 10 * sketch.width(); ++i) {
    sketch.record(1000 + i);
  }
  EXPECT_EQ(sketch.estimate(7), 7u);
  sketch.fit(32);
  EXPECT_EQ(sketch.width(), 64u);
  sketch.fit(33);
  EXPECT_EQ(sketch.width(), 128u);
  EXPECT_EQ(sketch.estimate(7), 0u) << "a widened sketch starts from zero";
}

TEST(FrameCache, EvictedFramesStayValidForHolders) {
  FrameCache cache(kUnit);
  CountingLoader loader{cache};
  const auto held = loader.get(1);
  loader.get(2);  // evicts key 1
  EXPECT_EQ(held->intervals.size(), 10u);  // shared_ptr keeps it alive
}

}  // namespace
}  // namespace ute
