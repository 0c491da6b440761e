// Tests of the benchmark's own helpers: percentiles and their sample
// counts, seed-determinism of the Zipf and schedule generators, and span
// self time.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "gen.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> oneTo(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = oneTo(100);
  EXPECT_EQ(percentile(v, 0.50), 50);
  EXPECT_EQ(percentile(v, 0.99), 99);
  EXPECT_EQ(percentile(v, 1.0), 100);
  EXPECT_EQ(percentile({7.0}, 0.99), 7);
  EXPECT_EQ(percentile({}, 0.5), 0);
}

TEST(Percentile, SamplesBeyond) {
  // The reporting rule: a p99 needs >= 100 samples past it, so >= 10000.
  EXPECT_EQ(samplesBeyond(10000, 0.99), 100u);
  EXPECT_EQ(samplesBeyond(9999, 0.99), 99u);
  EXPECT_EQ(samplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(samplesBeyond(5, 0.99), 0u);
  EXPECT_EQ(samplesBeyond(0, 0.99), 0u);
}

TEST(Percentile, SummaryCarriesCounts) {
  std::vector<double> v = oneTo(20000);
  std::reverse(v.begin(), v.end());  // summarize sorts its copy
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 20000u);
  EXPECT_EQ(s.p50, 10000);
  EXPECT_EQ(s.p99, 19800);
  EXPECT_EQ(s.beyondP99, 200u);
}

TEST(Median, MatchesPythonStatistics) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(Generators, ZipfIsSeedDeterministic) {
  const Zipf zipf(64, 1.1);
  Rng a(42), b(42), c(43);
  std::vector<std::size_t> ra, rb, rc;
  for (int i = 0; i < 1000; ++i) {
    ra.push_back(zipf.sample(a));
    rb.push_back(zipf.sample(b));
    rc.push_back(zipf.sample(c));
  }
  EXPECT_EQ(ra, rb);
  EXPECT_NE(ra, rc);
  for (const std::size_t r : ra) EXPECT_LT(r, 64u);
}

TEST(Generators, ZipfFavoursLowRanks) {
  const Zipf zipf(64, 1.1);
  Rng rng(7);
  std::vector<int> hits(64, 0);
  for (int i = 0; i < 20000; ++i) ++hits[zipf.sample(rng)];
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], hits[8]);
  EXPECT_GT(hits[8], hits[63]);
}

TEST(Generators, ScheduleIsSeedDeterministic) {
  Rng a(5), b(5), c(6);
  const std::vector<double> sa = fixedRateSchedule(a, 1000, 2.0);
  const std::vector<double> sb = fixedRateSchedule(b, 1000, 2.0);
  const std::vector<double> sc = fixedRateSchedule(c, 1000, 2.0);
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
  ASSERT_EQ(sa.size(), 2000u);
  EXPECT_LT(sa.front(), 1e-3);
  EXPECT_LT(sa.back(), 2.0);
  for (std::size_t i = 1; i < sa.size(); ++i) {
    EXPECT_NEAR(sa[i] - sa[i - 1], 1e-3, 1e-9);
  }
}

TEST(Generators, ForkedStreamsDiffer) {
  Rng x = Rng(9).fork(1);
  Rng y = Rng(9).fork(2);
  EXPECT_NE(x.next(), y.next());
  Rng x2 = Rng(9).fork(1);
  Rng x3 = Rng(9).fork(1);
  EXPECT_EQ(x2.next(), x3.next());
}

SpanRecord span(std::int64_t start, std::int64_t end) {
  SpanRecord s;
  s.startNs = start;
  s.endNs = end;
  return s;
}

TEST(SelfTime, NoChildrenIsDuration) {
  EXPECT_EQ(selfTimeNs(span(100, 300), {}), 200);
}

TEST(SelfTime, DisjointChildrenSubtract) {
  EXPECT_EQ(selfTimeNs(span(0, 100), {span(10, 20), span(50, 80)}), 60);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children fanned out over threads overlap; their union is [10, 60).
  EXPECT_EQ(selfTimeNs(span(0, 100),
                       {span(30, 60), span(10, 40), span(20, 50)}),
            50);
}

TEST(SelfTime, ChildrenClippedToParent) {
  EXPECT_EQ(selfTimeNs(span(100, 200), {span(50, 120), span(180, 260)}), 60);
  EXPECT_EQ(selfTimeNs(span(100, 200), {span(0, 50)}), 100);
}

TEST(SelfTime, AggregatedChildTimeSubtracts) {
  SpanRecord merge = span(0, 1000);
  merge.aggregatedChildNs = 300;  // e.g. time inside the SLOG sink
  EXPECT_EQ(selfTimeNs(merge, {span(900, 1000)}), 600);
}

TEST(Tracer, RecordsParentsAndStaysOffWhenDisabled) {
  Tracer& t = Tracer::instance();
  t.enable(false);
  { Span off("off.span"); EXPECT_EQ(off.id(), 0u); }
  t.enable(true);
  std::uint32_t outer = 0;
  {
    Span a("outer.span");
    outer = a.id();
    Span b("inner.span");
  }
  t.enable(false);
  const std::vector<SpanRecord> inner = t.named("inner.span");
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(inner[0].parent, outer);
  EXPECT_TRUE(t.named("off.span").empty());
  const std::vector<SpanRecord> outerSpans = t.named("outer.span");
  ASSERT_EQ(outerSpans.size(), 1u);
  EXPECT_GE(selfTimeNs(outerSpans[0], t.childrenOf(outer)), 0);
}

}  // namespace
}  // namespace perfbench
