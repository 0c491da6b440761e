#include "merge/tournament_tree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/rng.h"

namespace ute {
namespace {

// The suites keep the names they had when the selection was a loser
// tree, so their test ids stay stable across the switch.

TEST(LoserTree, MergesSortedStreams) {
  // Three sorted streams merged through the tree reproduce a full sort.
  std::vector<std::vector<int>> streams = {
      {1, 4, 7, 10}, {2, 5, 8}, {3, 6, 9, 11, 12}};
  std::vector<std::size_t> cursor(streams.size(), 0);
  const int sentinel = 1 << 30;
  std::vector<int> keys;
  for (const auto& s : streams) keys.push_back(s[0]);
  TournamentTree<int> tree(keys, sentinel);

  std::vector<int> merged;
  while (!tree.exhausted()) {
    const std::size_t i = tree.min();
    merged.push_back(streams[i][cursor[i]]);
    ++cursor[i];
    tree.update(i, cursor[i] < streams[i].size() ? streams[i][cursor[i]]
                                                 : sentinel);
  }
  const std::vector<int> expected = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_EQ(merged, expected);
}

TEST(LoserTree, SingleStream) {
  TournamentTree<int> tree({5}, 100);
  EXPECT_EQ(tree.min(), 0u);
  EXPECT_FALSE(tree.exhausted());
  tree.update(0, 100);
  EXPECT_TRUE(tree.exhausted());
}

TEST(LoserTree, NonPowerOfTwoStreamCounts) {
  for (std::size_t k : {2u, 3u, 5u, 7u, 9u, 17u}) {
    std::vector<int> keys;
    for (std::size_t i = 0; i < k; ++i) {
      keys.push_back(static_cast<int>(k - i));  // descending initial keys
    }
    TournamentTree<int> tree(keys, 1 << 30);
    EXPECT_EQ(tree.min(), k - 1) << "k=" << k;  // smallest key is 1
  }
}

TEST(LoserTree, EmptyRejected) {
  EXPECT_THROW(TournamentTree<int>({}, 0), UsageError);
}

TEST(LoserTree, UpdatesOnAnyLeafTrackMinElement) {
  // Arbitrary leaves move (new records land on any input), not only the
  // winner; after every update the root must name the first smallest key
  // in both selection modes.
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const std::size_t k = 1 + rng.below(40);
    const int sentinel = 1 << 30;
    std::vector<int> keys(k);
    for (int& key : keys) key = static_cast<int>(rng.below(20));
    TournamentTree<int> tree(keys, sentinel);
    TournamentTree<int> naive(keys, sentinel, /*naive=*/true);
    for (int step = 0; step < 200; ++step) {
      const std::size_t i = rng.below(k);
      keys[i] = rng.below(8) == 0 ? sentinel : static_cast<int>(rng.below(20));
      tree.update(i, keys[i]);
      naive.update(i, keys[i]);
      const auto expected = static_cast<std::size_t>(
          std::min_element(keys.begin(), keys.end()) - keys.begin());
      ASSERT_EQ(tree.min(), expected) << "k=" << k << " step=" << step;
      ASSERT_EQ(naive.min(), expected) << "k=" << k << " step=" << step;
      ASSERT_EQ(tree.exhausted(), keys[expected] == sentinel);
    }
  }
}

/// An int key that counts the comparisons made on it.
struct CountedKey {
  int value = 0;
  static inline int comparisons = 0;
  bool operator<(const CountedKey& other) const {
    ++comparisons;
    return value < other.value;
  }
};

TEST(LoserTree, UpdateCostsLogTwoComparisons) {
  // One update replays one leaf-to-root path: log2(m) comparisons, m
  // being k rounded up to a power of two, whichever leaf moves.
  for (std::size_t k : {1u, 2u, 3u, 5u, 8u, 9u, 64u, 100u, 1024u}) {
    std::vector<CountedKey> keys;
    for (std::size_t i = 0; i < k; ++i) {
      keys.push_back({static_cast<int>(i)});
    }
    TournamentTree<CountedKey> tree(keys, {1 << 30});
    int levels = 0;
    for (std::size_t m = 1; m < k; m <<= 1) ++levels;
    for (std::size_t i : {std::size_t{0}, k / 2, k - 1}) {
      CountedKey::comparisons = 0;
      tree.update(i, {static_cast<int>(k + i)});
      EXPECT_EQ(CountedKey::comparisons, levels) << "k=" << k << " i=" << i;
    }
  }
}

class LoserTreeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LoserTreeFuzzTest, MatchesStdSortOnRandomStreams) {
  Rng rng(GetParam());
  const std::size_t k = 1 + rng.below(12);
  std::vector<std::vector<std::uint64_t>> streams(k);
  std::vector<std::uint64_t> all;
  for (auto& s : streams) {
    std::uint64_t v = 0;
    const std::size_t n = rng.below(200);
    for (std::size_t i = 0; i < n; ++i) {
      v += rng.below(1000);
      s.push_back(v);
      all.push_back(v);
    }
  }
  const std::uint64_t sentinel = ~std::uint64_t{0};
  std::vector<std::uint64_t> keys;
  std::vector<std::size_t> cursor(k, 0);
  for (const auto& s : streams) keys.push_back(s.empty() ? sentinel : s[0]);
  TournamentTree<std::uint64_t> tree(keys, sentinel);

  std::vector<std::uint64_t> merged;
  while (!tree.exhausted()) {
    const std::size_t i = tree.min();
    merged.push_back(streams[i][cursor[i]]);
    ++cursor[i];
    tree.update(i, cursor[i] < streams[i].size() ? streams[i][cursor[i]]
                                                 : sentinel);
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(merged, all);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoserTreeFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace ute
