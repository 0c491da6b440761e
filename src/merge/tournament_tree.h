// Tournament (winner) tree k-way selection.
//
// The merge utility holds one tree node per input interval file, each
// pointing at that file's next record, sorted by end time (Section 3.1).
// Every interior node stores the index of its subtree's smallest key, so
// changing any one leaf's key replays just that leaf's path to the root:
// O(log k) comparisons per update instead of the naive O(k) scan. The
// naive scan is kept as a selection mode over the same key array, as the
// reference bench_ablation_merge measures the tree against.
#pragma once

#include <cstddef>
#include <vector>

#include "support/errors.h"

namespace ute {

/// Key must be strict-weak-ordered by operator< and cheap to copy; equal
/// keys go to the lower stream index. Exhausted streams are represented by a
/// caller-supplied sentinel key that compares greater than every live key.
template <typename Key>
class TournamentTree {
 public:
  /// `naive` selects the O(k) linear scan instead of the tree replay.
  TournamentTree(std::vector<Key> keys, Key sentinel, bool naive = false)
      : k_(keys.size()), naive_(naive), sentinel_(std::move(sentinel)),
        keys_(std::move(keys)) {
    if (k_ == 0) throw UsageError("TournamentTree needs at least one stream");
    while (m_ < k_) m_ <<= 1;
    keys_.resize(m_, sentinel_);
    // Leaves sit at [m_, 2m_) and name themselves; node 1 is the root.
    // The left child holds the lower indices, so it takes ties.
    tree_.resize(2 * m_);
    for (std::size_t i = 0; i < m_; ++i) tree_[m_ + i] = i;
    for (std::size_t node = m_ - 1; node >= 1; --node) {
      const std::size_t left = tree_[2 * node];
      const std::size_t right = tree_[2 * node + 1];
      tree_[node] = keys_[right] < keys_[left] ? right : left;
    }
    if (naive_) scan();
  }

  /// Index of the stream holding the smallest key.
  std::size_t min() const { return tree_[1]; }

  /// True when every stream shows the sentinel.
  bool exhausted() const { return !(keys_[min()] < sentinel_); }

  /// Replaces stream `i`'s key — any stream, not only the winner — and
  /// reselects the minimum.
  void update(std::size_t i, Key key) {
    keys_[i] = std::move(key);
    if (naive_) {
      scan();
      return;
    }
    // Climb from the leaf, playing the running winner against each
    // sibling subtree's stored winner; the left side takes ties. The
    // winner's key rides along by value and every choice is a select,
    // not a branch: which side the path climbs from, and who wins, are
    // as unpredictable as the keys.
    std::size_t winner = i;
    Key best = keys_[i];
    for (std::size_t node = m_ + i; node > 1; node /= 2) {
      const std::size_t sibling = tree_[node ^ 1];
      const Key other = keys_[sibling];
      const bool fromRight = (node & 1) != 0;
      const Key left = fromRight ? other : best;
      const Key right = fromRight ? best : other;
      const bool rightWins = right < left;
      const std::size_t leftIndex = fromRight ? sibling : winner;
      const std::size_t rightIndex = fromRight ? winner : sibling;
      winner = rightWins ? rightIndex : leftIndex;
      best = rightWins ? right : left;
      tree_[node / 2] = winner;
    }
  }

 private:
  void scan() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < k_; ++i) {
      if (keys_[i] < keys_[best]) best = i;
    }
    tree_[1] = best;
  }

  std::size_t k_;
  bool naive_;
  std::size_t m_ = 1;
  Key sentinel_;
  std::vector<Key> keys_;           ///< m_ leaves; padding shows the sentinel
  std::vector<std::size_t> tree_;   ///< winner index per node, leaves included
};

}  // namespace ute
