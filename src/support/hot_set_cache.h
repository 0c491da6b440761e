// Byte-budgeted hot-set cache of shared immutable values, admitted by
// frequency (W-TinyLFU: Einziger et al., "TinyLFU: A Highly Efficient
// Cache Admission Policy", ACM TOS 2017).
//
// Every hot-set tier in the tree — decoded SLOG frames in uteserve,
// proxied reply payloads in uterouter — is this one implementation: one
// mutex, one byte budget, one policy. Values are shared_ptr<const V>: an
// entry can be evicted while callers still hold (and keep using) it.
//
// Policy. The most recently loaded entry sits alone in a one-entry
// window; a main LRU holds the rest within the budget minus the window
// entry's bytes. When a new entry takes the window, the entry it
// displaces moves into main if it fits. Otherwise it may displace main's
// least recently used entries only if its estimated access frequency is
// strictly greater than each of theirs; if not, it is dropped. A one-pass
// scan over cold keys therefore cannot flush a hot set, and under skewed
// traffic the budget holds the most frequently used entries, not merely
// the most recent ones. The window keeps the newest load cached, so a
// shift to a new hot region is not refused before it builds frequency.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "support/thread_annotations.h"

namespace ute {

/// hits+misses counts lookups; evictions counts entries dropped to stay
/// within the byte budget, including candidates refused admission.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes = 0;
  std::uint64_t entries = 0;
};

/// Count-min sketch of recent access frequency: 4 rows of counters that
/// saturate at 15. The width is a power of two, at least 64 and at least
/// twice the most entries the cache has held, so the estimate of a cached
/// key is rarely inflated by collisions. Every 10 × width records all
/// counters halve, so the estimate follows the recent traffic. Not
/// thread-safe; the owning cache locks around it. Recording allocates
/// nothing.
class FrequencySketch {
 public:
  FrequencySketch() { rebuild(kMinWidth); }

  /// Widens the table to cover `entries` cached entries. A count-min row
  /// cannot be rehashed to a new width, so widening starts every count
  /// from zero; it happens only while the cache grows, O(log entries)
  /// times.
  void fit(std::size_t entries) {
    if (2 * entries <= width_) return;
    std::size_t width = width_;
    while (width < 2 * entries) width *= 2;
    rebuild(width);
  }

  void record(std::uint64_t key) {
    const std::uint64_t h = mix(key);
    for (std::size_t row = 0; row < kRows; ++row) {
      std::uint8_t& count = counters_[slot(h, row)];
      if (count < kMaxCount) ++count;
    }
    if (++records_ == kDecayPeriod * width_) {
      for (std::uint8_t& count : counters_) count >>= 1;
      records_ = 0;
    }
  }

  std::uint8_t estimate(std::uint64_t key) const {
    const std::uint64_t h = mix(key);
    std::uint8_t least = kMaxCount;
    for (std::size_t row = 0; row < kRows; ++row) {
      least = std::min(least, counters_[slot(h, row)]);
    }
    return least;
  }

  std::size_t width() const { return width_; }

 private:
  static constexpr std::size_t kRows = 4;
  static constexpr std::uint8_t kMaxCount = 15;
  static constexpr std::size_t kMinWidth = 64;
  static constexpr std::size_t kDecayPeriod = 10;

  /// splitmix64: keys are often sequential composites ((traceId << 32) |
  /// frameIdx), so neighboring keys differ only in low bits; mixing
  /// spreads them over every counter.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  /// Each row indexes with its own 16-bit slice of the hash (rotated, so
  /// widths past 2^16 still draw on every bit).
  std::size_t slot(std::uint64_t h, std::size_t row) const {
    return row * width_ +
           static_cast<std::size_t>(std::rotr(h, static_cast<int>(16 * row)) &
                                    (width_ - 1));
  }

  void rebuild(std::size_t width) {
    width_ = width;
    counters_.assign(kRows * width, 0);
    records_ = 0;
  }

  std::size_t width_ = 0;
  std::vector<std::uint8_t> counters_;
  std::size_t records_ = 0;
};

template <typename V>
class HotSetCache {
 public:
  using ValuePtr = std::shared_ptr<const V>;
  /// What a loader returns: the shared immutable handle plus its budget
  /// charge (the cache never guesses a value's size).
  struct Loaded {
    ValuePtr value;
    std::size_t bytes = 0;
  };
  using Stats = CacheStats;

  explicit HotSetCache(std::size_t byteBudget) : byteBudget_(byteBudget) {}

  /// Returns the cached value for `key`, or obtains it via `loader` on a
  /// miss. The loader returns the shared handle directly (no copy into
  /// the cache) and runs outside the lock, so a slow load never blocks
  /// hits; if two threads miss on the same key at once, both load and
  /// the first insert wins — every caller then holds the same single
  /// value. A hit allocates nothing.
  ValuePtr getOrLoad(std::uint64_t key,
                     const std::function<Loaded()>& loader) {
    {
      MutexLock lock(mu_);
      if (ValuePtr hit = probe(key)) return hit;
    }
    Loaded loaded = loader();
    MutexLock lock(mu_);
    return insertLoaded(key, std::move(loaded));
  }

  /// Hit-or-nullptr probe (counts toward hits/misses).
  ValuePtr lookup(std::uint64_t key) {
    MutexLock lock(mu_);
    return probe(key);
  }

  /// Inserts (or refreshes) an already-loaded value. Returns the cached
  /// handle — the existing one when another thread won an insert race.
  ValuePtr insert(std::uint64_t key, ValuePtr value, std::size_t bytes) {
    MutexLock lock(mu_);
    sketch_.record(key);
    return insertLoaded(key, Loaded{std::move(value), bytes});
  }

  Stats stats() const {
    MutexLock lock(mu_);
    Stats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    stats.bytes = mainBytes_ + windowBytes();
    stats.entries = byKey_.size();
    return stats;
  }

  /// Drops every entry; the hit/miss/eviction counters and the frequency
  /// sketch are kept.
  void clear() {
    MutexLock lock(mu_);
    window_.clear();
    main_.clear();
    byKey_.clear();
    mainBytes_ = 0;
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    ValuePtr value;
    std::size_t bytes = 0;
  };
  using EntryList = std::list<Entry>;

  /// Records the access and returns the cached value, or nullptr.
  ValuePtr probe(std::uint64_t key) UTE_REQUIRES(mu_) {
    sketch_.record(key);
    const auto it = byKey_.find(key);
    if (it == byKey_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    touch(it->second);
    return it->second->value;
  }

  /// A main entry moves to the front of the LRU; the window entry stays.
  void touch(typename EntryList::iterator entry) UTE_REQUIRES(mu_) {
    if (window_.empty() || &*entry != &window_.front()) {
      main_.splice(main_.begin(), main_, entry);
    }
  }

  ValuePtr insertLoaded(std::uint64_t key, Loaded loaded) UTE_REQUIRES(mu_) {
    const auto it = byKey_.find(key);
    if (it != byKey_.end()) {
      touch(it->second);
      return it->second->value;
    }
    // The new entry takes the window; the one it displaces becomes the
    // admission candidate. Splicing keeps byKey_'s iterators valid.
    EntryList candidate;
    candidate.splice(candidate.begin(), window_);
    window_.push_front(Entry{key, loaded.value, loaded.bytes});
    byKey_.emplace(key, window_.begin());
    // A larger window entry shrinks main's share of the budget.
    while (mainBytes_ > mainBudget()) evict(main_, std::prev(main_.end()));
    if (!candidate.empty()) admit(candidate);
    sketch_.fit(byKey_.size());
    return loaded.value;
  }

  void admit(EntryList& candidate) UTE_REQUIRES(mu_) {
    const Entry& entry = candidate.front();
    const std::size_t limit = mainBudget();
    if (entry.bytes > limit) {
      evict(candidate, candidate.begin());
      return;
    }
    // Walk main's LRU tail over the entries the candidate would displace;
    // any one at least as frequent refuses it.
    const std::uint8_t frequency = sketch_.estimate(entry.key);
    std::size_t displaced = 0;
    std::size_t freed = 0;
    for (auto victim = main_.end(); mainBytes_ - freed + entry.bytes > limit;
         ++displaced) {
      --victim;
      if (sketch_.estimate(victim->key) >= frequency) {
        evict(candidate, candidate.begin());
        return;
      }
      freed += victim->bytes;
    }
    for (; displaced > 0; --displaced) evict(main_, std::prev(main_.end()));
    mainBytes_ += entry.bytes;
    main_.splice(main_.begin(), candidate);
  }

  /// Drops one entry of `list` (main's tail, or a refused candidate that
  /// is no longer counted in mainBytes_).
  void evict(EntryList& list, typename EntryList::iterator entry)
      UTE_REQUIRES(mu_) {
    if (&list == &main_) mainBytes_ -= entry->bytes;
    byKey_.erase(entry->key);
    list.erase(entry);
    ++evictions_;
  }

  /// What main may hold: the budget minus the window entry. An oversized
  /// window entry leaves main nothing and survives alone.
  std::size_t mainBudget() const UTE_REQUIRES(mu_) {
    const std::size_t window = windowBytes();
    return byteBudget_ > window ? byteBudget_ - window : 0;
  }

  std::size_t windowBytes() const UTE_REQUIRES(mu_) {
    return window_.empty() ? 0 : window_.front().bytes;
  }

  const std::size_t byteBudget_;
  mutable Mutex mu_;
  /// At most one entry: the most recent load.
  EntryList window_ UTE_GUARDED_BY(mu_);
  /// Front is most recently used.
  EntryList main_ UTE_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, typename EntryList::iterator> byKey_
      UTE_GUARDED_BY(mu_);
  FrequencySketch sketch_ UTE_GUARDED_BY(mu_);
  std::size_t mainBytes_ UTE_GUARDED_BY(mu_) = 0;
  std::uint64_t hits_ UTE_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ UTE_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ UTE_GUARDED_BY(mu_) = 0;
};

}  // namespace ute
