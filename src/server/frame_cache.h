// Frequency-admitted cache of decoded SLOG frames.
//
// The trace-query service answers many overlapping window queries, and a
// hot time window maps to the same handful of frames every time; decoding
// a frame (seek + read + record parse) once and sharing the result across
// all clients is where the service's warm-path speedup comes from. The
// byte budget, W-TinyLFU admission and eviction are the generic
// HotSetCache (src/support/hot_set_cache.h) — the same implementation the
// federation router's reply tier uses; this class only adds the
// frame-specific budget accounting.
#pragma once

#include <cstdint>
#include <functional>

#include "slog/slog_format.h"
#include "support/hot_set_cache.h"

namespace ute {

class FrameCache {
 public:
  using FramePtr = SlogFramePtr;
  using Stats = CacheStats;

  explicit FrameCache(std::size_t byteBudget) : cache_(byteBudget) {}

  /// Returns the cached frame for `key`, or obtains it via `loader` on a
  /// miss. The loader returns the shared immutable handle directly (no
  /// copy into the cache) and runs outside the cache lock, so a slow disk
  /// read never blocks hits; if two threads miss on the same key at once,
  /// both load and the first insert wins — every caller then holds the
  /// same single frame buffer.
  FramePtr getOrLoad(std::uint64_t key,
                     const std::function<FramePtr()>& loader) {
    return cache_.getOrLoad(key, [&loader] {
      HotSetCache<SlogFrameData>::Loaded loaded;
      loaded.value = loader();
      loaded.bytes = frameBytes(*loaded.value);
      return loaded;
    });
  }

  /// Hit-or-nullptr probe (counts toward hits/misses).
  FramePtr lookup(std::uint64_t key) { return cache_.lookup(key); }

  Stats stats() const { return cache_.stats(); }
  void clear() { cache_.clear(); }

  /// Budget accounting charge for one decoded frame, its time index
  /// (slog/frame_time_index.h) included.
  static std::size_t frameBytes(const SlogFrameData& frame) {
    return sizeof(SlogFrameData) +
           frame.intervals.size() * sizeof(SlogInterval) +
           frame.arrows.size() * sizeof(SlogArrow) +
           frame.startFloors.size() * sizeof(Tick);
  }

 private:
  HotSetCache<SlogFrameData> cache_;
};

}  // namespace ute
