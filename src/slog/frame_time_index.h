// Per-frame time index: which intervals of a decoded frame a window can
// reach, so a query reads those and not the whole frame.
//
// SlogWriter seals a frame's records in merge order: the pseudo-intervals
// restating open states come first, then the real intervals in ascending
// end() order. For such a frame, the real intervals that can overlap
// [t0, t1] sit between a binary-searched lower bound (the first with
// end() >= t0) and the first 64-interval block from which on every start
// exceeds t1. A frame in any other layout keeps no index and a query
// reads all of it, so the index only narrows what a caller tests; the
// caller's own predicate still decides every record.
#pragma once

#include <cstddef>

#include "slog/slog_format.h"

namespace ute {

/// Intervals per startFloors entry.
inline constexpr std::size_t kStartFloorBlock = 64;

/// Fills `frame.pseudoPrefix` and `frame.startFloors` in one backward pass
/// that also checks the layout: pseudo-intervals only in a prefix and
/// real ends non-decreasing after it. A frame that fails the check is
/// left without an index.
void indexFrameTimes(SlogFrameData& frame);

/// The intervals a query over [t0, t1] must test, in record order: the
/// pseudo-intervals [0, pseudoEnd), then the real intervals [begin, end).
/// Every real interval outside [begin, end) has end() < t0 or start > t1.
/// Without an index: pseudoEnd = begin = 0 and end = intervals.size().
struct IntervalReach {
  std::size_t pseudoEnd = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};
IntervalReach intervalsReaching(const SlogFrameData& frame, Tick t0, Tick t1);

}  // namespace ute
