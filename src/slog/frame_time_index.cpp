#include "slog/frame_time_index.h"

#include <algorithm>
#include <limits>

namespace ute {

void indexFrameTimes(SlogFrameData& frame) {
  const std::vector<SlogInterval>& intervals = frame.intervals;
  const std::size_t n = intervals.size();
  std::vector<Tick> floors((n + kStartFloorBlock - 1) / kStartFloorBlock);
  Tick floor = std::numeric_limits<Tick>::max();
  Tick nextEnd = std::numeric_limits<Tick>::max();
  std::size_t pseudoEnd = 0;  // one past the last pseudo-interval seen
  for (std::size_t i = n; i-- > 0;) {
    const SlogInterval& r = intervals[i];
    if (r.pseudo) {
      if (pseudoEnd == 0) pseudoEnd = i + 1;
    } else {
      // A real interval before a pseudo one, or a descending end.
      if (pseudoEnd != 0 || r.end() > nextEnd) return;
      nextEnd = r.end();
      floor = std::min(floor, r.start);
    }
    if (i % kStartFloorBlock == 0) floors[i / kStartFloorBlock] = floor;
  }
  frame.pseudoPrefix = static_cast<std::uint32_t>(pseudoEnd);
  frame.startFloors = std::move(floors);
}

IntervalReach intervalsReaching(const SlogFrameData& frame, Tick t0,
                                Tick t1) {
  const std::vector<SlogInterval>& intervals = frame.intervals;
  if (frame.startFloors.empty()) return {0, 0, intervals.size()};
  const auto real = intervals.begin() + frame.pseudoPrefix;
  const auto lo = std::partition_point(
      real, intervals.end(),
      [t0](const SlogInterval& r) { return r.end() < t0; });
  // Floors never decrease: each is a minimum over a shrinking suffix.
  const auto past = std::partition_point(
      frame.startFloors.begin(), frame.startFloors.end(),
      [t1](Tick floor) { return floor <= t1; });
  const std::size_t begin = static_cast<std::size_t>(lo - intervals.begin());
  const std::size_t end = std::min(
      intervals.size(),
      static_cast<std::size_t>(past - frame.startFloors.begin()) *
          kStartFloorBlock);
  return {frame.pseudoPrefix, begin, std::max(begin, end)};
}

}  // namespace ute
