// SLOG reader: loads the header, state table, thread table, time-keyed
// frame index, and preview; reads individual frames on demand. The
// viewer's scalability property — locating and loading the frame for any
// chosen time without touching the rest of the file — lives in
// frameIndexFor()/framesOverlapping() (binary searches of the frame
// index) + readFrame().
//
// The reader sits on the zero-copy ByteSource layer: on the mmap path a
// frame read decodes straight out of the mapping with no intermediate
// byte copy, and on the stdio fallback the raw bytes come from a pooled
// buffer. All metadata (index, tables, preview) is immutable after
// construction, and every frame offset/size from the index is validated
// against the actual file size up front (a corrupt or truncated file
// throws CorruptFileError instead of decoding garbage).
//
// readFrame() is const and thread-safe — ByteSource needs no per-thread
// file handles — and returns a SlogFramePtr, the shared immutable frame
// handle every consumer (server cache, metrics, viewers) holds without
// copying. N threads can pull frames from one shared reader concurrently;
// this is the read path the trace-query service builds on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "slog/slog_format.h"
#include "support/byte_source.h"

namespace ute {

class SlogReader {
 public:
  explicit SlogReader(const std::string& path,
                      ByteSource::Mode mode = ByteSource::Mode::kAuto);

  Tick totalStart() const { return totalStart_; }
  Tick totalEnd() const { return totalEnd_; }
  /// SLOG format version of the open file (1 = row frames, 2 = columnar).
  std::uint32_t formatVersion() const { return formatVersion_; }
  const std::vector<SlogStateDef>& states() const { return states_; }
  const std::vector<ThreadEntry>& threads() const { return threads_; }
  const std::vector<SlogFrameIndexEntry>& frameIndex() const { return index_; }
  const SlogPreview& preview() const { return preview_; }

  /// Name of a state id (from the state table), or a placeholder.
  std::string stateName(std::uint32_t stateId) const;

  /// Binary search of the frame index: the frame whose time range
  /// contains `t`, or nullopt outside the run.
  std::optional<std::size_t> frameIndexFor(Tick t) const;

  /// The frames [first, last] overlapping the half-open window [t0, t1),
  /// or nullopt when none does: every frame with timeEnd > t0 and
  /// timeStart < t1. Two binary searches of the frame index, so the cost
  /// does not grow with the file. A frame that merely touches a window
  /// edge is not selected: states spanning in are restated by the first
  /// selected frame's pseudo-intervals.
  std::optional<std::pair<std::size_t, std::size_t>> framesOverlapping(
      Tick t0, Tick t1) const;

  /// Decodes one frame into a shared immutable handle, with no time
  /// index (slog/frame_time_index.h). Thread-safe.
  SlogFramePtr readFrame(std::size_t frameIdx) const;
  /// Decodes one frame into `out`, replacing its contents, for a caller
  /// that adds to the frame before sharing it (the query service indexes
  /// it). Thread-safe for distinct `out`s.
  void readFrameInto(std::size_t frameIdx, SlogFrameData& out) const;

  const std::string& path() const { return source_.path(); }
  const ByteSource& source() const { return source_; }

 private:
  ByteSource source_;
  std::uint32_t formatVersion_ = kSlogVersion;
  Tick totalStart_ = 0;
  Tick totalEnd_ = 0;
  std::vector<SlogStateDef> states_;
  std::vector<ThreadEntry> threads_;
  std::vector<SlogFrameIndexEntry> index_;
  SlogPreview preview_;
};

}  // namespace ute
