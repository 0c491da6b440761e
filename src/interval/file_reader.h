// Interval file reader: header, thread table, marker table, frame
// directory navigation, frame loading, record streaming, and time-based
// frame lookup (Sections 2.3.3 / 2.4).
//
// Sits on the zero-copy ByteSource layer: directory and frame reads are
// bounds-checked views into the file mapping (no per-frame heap copy on
// the mmap path; pooled buffers on the pread fallback). readFrame()
// returns a FrameBuf — an immutable shared handle that stays valid for
// as long as any holder keeps it, independent of the reader.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "interval/file_writer.h"
#include "interval/record.h"
#include "support/byte_source.h"

namespace ute {

struct IntervalFileHeader {
  std::uint32_t profileVersion = 0;
  std::uint32_t headerVersion = 0;
  std::uint32_t flags = 0;
  std::uint64_t fieldSelectionMask = 0;
  std::uint32_t threadCount = 0;
  std::uint64_t markerTableOffset = 0;
  std::uint32_t markerCount = 0;
  std::uint64_t firstDirOffset = 0;
  std::uint64_t totalRecords = 0;
  Tick minStart = 0;
  Tick maxEnd = 0;

  bool merged() const { return (flags & kIntervalFlagMerged) != 0; }
};

struct FrameInfo {
  std::uint64_t offset = 0;
  std::uint32_t sizeBytes = 0;
  std::uint32_t records = 0;
  Tick startTime = 0;
  Tick endTime = 0;
};

struct FrameDirectory {
  std::uint64_t offset = 0;
  std::uint64_t prevOffset = 0;
  std::uint64_t nextOffset = 0;  ///< 0 = last directory
  std::vector<FrameInfo> frames;
};

class IntervalFileReader {
 public:
  explicit IntervalFileReader(const std::string& path,
                              ByteSource::Mode mode = ByteSource::Mode::kAuto);

  const IntervalFileHeader& header() const { return header_; }
  const std::vector<ThreadEntry>& threads() const { return threads_; }
  /// Marker id -> marker string (Section 2.4's marker retrieval API).
  const std::map<std::uint32_t, std::string>& markers() const {
    return markers_;
  }

  /// Verifies a profile matches this file (the version-ID check the
  /// paper requires of every utility); throws FormatError on mismatch.
  void checkProfile(const Profile& profile) const;

  FrameDirectory readDirectory(std::uint64_t offset) const;
  FrameDirectory firstDirectory() const {
    return readDirectory(header_.firstDirOffset);
  }

  /// One frame (length-prefixed records back to back) as a shared
  /// immutable view — zero-copy on the mmap path. Thread-safe.
  FrameBuf readFrame(const FrameInfo& frame) const;

  /// The body of record `index` (0-based) inside the frame that starts
  /// at file offset `frameOffset` — the paper's "retrieve an interval at
  /// a specific location" (Section 2.4). Throws UsageError when the
  /// offset names no frame or the index is out of range.
  std::vector<std::uint8_t> recordAt(std::uint64_t frameOffset,
                                     std::uint32_t index) const;

  /// Walks the directory chain to find a frame whose [start, end] time
  /// range contains `t`. Directory-entry granularity only — no frame
  /// content is read (the fast access path the format exists for).
  std::optional<FrameInfo> frameContaining(Tick t) const;

  /// Total elapsed time / record count aggregated from directory entries
  /// (also available precomputed in the header trailer).
  Tick totalElapsed() const;
  std::uint64_t countRecordsViaDirectories() const;

  /// Streams every record in file order, hiding frame and directory
  /// boundaries (the paper's getInterval()). The RecordView's bytes stay
  /// valid until the next call.
  class RecordStream {
   public:
    RecordStream(const IntervalFileReader& reader);
    /// False at end of file.
    bool next(RecordView& out);

   private:
    bool loadNextFrame();

    const IntervalFileReader& reader_;
    FrameDirectory dir_;
    std::size_t frameIdx_ = 0;
    FrameBuf frame_;
    std::size_t pos_ = 0;
    bool exhausted_ = false;
  };

  RecordStream records() const { return RecordStream(*this); }

  const std::string& path() const { return source_.path(); }
  const ByteSource& source() const { return source_; }

 private:
  ByteSource source_;
  IntervalFileHeader header_;
  std::vector<ThreadEntry> threads_;
  std::map<std::uint32_t, std::string> markers_;
};

}  // namespace ute
