// Interval file writer: header, thread table, and interval records
// partitioned into frames grouped under doubly-linked frame directories
// (Section 2.3.3, Figure 4).
//
// Records must be appended in ascending end-time order (the invariant the
// merge utility and all readers rely on). Frames close when they reach a
// target byte size, under the frame rule of interval/open_states.h; a
// directory is flushed to disk when it holds its full complement of
// frames, and its "next directory" link is back-patched when the
// following directory's position becomes known. The marker string table
// (marker id -> string, Section 2.4) is written as a trailer whose offset
// the header carries.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "interval/open_states.h"
#include "interval/profile.h"
#include "interval/record.h"
#include "support/bytes.h"
#include "support/file_io.h"
#include "support/types.h"
#include "trace/events.h"

namespace ute {

/// One entry of the thread table (Section 2.3.3): MPI task ID, process
/// ID, system thread ID, node ID, logical thread ID, and thread type.
inline constexpr std::size_t kThreadEntryBytes = 21;

struct ThreadEntry {
  TaskId task = -1;
  std::int32_t pid = 0;
  std::int32_t systemTid = 0;
  NodeId node = 0;
  LogicalThreadId ltid = 0;
  ThreadType type = ThreadType::kUser;
};

/// The 21-byte thread-table entry: task, pid, system tid, node and
/// logical tid as i32, then the type as u8. The one writer and reader of
/// this layout, for .uti and .slog thread tables and both wire
/// protocols. takeThreadEntry throws FormatError on a type byte that
/// names no ThreadType.
void putThreadEntry(ByteWriter& w, const ThreadEntry& t);
ThreadEntry takeThreadEntry(ByteReader& r);

/// One marker table entry: u32 marker id, then the string as an
/// lstring. Shared by the .uti marker trailer and the ingest protocol.
void putMarker(ByteWriter& w, std::uint32_t id, std::string_view name);
std::pair<std::uint32_t, std::string> takeMarker(ByteReader& r);

struct IntervalFileOptions {
  std::uint32_t profileVersion = 0;
  std::uint64_t fieldSelectionMask = 1;
  bool merged = false;
  std::size_t targetFrameBytes = 32 << 10;
  int framesPerDirectory = 64;
};

class IntervalFileWriter {
 public:
  /// With `restate` (the records' profile), the writer tracks open
  /// states and restates them at every frame start (Section 3.3); the
  /// records must then be merged-file bodies.
  IntervalFileWriter(const std::string& path,
                     const IntervalFileOptions& options,
                     std::vector<ThreadEntry> threads,
                     const Profile* restate = nullptr);

  /// Registers one marker string/identifier pair; duplicates by id are
  /// ignored, conflicting strings for one id throw.
  void addMarker(std::uint32_t id, const std::string& name);

  /// Appends one record body (as produced by encodeRecordBody). Bodies
  /// must arrive in ascending end-time order.
  void addRecord(std::span<const std::uint8_t> body);
  /// The same, for a body already parsed: `record.body` is written and
  /// its common fields are taken as parsed, not read again.
  void addRecord(const RecordView& record);

  /// Finalizes frames and directories, writes the marker table, patches
  /// the header, and closes the file.
  void close();

  std::uint64_t pseudoRecordsWritten() const { return pseudoRecords_; }
  /// The open states as of the last record; requires `restate`.
  const OpenStates& openStates() const { return openStates_.value(); }
  const std::string& path() const { return path_; }

 private:
  struct PendingFrame {
    std::vector<std::uint8_t> bytes;
    std::uint32_t records = 0;
    std::uint32_t pseudo = 0;
    Tick minStart = ~Tick{0};
    Tick maxEnd = 0;
  };

  void appendToFrame(const RecordView& view);
  void finalizeFrame();
  void flushDirectory();

  std::string path_;
  IntervalFileOptions options_;
  FileWriter file_;
  std::optional<OpenStates> openStates_;
  std::map<std::uint32_t, std::string> markers_;

  PendingFrame current_;
  std::vector<PendingFrame> pendingFrames_;
  std::uint64_t prevDirOffset_ = 0;  ///< 0 = none yet
  std::uint64_t totalRecords_ = 0;
  std::uint64_t pseudoRecords_ = 0;
  Tick lastEnd_ = 0;
  Tick minStart_ = ~Tick{0};
  bool closed_ = false;
};

// Shared layout constants (used by the reader).
inline constexpr std::uint32_t kIntervalMagic = 0x49455455;  // "UTEI"
inline constexpr std::uint32_t kIntervalHeaderVersion = 1;
inline constexpr std::size_t kIntervalHeaderBytes = 72;
inline constexpr std::size_t kDirHeaderBytes = 24;
inline constexpr std::size_t kFrameEntryBytes = 32;
inline constexpr std::uint32_t kIntervalFlagMerged = 0x1;

}  // namespace ute
