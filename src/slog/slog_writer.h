// SLOG writer: converts a stream of merged interval records into the
// frame-indexed, preview-carrying SLOG file Jumpshot-style viewers load
// (Section 4). Designed to be driven by the merge utility's record sink,
// so "slogmerge" produces the merged interval file and the SLOG file in
// one pass over the inputs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "interval/open_states.h"
#include "interval/profile.h"
#include "interval/record.h"
#include "slog/preview.h"
#include "slog/slog_format.h"
#include "support/file_io.h"

namespace ute {

struct SlogOptions {
  std::uint32_t recordsPerFrame = 4096;  ///< budget, see frameMayClose
  /// SLOG file format version to write: kSlogVersion (2, columnar
  /// compressed frames) by default, or kSlogMinVersion (1, row-major)
  /// for compatibility output (`--slog-v1`).
  std::uint32_t formatVersion = kSlogVersion;
};

class SlogWriter {
 public:
  /// Keeps a reference to `profile`, which must outlive the writer.
  SlogWriter(const std::string& path, const SlogOptions& options,
             const Profile& profile, std::vector<ThreadEntry> threads,
             const std::map<std::uint32_t, std::string>& markers);
  /// A temporary profile would dangle from the first addRecord on.
  SlogWriter(const std::string& path, const SlogOptions& options,
             const Profile&& profile, std::vector<ThreadEntry> threads,
             const std::map<std::uint32_t, std::string>& markers) = delete;
  ~SlogWriter();

  /// Feeds one merged interval record (ascending end-time order).
  void addRecord(const RecordView& record);

  void close();

  /// Fired whenever a frame seals (its bytes hit the file and its index
  /// entry exists), with the decoded frame contents as the shared
  /// immutable handle the read side trades in. The live-ingest feed
  /// (src/stream) taps sealed frames here so TailFrames can serve them
  /// without reopening the growing file. Install before the first
  /// addRecord; frames written earlier are not replayed.
  using FrameSealHook =
      std::function<void(const SlogFrameIndexEntry&, SlogFramePtr)>;
  void setFrameSealHook(FrameSealHook hook) { sealHook_ = std::move(hook); }

  /// Registers a state definition (id -> name, palette color by
  /// registration order); ignored if `id` is already registered. The
  /// streaming ingest uses this for marker states defined after
  /// construction; addRecord() self-registers unknown ids with a
  /// placeholder name.
  void registerState(std::uint32_t id, const std::string& name);

  /// State and thread tables as they stand (states grow as markers and
  /// unknown ids register) — what a live query service serves while the
  /// file is still being written.
  const std::vector<SlogStateDef>& states() const { return states_; }
  const std::vector<ThreadEntry>& threads() const { return threads_; }

  std::uint64_t intervalsWritten() const { return intervalsWritten_; }
  std::uint64_t arrowsWritten() const { return arrowsWritten_; }

 private:
  struct PendingSend {
    NodeId node = 0;
    LogicalThreadId thread = 0;
    Tick sendTime = 0;
    std::uint32_t bytes = 0;
  };

  std::uint32_t stateIdFor(const RecordView& record);
  void appendInterval(const RecordView& record, std::uint32_t stateId,
                      bool pseudo);
  void appendArrow(const SlogArrow& arrow);
  void finalizeFrame();
  /// The cached accessor for `name` on `type`. The cache keys on the
  /// view, so `name` must outlive the writer: the profile's field-name
  /// constants do.
  const FieldAccessor& accessor(IntervalType type, std::string_view name);

  std::string path_;
  SlogOptions options_;
  const Profile& profile_;
  FileWriter file_;
  std::vector<ThreadEntry> threads_;

  std::vector<SlogStateDef> states_;
  std::map<std::uint32_t, std::size_t> stateIndex_;

  PreviewAccumulator preview_;

  ByteWriter frameBytes_;
  /// Decoded frame contents. v2 encodes the whole frame column-major at
  /// seal time, so it always accumulates records here; v1 encodes rows
  /// incrementally into frameBytes_ and fills this only for a seal hook.
  SlogFrameData frameData_;
  FrameSealHook sealHook_;
  std::uint32_t frameRecords_ = 0;  ///< entries: intervals and arrows
  std::uint32_t framePseudo_ = 0;   ///< of which restated pseudo-intervals
  Tick frameTimeStart_ = 0;
  Tick maxEnd_ = 0;
  Tick minStart_ = ~Tick{0};
  std::vector<SlogFrameIndexEntry> index_;

  OpenStates openStates_;
  std::map<std::uint32_t, PendingSend> pendingSends_;
  std::map<std::pair<IntervalType, std::string_view>, FieldAccessor>
      accessors_;

  std::uint64_t intervalsWritten_ = 0;
  std::uint64_t arrowsWritten_ = 0;
  bool closed_ = false;
};

}  // namespace ute
