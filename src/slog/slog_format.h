// SLOG ("scalable log") file format shared definitions (Section 4).
//
// SLOG answers the two problems a viewer of huge trace files faces:
// rapid access to any time interval (a frame index keyed by time — given
// a time it is easy to locate the frame containing it), and accurate
// portrayal near frame edges (pseudo-interval records restating the
// states and messages that cross into a frame from outside it). A
// preview histogram — state counters accumulated during SLOG
// construction with proportional allocation of durations into a fixed
// number of time bins — lets the viewer draw the whole run instantly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "interval/file_writer.h"
#include "support/types.h"

namespace ute {

inline constexpr std::uint32_t kSlogMagic = 0x53455455;  // "UTES"
/// Current (default) file format version. v2 frames are columnar
/// compressed (slog_codec.h); v1 frames are row-major fixed width.
inline constexpr std::uint32_t kSlogVersion = 2;
/// Oldest version this build still reads and writes. v1 files remain
/// readable forever; `--slog-v1` keeps producing them.
inline constexpr std::uint32_t kSlogMinVersion = 1;

/// Visualization state ids: MPI states reuse their EventType value;
/// user-marker states get kMarkerStateBase + unified marker id (each
/// marker string is its own colored state, as in Jumpshot).
inline constexpr std::uint32_t kMarkerStateBase = 1000;

struct SlogStateDef {
  std::uint32_t id = 0;
  std::string name;
  std::uint32_t rgb = 0x888888;
};

struct SlogInterval {
  std::uint32_t stateId = 0;
  std::uint8_t bebits = 0b11;
  bool pseudo = false;  ///< restated at a frame start, not a real piece
  Tick start = 0;
  Tick dura = 0;
  NodeId node = 0;
  std::int32_t cpu = 0;
  LogicalThreadId thread = 0;

  Tick end() const { return start + dura; }
};

/// A matched point-to-point message, drawn as an arrow from the send
/// call's start to the receive call's end.
struct SlogArrow {
  NodeId srcNode = 0;
  LogicalThreadId srcThread = 0;
  Tick sendTime = 0;
  NodeId dstNode = 0;
  LogicalThreadId dstThread = 0;
  Tick recvTime = 0;
  std::uint32_t bytes = 0;
};

struct SlogFrameData {
  std::vector<SlogInterval> intervals;
  std::vector<SlogArrow> arrows;
  /// Optional time index over `intervals`, filled by indexFrameTimes
  /// (slog/frame_time_index.h) for a frame in SlogWriter's layout: the
  /// first `pseudoPrefix` intervals are the pseudo-intervals, and
  /// startFloors[b] is the minimum start of the real intervals from
  /// kStartFloorBlock * b on. Empty `startFloors` means no index: a query
  /// reads every interval.
  std::uint32_t pseudoPrefix = 0;
  std::vector<Tick> startFloors;
};

/// The shared immutable frame handle the whole read side trades in: the
/// reader decodes a frame once into a SlogFramePtr, and the server
/// cache, metric passes, viewers and wire encoders all reference that
/// one decoded frame — never a private copy.
using SlogFramePtr = std::shared_ptr<const SlogFrameData>;

struct SlogFrameIndexEntry {
  std::uint64_t offset = 0;
  std::uint32_t sizeBytes = 0;  ///< encoded payload size; NOT records × width
  std::uint32_t records = 0;
  Tick timeStart = 0;  ///< frames tile the run's time without gaps
  Tick timeEnd = 0;
  /// Frame payload encoding tag (FrameEncoding): 0 = row (v1), 1 =
  /// columnar (v2). Stored per frame in v2 index entries; v1 files have
  /// 32-byte entries with no tag and every frame is row-encoded.
  std::uint32_t encoding = 0;
};

/// On-disk frame index entry sizes. A v2 entry is the v1 entry plus a
/// trailing u32 encoding tag, so the v1 prefix layout never moves.
inline constexpr std::uint32_t kSlogIndexEntryBytesV1 = 32;
inline constexpr std::uint32_t kSlogIndexEntryBytesV2 = 36;

/// The preview histogram: for each state, time spent per bin (ns),
/// durations allocated proportionally across the bins they overlap.
struct SlogPreview {
  Tick origin = 0;
  Tick binWidth = 0;
  std::uint32_t bins = 0;
  /// Parallel to the state definition table.
  std::vector<std::vector<double>> perStateBinTime;
};

}  // namespace ute
