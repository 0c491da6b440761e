// Interval record encoding, decoding and field access (Section 2.3.2).
//
// Every record body starts with the six common fields of the paper —
// record type, start time, duration, processor ID, node ID, logical
// thread ID — at fixed offsets, followed by type-specific fields as
// described by the record's specification in the profile. On disk each
// record is preceded by a one-byte record length; a zero length byte
// means the true length follows in the next two bytes, so a reader can
// always locate the next record without decoding the current one.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "clock/sync.h"
#include "interval/profile.h"
#include "support/bytes.h"
#include "support/types.h"

namespace ute {

/// Size of the common-field prefix: type u32, start u64, dura u64,
/// cpu i32, node i32, thread i32.
inline constexpr std::size_t kCommonPrefixBytes = 32;

/// Canonical names of the common fields (used by the standard profile,
/// the statistics language and getItemByName alike).
inline constexpr const char* kFieldType = "type";
inline constexpr const char* kFieldStart = "start";
inline constexpr const char* kFieldDura = "dura";
inline constexpr const char* kFieldCpu = "cpu";
inline constexpr const char* kFieldNode = "node";
inline constexpr const char* kFieldThread = "thread";

/// A decoded view of one record. `body` spans the full record body
/// (starting at the type word); the common fields are pre-parsed.
struct RecordView {
  std::span<const std::uint8_t> body;
  IntervalType intervalType = 0;
  Tick start = 0;
  Tick dura = 0;
  std::int32_t cpu = 0;
  NodeId node = 0;
  LogicalThreadId thread = 0;

  Tick end() const { return start + dura; }
  EventType eventType() const { return intervalEventType(intervalType); }
  Bebits bebits() const { return intervalBebits(intervalType); }

  /// Parses the common prefix; throws FormatError on short bodies.
  static RecordView parse(std::span<const std::uint8_t> body);
};

/// The (global, local) timestamp pair a ClockSync record carries: the
/// local reading is the record's start, the global one the u64 right
/// after the common prefix. Throws FormatError on a body too short to
/// hold it. The batch merge, the stream merger and utestream all read
/// clock pairs through this.
TimestampPair clockSyncPair(const RecordView& record);

/// Appends a record body to `out`: common fields followed by
/// pre-encoded type-specific field bytes (append them in spec order).
void appendRecordBody(ByteWriter& out, IntervalType type, Tick start,
                      Tick dura, std::int32_t cpu, NodeId node,
                      LogicalThreadId thread,
                      std::span<const std::uint8_t> extra = {});

/// The same body in a fresh buffer.
ByteWriter encodeRecordBody(IntervalType type, Tick start, Tick dura,
                            std::int32_t cpu, NodeId node,
                            LogicalThreadId thread,
                            std::span<const std::uint8_t> extra = {});

/// Appends `body` to `out` with the 1-or-3-byte record length prefix.
void appendRecordWithLength(std::vector<std::uint8_t>& out,
                            std::span<const std::uint8_t> body);

/// Size the record occupies on disk including its length prefix.
std::size_t recordSizeOnDisk(std::size_t bodySize);

/// Reads one length-prefixed record body from `r` (which must be
/// positioned at a length prefix). Returns an empty span at end of input.
std::span<const std::uint8_t> readLengthPrefixedRecord(ByteReader& r);

/// Overwrites the start/dura common fields of an encoded body in place —
/// the merge utility adjusts timestamps without re-encoding records.
void patchRecordTimes(std::span<std::uint8_t> body, Tick start, Tick dura);

// --- field access ----------------------------------------------------------

/// Invokes `fn(field, data, count)` for each field present under `mask`,
/// where `data` spans the element bytes (for vectors: after the counter)
/// and `count` is 1 for scalars. Stops early when fn returns false.
/// Returns false if the body was exhausted prematurely (malformed).
bool forEachField(
    const RecordSpec& spec, std::uint64_t mask,
    std::span<const std::uint8_t> body,
    const std::function<bool(const FieldSpec&, std::span<const std::uint8_t>,
                             std::uint32_t)>& fn);

/// Decodes one scalar element as a signed 64-bit value (sign-extending
/// signed types; kF64 is truncated toward zero).
std::int64_t decodeScalar(DataType type, std::span<const std::uint8_t> data);
double decodeScalarF64(DataType type, std::span<const std::uint8_t> data);

/// The paper's getItemByName: the value of the scalar field called `name`
/// in `record`, or nullopt when the record's type has no such field (or
/// the field is masked out of this file).
std::optional<std::int64_t> getScalarByName(const Profile& profile,
                                            std::uint64_t mask,
                                            const RecordView& record,
                                            std::string_view name);
std::optional<double> getF64ByName(const Profile& profile, std::uint64_t mask,
                                   const RecordView& record,
                                   std::string_view name);
/// Vector-of-char fields as a string.
std::optional<std::string> getStringByName(const Profile& profile,
                                           std::uint64_t mask,
                                           const RecordView& record,
                                           std::string_view name);

/// Pre-resolved accessor for hot loops (statistics over millions of
/// records): when no vector field precedes the target and all earlier
/// fields are selected, the byte offset is fixed and lookups are O(1).
class FieldAccessor {
 public:
  /// Builds the accessor, or an "absent" accessor when the record type
  /// has no such field under this mask.
  FieldAccessor(const Profile& profile, IntervalType type, std::uint64_t mask,
                std::string_view name);

  bool present() const { return present_; }
  std::optional<std::int64_t> get(const RecordView& record) const;

 private:
  bool present_ = false;
  bool fixedOffset_ = false;
  std::size_t offset_ = 0;
  DataType type_ = DataType::kU64;
  std::uint8_t elemLen_ = 0;
  std::uint16_t nameIndex_ = 0;
  const RecordSpec* spec_ = nullptr;
  std::uint64_t mask_ = 0;
};

}  // namespace ute
