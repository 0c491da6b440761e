// Streaming reader for raw per-node trace files.
//
// Reconstructs full 64-bit local timestamps from the 32-bit on-disk
// timestamp words plus TimestampWrap records, and decodes hookword /
// context words back into typed events.
//
// Decoding runs over the ByteSource layer: when the file maps, records
// are decoded in place from the mapping (no refill buffer, no copy — the
// payload spans point straight into the file's pages); on the pread
// fallback the reader streams through a bounded refill buffer, so
// converting multi-hundred-megabyte trace files (Table 1 runs up to
// 11.2 M raw events) never requires holding the file in memory.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/byte_source.h"
#include "support/bytes.h"
#include "support/types.h"
#include "trace/events.h"

namespace ute {

/// One decoded raw trace event. `payload` points into the file mapping
/// (valid for the reader's lifetime) or into the reader's refill buffer
/// (invalidated by the next call to next()); treat it as next()-scoped.
struct RawEvent {
  EventType type = EventType::kInvalid;
  std::uint8_t flags = 0;
  CpuId cpu = 0;
  LogicalThreadId ltid = -1;
  Tick localTs = 0;  ///< reconstructed full 64-bit local time, ns
  std::span<const std::uint8_t> payload;

  ByteReader payloadReader() const { return ByteReader(payload); }
};

class TraceFileReader {
 public:
  explicit TraceFileReader(const std::string& path,
                           std::size_t chunkBytes = 1 << 20);

  NodeId node() const { return node_; }
  int cpuCount() const { return cpuCount_; }

  /// Decodes the next event, or nullopt at end of file. TimestampWrap
  /// records are consumed internally (their effect is the reconstructed
  /// 64-bit timestamps) and not surfaced.
  std::optional<RawEvent> next();

  std::uint64_t eventsRead() const { return eventsRead_; }

 private:
  bool ensure(std::size_t n);
  const std::uint8_t* cur() const { return base_ + pos_; }
  /// Absolute file offset of the byte at cur() (for error context).
  std::uint64_t recordOffset() const {
    return source_.mapped() ? pos_ : fileOffset_ - (filled_ - pos_);
  }

  ByteSource source_;
  FrameBuf whole_;                 ///< the mapping (mmap path only)
  std::vector<std::uint8_t> buf_;  ///< refill buffer (pread path only)
  const std::uint8_t* base_ = nullptr;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
  std::uint64_t fileOffset_ = 0;  ///< next refill position (pread path)
  NodeId node_ = -1;
  int cpuCount_ = 0;
  std::uint64_t highWord_ = 0;
  std::uint32_t lastLow_ = 0;
  std::uint64_t eventsRead_ = 0;
};

}  // namespace ute
