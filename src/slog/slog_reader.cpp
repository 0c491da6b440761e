#include "slog/slog_reader.h"

#include <algorithm>

#include "slog/slog_codec.h"
#include "support/errors.h"

namespace ute {

namespace {
constexpr std::uint32_t kSlogHeaderBytes = 64;
}

namespace {

/// Corrupt-file guard: frame offsets, table offsets and counts all come
/// from the file itself, so each is checked against the real byte count
/// before any read that would trust it.
void requireWithin(std::uint64_t offset, std::uint64_t bytes,
                   std::uint64_t fileSize, const std::string& path,
                   const char* what) {
  if (offset > fileSize || bytes > fileSize - offset) {
    throw CorruptFileError("corrupt SLOG file: " + std::string(what) + " [" +
                           std::to_string(offset) + ", +" +
                           std::to_string(bytes) + ") exceeds file size " +
                           std::to_string(fileSize) + ioContext(path, offset));
  }
}

}  // namespace

SlogReader::SlogReader(const std::string& path, ByteSource::Mode mode)
    : source_(path, mode) {
  const std::uint64_t fileSize = source_.size();
  requireWithin(0, kSlogHeaderBytes, fileSize, path, "header");
  const FrameBuf headerBytes = source_.fetch(0, kSlogHeaderBytes);
  ByteReader r = headerBytes.reader();
  if (r.u32() != kSlogMagic) throw FormatError("not a SLOG file: " + path);
  formatVersion_ = r.u32();
  if (formatVersion_ < kSlogMinVersion || formatVersion_ > kSlogVersion) {
    throw FormatError("unsupported SLOG version " +
                      std::to_string(formatVersion_) + " in " + path);
  }
  const std::uint32_t stateCount = r.u32();
  const std::uint32_t threadCount = r.u32();
  const std::uint32_t frameCount = r.u32();
  r.u32();  // records per frame (informational)
  totalStart_ = r.u64();
  totalEnd_ = r.u64();
  const std::uint64_t indexOffset = r.u64();
  const std::uint64_t stateOffset = r.u64();
  const std::uint64_t previewOffset = r.u64();

  requireWithin(kSlogHeaderBytes,
                std::uint64_t{threadCount} * kThreadEntryBytes, fileSize,
                path, "thread table");
  const std::uint32_t entryBytes = formatVersion_ >= 2
                                       ? kSlogIndexEntryBytesV2
                                       : kSlogIndexEntryBytesV1;
  requireWithin(indexOffset, std::uint64_t{frameCount} * entryBytes, fileSize,
                path, "frame index");
  if (stateOffset > previewOffset) {
    throw CorruptFileError(
        "corrupt SLOG file: state table offset follows preview offset" +
        ioContext(path, stateOffset));
  }
  requireWithin(stateOffset, previewOffset - stateOffset, fileSize, path,
                "state table");
  if (std::uint64_t{stateCount} * kStateDefMinBytes >
      previewOffset - stateOffset) {
    throw CorruptFileError("corrupt SLOG file: " +
                           std::to_string(stateCount) +
                           " states do not fit in the state table" +
                           ioContext(path, stateOffset));
  }
  requireWithin(previewOffset, 0, fileSize, path, "preview");

  const FrameBuf tableBytes =
      source_.fetch(kSlogHeaderBytes, threadCount * kThreadEntryBytes);
  ByteReader tr = tableBytes.reader();
  threads_.reserve(threadCount);
  for (std::uint32_t i = 0; i < threadCount; ++i) {
    threads_.push_back(takeThreadEntry(tr));
  }

  const FrameBuf indexBytes =
      source_.fetch(indexOffset, frameCount * entryBytes);
  ByteReader ir = indexBytes.reader();
  index_.reserve(frameCount);
  for (std::uint32_t i = 0; i < frameCount; ++i) {
    SlogFrameIndexEntry e = takeFrameIndexEntry(ir);
    // v1 entries carry no tag: every v1 frame is row-encoded.
    if (formatVersion_ >= 2) e.encoding = ir.u32();
    requireWithin(e.offset, e.sizeBytes, fileSize, path,
                  ("frame " + std::to_string(i) + " extent").c_str());
    if (e.offset < kSlogHeaderBytes || e.timeEnd < e.timeStart ||
        e.encoding >
            static_cast<std::uint32_t>(FrameEncoding::kColumnar)) {
      throw CorruptFileError("corrupt SLOG file: frame index entry " +
                             std::to_string(i) + " is inconsistent" +
                             ioContext(path, e.offset));
    }
    index_.push_back(e);
  }

  const FrameBuf stateBytes = source_.fetch(
      stateOffset, static_cast<std::size_t>(previewOffset - stateOffset));
  ByteReader sr = stateBytes.reader();
  states_.reserve(stateCount);
  for (std::uint32_t i = 0; i < stateCount; ++i) {
    states_.push_back(takeStateDef(sr));
  }

  const FrameBuf previewBytes = source_.fetch(
      previewOffset, static_cast<std::size_t>(fileSize - previewOffset));
  ByteReader pr = previewBytes.reader();
  preview_ = takePreviewHead(pr);
  takePreviewRows(pr, stateCount, preview_);
}

std::string SlogReader::stateName(std::uint32_t stateId) const {
  for (const SlogStateDef& s : states_) {
    if (s.id == stateId) return s.name;
  }
  return "state" + std::to_string(stateId);
}

std::optional<std::size_t> SlogReader::frameIndexFor(Tick t) const {
  if (index_.empty()) return std::nullopt;
  // Frames tile the run: first frame whose timeEnd >= t, if it covers t.
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), t,
      [](const SlogFrameIndexEntry& e, Tick v) { return e.timeEnd < v; });
  if (it == index_.end()) return std::nullopt;
  return static_cast<std::size_t>(it - index_.begin());
}

std::optional<std::pair<std::size_t, std::size_t>>
SlogReader::framesOverlapping(Tick t0, Tick t1) const {
  // Frames tile the run, so both times ascend through the index: the
  // span runs from the first frame ending after t0 to the last starting
  // before t1.
  const auto first = std::partition_point(
      index_.begin(), index_.end(),
      [t0](const SlogFrameIndexEntry& e) { return e.timeEnd <= t0; });
  const auto past = std::partition_point(
      index_.begin(), index_.end(),
      [t1](const SlogFrameIndexEntry& e) { return e.timeStart < t1; });
  if (past <= first) return std::nullopt;
  return std::make_pair(static_cast<std::size_t>(first - index_.begin()),
                        static_cast<std::size_t>(past - index_.begin()) - 1);
}

SlogFramePtr SlogReader::readFrame(std::size_t frameIdx) const {
  auto data = std::make_shared<SlogFrameData>();
  readFrameInto(frameIdx, *data);
  return data;
}

void SlogReader::readFrameInto(std::size_t frameIdx, SlogFrameData& out) const {
  if (frameIdx >= index_.size()) {
    throw UsageError("SLOG frame index out of range");
  }
  const SlogFrameIndexEntry& entry = index_[frameIdx];
  // The extent was validated against the file size at open; fetch()
  // re-checks against the mapping bounds, so a file truncated after open
  // still fails typed instead of faulting.
  const FrameBuf bytes = source_.fetch(entry.offset, entry.sizeBytes);
  out.pseudoPrefix = 0;
  out.startFloors.clear();
  if (entry.encoding ==
      static_cast<std::uint32_t>(FrameEncoding::kColumnar)) {
    // The error context is formatted only when decoding fails.
    try {
      decodeColumnarFrame(bytes.bytes(), out);
    } catch (const FormatError& e) {
      throw FormatError(e.what() + ioContext(path(), entry.offset));
    }
    if (out.intervals.size() + out.arrows.size() != entry.records) {
      throw CorruptFileError(
          "corrupt SLOG file: frame record count mismatch" +
          ioContext(path(), entry.offset));
    }
    return;
  }
  out.intervals.clear();
  out.arrows.clear();
  ByteReader r = bytes.reader();
  for (std::uint32_t i = 0; i < entry.records; ++i) {
    const std::uint8_t kind = r.u8();
    if (kind == 0) {
      out.intervals.push_back(takeRowInterval(r));
    } else if (kind == 1) {
      out.arrows.push_back(takeRowArrow(r));
    } else {
      throw FormatError("unknown SLOG record kind " + std::to_string(kind) +
                        ioContext(path(), entry.offset + r.pos() - 1));
    }
  }
}

}  // namespace ute
