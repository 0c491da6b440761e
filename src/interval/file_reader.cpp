#include "interval/file_reader.h"

#include "support/errors.h"

namespace ute {

IntervalFileReader::IntervalFileReader(const std::string& path,
                                       ByteSource::Mode mode)
    : source_(path, mode) {
  const FrameBuf headerBytes = source_.fetch(0, kIntervalHeaderBytes);
  ByteReader r = headerBytes.reader();
  if (r.u32() != kIntervalMagic) {
    throw FormatError("not an interval file: " + path);
  }
  header_.profileVersion = r.u32();
  header_.headerVersion = r.u32();
  if (header_.headerVersion != kIntervalHeaderVersion) {
    throw FormatError("unsupported interval header version in " + path);
  }
  header_.flags = r.u32();
  header_.fieldSelectionMask = r.u64();
  header_.threadCount = r.u32();
  header_.markerTableOffset = r.u64();
  header_.markerCount = r.u32();
  header_.firstDirOffset = r.u64();
  header_.totalRecords = r.u64();
  header_.minStart = r.u64();
  header_.maxEnd = r.u64();

  const FrameBuf tableBytes = source_.fetch(
      kIntervalHeaderBytes, header_.threadCount * kThreadEntryBytes);
  ByteReader tr = tableBytes.reader();
  threads_.reserve(header_.threadCount);
  for (std::uint32_t i = 0; i < header_.threadCount; ++i) {
    threads_.push_back(takeThreadEntry(tr));
  }

  if (header_.markerCount > 0) {
    const FrameBuf markerBytes = source_.fetch(
        header_.markerTableOffset,
        static_cast<std::size_t>(source_.size() - header_.markerTableOffset));
    ByteReader mr = markerBytes.reader();
    for (std::uint32_t i = 0; i < header_.markerCount; ++i) {
      markers_.insert(takeMarker(mr));
    }
  }
}

void IntervalFileReader::checkProfile(const Profile& profile) const {
  if (profile.versionId() != header_.profileVersion) {
    throw FormatError("profile version mismatch: file " + path() +
                      " was written with profile version " +
                      std::to_string(header_.profileVersion) +
                      " but the profile has version " +
                      std::to_string(profile.versionId()));
  }
}

FrameDirectory IntervalFileReader::readDirectory(std::uint64_t offset) const {
  if (offset == 0 || offset >= source_.size()) {
    return FrameDirectory{};  // empty file or end of chain
  }

  if (source_.size() - offset < kDirHeaderBytes) {
    throw FormatError("truncated frame directory header" +
                      ioContext(path(), offset));
  }
  const FrameBuf head = source_.fetch(offset, kDirHeaderBytes);
  ByteReader r = head.reader();
  FrameDirectory dir;
  dir.offset = offset;
  const std::uint32_t dirSize = r.u32();
  const std::uint32_t frameCount = r.u32();
  dir.prevOffset = r.u64();
  dir.nextOffset = r.u64();
  if (dirSize != kDirHeaderBytes + frameCount * kFrameEntryBytes) {
    throw FormatError("inconsistent frame directory size" +
                      ioContext(path(), offset));
  }
  if (dir.nextOffset != 0 && dir.nextOffset <= offset) {
    throw FormatError("frame directory chain does not advance" +
                      ioContext(path(), offset));
  }
  const std::uint64_t entryBytes =
      std::uint64_t{frameCount} * kFrameEntryBytes;
  if (entryBytes > source_.size() - offset - kDirHeaderBytes) {
    throw FormatError("frame directory exceeds file size" +
                      ioContext(path(), offset));
  }
  const FrameBuf entries = source_.fetch(
      offset + kDirHeaderBytes, static_cast<std::size_t>(entryBytes));
  ByteReader er = entries.reader();
  dir.frames.reserve(frameCount);
  for (std::uint32_t i = 0; i < frameCount; ++i) {
    FrameInfo f;
    f.offset = er.u64();
    f.sizeBytes = er.u32();
    f.records = er.u32();
    f.startTime = er.u64();
    f.endTime = er.u64();
    dir.frames.push_back(f);
  }
  return dir;
}

FrameBuf IntervalFileReader::readFrame(const FrameInfo& frame) const {
  return source_.fetch(frame.offset, frame.sizeBytes);
}

std::vector<std::uint8_t> IntervalFileReader::recordAt(
    std::uint64_t frameOffset, std::uint32_t index) const {
  for (FrameDirectory dir = firstDirectory(); !dir.frames.empty();
       dir = readDirectory(dir.nextOffset)) {
    for (const FrameInfo& f : dir.frames) {
      if (f.offset != frameOffset) continue;
      if (index >= f.records) {
        throw UsageError("recordAt: index " + std::to_string(index) +
                         " out of range for frame with " +
                         std::to_string(f.records) + " records");
      }
      const FrameBuf bytes = readFrame(f);
      ByteReader r = bytes.reader();
      for (std::uint32_t i = 0; i < index; ++i) {
        readLengthPrefixedRecord(r);
      }
      const auto body = readLengthPrefixedRecord(r);
      return {body.begin(), body.end()};
    }
    if (dir.nextOffset == 0) break;
  }
  throw UsageError("recordAt: no frame starts at offset " +
                   std::to_string(frameOffset));
}

std::optional<FrameInfo> IntervalFileReader::frameContaining(Tick t) const {
  for (FrameDirectory dir = firstDirectory(); !dir.frames.empty();
       dir = readDirectory(dir.nextOffset)) {
    for (const FrameInfo& f : dir.frames) {
      if (t >= f.startTime && t <= f.endTime) return f;
    }
    if (dir.nextOffset == 0) break;
  }
  return std::nullopt;
}

Tick IntervalFileReader::totalElapsed() const {
  Tick minStart = ~Tick{0};
  Tick maxEnd = 0;
  bool any = false;
  for (FrameDirectory dir = firstDirectory(); !dir.frames.empty();
       dir = readDirectory(dir.nextOffset)) {
    for (const FrameInfo& f : dir.frames) {
      any = true;
      minStart = std::min(minStart, f.startTime);
      maxEnd = std::max(maxEnd, f.endTime);
    }
    if (dir.nextOffset == 0) break;
  }
  return any ? maxEnd - minStart : 0;
}

std::uint64_t IntervalFileReader::countRecordsViaDirectories() const {
  std::uint64_t total = 0;
  for (FrameDirectory dir = firstDirectory(); !dir.frames.empty();
       dir = readDirectory(dir.nextOffset)) {
    for (const FrameInfo& f : dir.frames) total += f.records;
    if (dir.nextOffset == 0) break;
  }
  return total;
}

IntervalFileReader::RecordStream::RecordStream(
    const IntervalFileReader& reader)
    : reader_(reader) {
  reader_.source().advise(MappedFile::Hint::kSequential);
  dir_ = reader_.firstDirectory();
  if (dir_.frames.empty()) exhausted_ = true;
}

bool IntervalFileReader::RecordStream::loadNextFrame() {
  for (;;) {
    if (frameIdx_ < dir_.frames.size()) {
      frame_ = reader_.readFrame(dir_.frames[frameIdx_]);
      ++frameIdx_;
      pos_ = 0;
      return true;
    }
    if (dir_.nextOffset == 0) return false;
    dir_ = reader_.readDirectory(dir_.nextOffset);
    frameIdx_ = 0;
    if (dir_.frames.empty()) return false;
  }
}

bool IntervalFileReader::RecordStream::next(RecordView& out) {
  if (exhausted_) return false;
  for (;;) {
    if (pos_ < frame_.size()) {
      ByteReader r(frame_.bytes().subspan(pos_));
      const auto body = readLengthPrefixedRecord(r);
      pos_ += r.pos();
      out = RecordView::parse(body);
      return true;
    }
    if (!loadNextFrame()) {
      exhausted_ = true;
      return false;
    }
  }
}

}  // namespace ute
