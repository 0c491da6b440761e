#include "interval/file_writer.h"

#include <algorithm>

namespace ute {

void putThreadEntry(ByteWriter& w, const ThreadEntry& t) {
  w.i32(t.task);
  w.i32(t.pid);
  w.i32(t.systemTid);
  w.i32(t.node);
  w.i32(t.ltid);
  w.u8(static_cast<std::uint8_t>(t.type));
}

ThreadEntry takeThreadEntry(ByteReader& r) {
  ThreadEntry t;
  t.task = r.i32();
  t.pid = r.i32();
  t.systemTid = r.i32();
  t.node = r.i32();
  t.ltid = r.i32();
  const std::uint8_t type = r.u8();
  if (type > static_cast<std::uint8_t>(ThreadType::kSystem)) {
    throw FormatError("unknown thread type " + std::to_string(type) +
                      " in thread table entry at offset " +
                      std::to_string(r.pos() - kThreadEntryBytes));
  }
  t.type = static_cast<ThreadType>(type);
  return t;
}

void putMarker(ByteWriter& w, std::uint32_t id, std::string_view name) {
  w.u32(id);
  w.lstring(name);
}

std::pair<std::uint32_t, std::string> takeMarker(ByteReader& r) {
  const std::uint32_t id = r.u32();
  return {id, r.lstring()};
}

IntervalFileWriter::IntervalFileWriter(const std::string& path,
                                       const IntervalFileOptions& options,
                                       std::vector<ThreadEntry> threads,
                                       const Profile* restate)
    : path_(path), options_(options), file_(path) {
  if (restate) openStates_.emplace(*restate);
  if (options_.framesPerDirectory <= 0) options_.framesPerDirectory = 64;
  if (options_.targetFrameBytes < 1024) options_.targetFrameBytes = 1024;

  ByteWriter header;
  header.u32(kIntervalMagic);
  header.u32(options_.profileVersion);
  header.u32(kIntervalHeaderVersion);
  header.u32(options_.merged ? kIntervalFlagMerged : 0);
  header.u64(options_.fieldSelectionMask);
  header.u32(static_cast<std::uint32_t>(threads.size()));
  header.u64(0);  // marker table offset (patched)
  header.u32(0);  // marker count (patched)
  header.u64(kIntervalHeaderBytes + threads.size() * kThreadEntryBytes);
  header.u64(0);  // total records (patched)
  header.u64(0);  // min start (patched)
  header.u64(0);  // max end (patched)
  if (header.size() != kIntervalHeaderBytes) {
    throw UsageError("interval header layout drifted");
  }
  file_.write(header);

  ByteWriter table;
  for (const ThreadEntry& t : threads) putThreadEntry(table, t);
  file_.write(table);
}

void IntervalFileWriter::addMarker(std::uint32_t id, const std::string& name) {
  const auto [it, inserted] = markers_.emplace(id, name);
  if (!inserted && it->second != name) {
    throw UsageError("marker id " + std::to_string(id) +
                     " registered with two different strings ('" + it->second +
                     "' vs '" + name + "')");
  }
}

void IntervalFileWriter::addRecord(std::span<const std::uint8_t> body) {
  addRecord(RecordView::parse(body));
}

void IntervalFileWriter::addRecord(const RecordView& view) {
  if (closed_) throw UsageError("IntervalFileWriter: addRecord after close");
  if (view.end() < lastEnd_) {
    throw UsageError("interval records must be appended in ascending "
                     "end-time order (" +
                     std::to_string(view.end()) + " after " +
                     std::to_string(lastEnd_) + ")");
  }

  if (openStates_) {
    // A fresh frame restates the still-open states at its boundary.
    if (current_.records == 0) {
      openStates_->restate(lastEnd_, [this](const RecordView& pseudo) {
        appendToFrame(pseudo);
        ++current_.pseudo;
        ++pseudoRecords_;
      });
    }
    openStates_->track(view);
  }

  appendToFrame(view);
  lastEnd_ = view.end();
  if (frameMayClose(current_.bytes.size() >= options_.targetFrameBytes,
                    current_.pseudo, current_.records - current_.pseudo)) {
    finalizeFrame();
  }
}

void IntervalFileWriter::appendToFrame(const RecordView& view) {
  current_.minStart = std::min(current_.minStart, view.start);
  current_.maxEnd = view.end();  // records arrive in ascending end order
  appendRecordWithLength(current_.bytes, view.body);
  ++current_.records;
  ++totalRecords_;
  minStart_ = std::min(minStart_, view.start);
}

void IntervalFileWriter::finalizeFrame() {
  if (current_.records == 0) return;
  // A sealed frame waits for its directory; keep no growth slack.
  current_.bytes.shrink_to_fit();
  pendingFrames_.push_back(std::move(current_));
  current_ = PendingFrame{};
  if (pendingFrames_.size() >=
      static_cast<std::size_t>(options_.framesPerDirectory)) {
    flushDirectory();
  }
}

void IntervalFileWriter::flushDirectory() {
  if (pendingFrames_.empty()) return;
  const std::uint64_t dirOffset = file_.tell();
  const std::size_t dirSize =
      kDirHeaderBytes + pendingFrames_.size() * kFrameEntryBytes;

  ByteWriter dir;
  dir.u32(static_cast<std::uint32_t>(dirSize));
  dir.u32(static_cast<std::uint32_t>(pendingFrames_.size()));
  dir.u64(prevDirOffset_);
  dir.u64(0);  // next directory offset; patched when it exists

  std::uint64_t frameOffset = dirOffset + dirSize;
  for (const PendingFrame& f : pendingFrames_) {
    dir.u64(frameOffset);
    dir.u32(static_cast<std::uint32_t>(f.bytes.size()));
    dir.u32(f.records);
    dir.u64(f.minStart);
    dir.u64(f.maxEnd);
    frameOffset += f.bytes.size();
  }
  // The frames are written from where they wait, not copied into one
  // batch first: a directory's frames are then in memory only once.
  file_.write(dir);
  for (const PendingFrame& f : pendingFrames_) file_.write(f.bytes);
  pendingFrames_.clear();

  if (prevDirOffset_ != 0) {
    // Patch the previous directory's "next" link (dir header offset 16).
    ByteWriter patch;
    patch.u64(dirOffset);
    file_.writeAt(prevDirOffset_ + 16, patch.view());
  }
  prevDirOffset_ = dirOffset;
}

void IntervalFileWriter::close() {
  if (closed_) return;
  finalizeFrame();
  flushDirectory();

  const std::uint64_t markerOffset = markers_.empty() ? 0 : file_.tell();
  if (!markers_.empty()) {
    ByteWriter table;
    for (const auto& [id, name] : markers_) putMarker(table, id, name);
    file_.write(table);
  }

  // Patch marker table offset/count and the aggregate trailer fields.
  ByteWriter markerPatch;
  markerPatch.u64(markerOffset);
  markerPatch.u32(static_cast<std::uint32_t>(markers_.size()));
  file_.writeAt(28, markerPatch.view());

  ByteWriter aggregates;
  aggregates.u64(totalRecords_);
  aggregates.u64(totalRecords_ == 0 ? 0 : minStart_);
  aggregates.u64(lastEnd_);
  file_.writeAt(48, aggregates.view());

  file_.close();
  closed_ = true;
}

}  // namespace ute
