#include "slog/slog_writer.h"

#include <algorithm>

#include "interval/standard_profile.h"
#include "slog/slog_codec.h"
#include "support/errors.h"

namespace ute {

namespace {

constexpr std::size_t kSlogHeaderBytes = 64;

/// Deterministic color palette (RGB), cycled over state indices.
constexpr std::uint32_t kPalette[] = {
    0x4c72b0, 0xdd8452, 0x55a868, 0xc44e52, 0x8172b3, 0x937860,
    0xda8bc3, 0x8c8c8c, 0xccb974, 0x64b5cd, 0x2f4b7c, 0xffa600,
};

}  // namespace

SlogWriter::SlogWriter(const std::string& path, const SlogOptions& options,
                       const Profile& profile,
                       std::vector<ThreadEntry> threads,
                       const std::map<std::uint32_t, std::string>& markers)
    : path_(path), options_(options), profile_(profile), file_(path),
      threads_(std::move(threads)), openStates_(profile) {
  if (options_.recordsPerFrame == 0) options_.recordsPerFrame = 4096;
  if (options_.formatVersion < kSlogMinVersion ||
      options_.formatVersion > kSlogVersion) {
    throw UsageError("unsupported SLOG format version " +
                     std::to_string(options_.formatVersion));
  }

  // Pre-register every state deterministically: the Running default
  // state, each MPI routine, and one state per unified marker string.
  registerState(static_cast<std::uint32_t>(kRunningState), "Running");
  registerState(static_cast<std::uint32_t>(EventType::kIoRead), "IoRead");
  registerState(static_cast<std::uint32_t>(EventType::kIoWrite), "IoWrite");
  registerState(static_cast<std::uint32_t>(EventType::kPageFault),
                "PageFault");
  for (std::uint16_t e = static_cast<std::uint16_t>(EventType::kMpiInit);
       e <= static_cast<std::uint16_t>(EventType::kMpiLast); ++e) {
    registerState(e, eventTypeName(static_cast<EventType>(e)));
  }
  for (const auto& [id, name] : markers) {
    registerState(kMarkerStateBase + id, name);
  }

  // Header placeholder + thread table; patched in close().
  ByteWriter header;
  header.u32(kSlogMagic);
  header.u32(options_.formatVersion);
  header.u32(0);  // state count (patched)
  header.u32(static_cast<std::uint32_t>(threads_.size()));
  header.u32(0);  // frame count (patched)
  header.u32(options_.recordsPerFrame);
  header.u64(0);  // total start (patched)
  header.u64(0);  // total end (patched)
  header.u64(0);  // frame index offset (patched)
  header.u64(0);  // state table offset (patched)
  header.u64(0);  // preview offset (patched)
  if (header.size() != kSlogHeaderBytes) {
    throw UsageError("SLOG header layout drifted");
  }
  file_.write(header);

  ByteWriter table;
  for (const ThreadEntry& t : threads_) putThreadEntry(table, t);
  file_.write(table);
}

void SlogWriter::registerState(std::uint32_t id, const std::string& name) {
  if (stateIndex_.find(id) != stateIndex_.end()) return;
  SlogStateDef def;
  def.id = id;
  def.name = name;
  def.rgb = kPalette[states_.size() % std::size(kPalette)];
  stateIndex_.emplace(id, states_.size());
  states_.push_back(std::move(def));
}

SlogWriter::~SlogWriter() {
  try {
    close();
  } catch (...) {
  }
}

const FieldAccessor& SlogWriter::accessor(IntervalType type,
                                          std::string_view name) {
  const auto key = std::make_pair(type, name);
  auto it = accessors_.find(key);
  if (it == accessors_.end()) {
    it = accessors_
             .try_emplace(key, profile_, type, kMergedFileMask, name)
             .first;
  }
  return it->second;
}

std::uint32_t SlogWriter::stateIdFor(const RecordView& record) {
  const EventType event = record.eventType();
  if (event == EventType::kUserMarker) {
    const auto markerId =
        accessor(record.intervalType, kFieldMarkerId).get(record);
    return kMarkerStateBase + static_cast<std::uint32_t>(markerId.value_or(0));
  }
  return static_cast<std::uint32_t>(event);
}

void SlogWriter::addRecord(const RecordView& record) {
  if (closed_) throw UsageError("SlogWriter: addRecord after close");
  if (record.eventType() == kClockSyncState) return;

  const std::uint32_t stateId = stateIdFor(record);
  if (stateIndex_.find(stateId) == stateIndex_.end()) {
    registerState(stateId, "state" + std::to_string(stateId));
  }

  // A fresh frame restates the still-open states at its boundary.
  if (frameRecords_ == 0) {
    openStates_.restate(frameTimeStart_, [this](const RecordView& pseudo) {
      appendInterval(pseudo, stateIdFor(pseudo), /*pseudo=*/true);
      ++framePseudo_;
    });
  }
  openStates_.track(record);

  appendInterval(record, stateId, /*pseudo=*/false);
  preview_.add(stateId, record.start, record.dura);
  minStart_ = std::min(minStart_, record.start);

  // Arrow matching via the per-message sequence numbers.
  const EventType event = record.eventType();
  const Bebits bebits = record.bebits();
  if ((event == EventType::kMpiSend || event == EventType::kMpiIsend) &&
      isFirstPiece(bebits)) {
    const auto seqno = accessor(record.intervalType, kFieldSeqNo).get(record);
    const auto bytes =
        accessor(record.intervalType, kFieldMsgSizeSent).get(record);
    if (seqno && *seqno > 0) {
      pendingSends_[static_cast<std::uint32_t>(*seqno)] = {
          record.node, record.thread, record.start,
          static_cast<std::uint32_t>(bytes.value_or(0))};
    }
  } else if ((event == EventType::kMpiRecv || event == EventType::kMpiWait) &&
             isLastPiece(bebits)) {
    const auto seqno = accessor(record.intervalType, kFieldSeqNo).get(record);
    if (seqno && *seqno > 0) {
      const auto it = pendingSends_.find(static_cast<std::uint32_t>(*seqno));
      if (it != pendingSends_.end()) {
        SlogArrow arrow;
        arrow.srcNode = it->second.node;
        arrow.srcThread = it->second.thread;
        arrow.sendTime = it->second.sendTime;
        arrow.dstNode = record.node;
        arrow.dstThread = record.thread;
        arrow.recvTime = record.end();
        arrow.bytes = it->second.bytes;
        pendingSends_.erase(it);
        appendArrow(arrow);
      }
    }
  }

  maxEnd_ = std::max(maxEnd_, record.end());
  if (frameMayClose(frameRecords_ >= options_.recordsPerFrame, framePseudo_,
                    frameRecords_ - framePseudo_)) {
    finalizeFrame();
  }
}

void SlogWriter::appendInterval(const RecordView& record,
                                std::uint32_t stateId, bool pseudo) {
  const SlogInterval interval{
      stateId,      static_cast<std::uint8_t>(record.bebits()), pseudo,
      record.start, record.dura, record.node, record.cpu, record.thread};
  const bool columnar = options_.formatVersion >= 2;
  if (columnar || sealHook_) frameData_.intervals.push_back(interval);
  if (!columnar) {
    frameBytes_.u8(0);  // kind: interval
    putRowInterval(frameBytes_, interval);
  }
  ++frameRecords_;
  ++intervalsWritten_;
}

void SlogWriter::appendArrow(const SlogArrow& arrow) {
  const bool columnar = options_.formatVersion >= 2;
  if (columnar || sealHook_) frameData_.arrows.push_back(arrow);
  if (!columnar) {
    frameBytes_.u8(1);  // kind: arrow
    putRowArrow(frameBytes_, arrow);
  }
  ++frameRecords_;
  ++arrowsWritten_;
}

void SlogWriter::finalizeFrame() {
  if (frameRecords_ == 0) return;
  const bool columnar = options_.formatVersion >= 2;
  if (columnar) {
    // The whole frame is in hand, so the columnar payload is encoded in
    // one pass at seal time (column grouping needs every record).
    frameBytes_.clear();
    encodeColumnarFrame(frameData_.intervals, frameData_.arrows,
                        frameBytes_.buffer());
  }
  SlogFrameIndexEntry entry;
  entry.offset = file_.tell();
  entry.sizeBytes = static_cast<std::uint32_t>(frameBytes_.size());
  entry.records = frameRecords_;
  entry.timeStart = frameTimeStart_;
  entry.timeEnd = std::max(maxEnd_, frameTimeStart_);
  entry.encoding = static_cast<std::uint32_t>(
      columnar ? FrameEncoding::kColumnar : FrameEncoding::kRow);
  file_.write(frameBytes_);
  index_.push_back(entry);
  if (sealHook_) {
    sealHook_(entry, std::make_shared<const SlogFrameData>(
                         std::move(frameData_)));
  }
  frameData_.intervals.clear();
  frameData_.arrows.clear();
  frameBytes_.clear();
  frameRecords_ = 0;
  framePseudo_ = 0;
  frameTimeStart_ = entry.timeEnd;  // frames tile the run's time
}

void SlogWriter::close() {
  if (closed_) return;
  finalizeFrame();

  const std::uint64_t indexOffset = file_.tell();
  ByteWriter indexBytes;
  for (const SlogFrameIndexEntry& e : index_) {
    putFrameIndexEntry(indexBytes, e);
    // v2 entries append the per-frame encoding tag after the v1 prefix.
    if (options_.formatVersion >= 2) indexBytes.u32(e.encoding);
  }
  file_.write(indexBytes);

  const std::uint64_t stateOffset = file_.tell();
  ByteWriter stateBytes;
  for (const SlogStateDef& s : states_) putStateDef(stateBytes, s);
  file_.write(stateBytes);

  const std::uint64_t previewOffset = file_.tell();
  std::vector<std::uint32_t> order;
  order.reserve(states_.size());
  for (const SlogStateDef& s : states_) order.push_back(s.id);
  const SlogPreview preview = preview_.snapshot(order);
  ByteWriter previewBytes;
  putPreviewHead(previewBytes, preview);
  putPreviewRows(previewBytes, preview);
  file_.write(previewBytes);

  ByteWriter patch1;
  patch1.u32(static_cast<std::uint32_t>(states_.size()));
  file_.writeAt(8, patch1.view());
  ByteWriter patch2;
  patch2.u32(static_cast<std::uint32_t>(index_.size()));
  file_.writeAt(16, patch2.view());
  ByteWriter patch3;
  patch3.u64(intervalsWritten_ == 0 ? 0 : minStart_);
  patch3.u64(maxEnd_);
  patch3.u64(indexOffset);
  patch3.u64(stateOffset);
  patch3.u64(previewOffset);
  file_.writeAt(24, patch3.view());

  file_.close();
  closed_ = true;
}

}  // namespace ute
