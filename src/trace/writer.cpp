#include "trace/writer.h"

#include <algorithm>
#include <cstring>

#include "support/errors.h"

namespace ute {

namespace {
constexpr std::uint32_t kRawMagic = 0x52455455;  // "UTER" little-endian
constexpr std::uint32_t kRawVersion = 1;
}  // namespace

std::string TraceSession::traceFilePath(const std::string& prefix,
                                        NodeId node) {
  return prefix + "." + std::to_string(node) + ".utr";
}

TraceSession::TraceSession(const TraceOptions& options, NodeId node,
                           int cpuCount, Tick initialLocalTs)
    : options_(options),
      node_(node),
      filePath_(traceFilePath(options.filePrefix, node)),
      file_(filePath_),
      tracingEnabled_(options.startEnabled) {
  if (options_.bufferSizeBytes < 4096) options_.bufferSizeBytes = 4096;

  ByteWriter header;
  header.u32(kRawMagic);
  header.u32(kRawVersion);
  header.i32(node);
  header.i32(cpuCount);
  file_.write(header);
  stats_.bytesWritten += header.size();

  // The node-info record is a control record: always cut, so readers know
  // the topology even when tracing proper starts later.
  cut(EventType::kNodeInfo, 0, 0, -1, initialLocalTs,
      payloadNodeInfo(node, cpuCount));
}

TraceSession::~TraceSession() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; an explicit close() surfaces errors.
  }
}

bool TraceSession::classEnabled(EventType type) const {
  const EventClass c = eventClassOf(type);
  if (c == EventClass::kControl) return true;
  if (!tracingEnabled_) return false;
  return (options_.enabledClasses & TraceOptions::classBit(c)) != 0;
}

void TraceSession::cut(EventType type, std::uint8_t flags, CpuId cpu,
                       LogicalThreadId ltid, Tick localTs,
                       std::span<const std::uint8_t> payload) {
  if (closed_) throw UsageError("TraceSession: cut after close");
  // Part one of the paper's record cost: the enablement test.
  if (!classEnabled(type)) {
    ++stats_.eventsSuppressed;
    return;
  }
  if (localTs < lastLocalTs_) {
    throw UsageError("TraceSession: local timestamps must be non-decreasing");
  }
  lastLocalTs_ = localTs;

  // The live-ingest mirror fires before the wrap/buffer bookkeeping:
  // the sink sees full 64-bit time, so wrap records (skipped below via
  // the type test) would be redundant on that path.
  if (sink_ && type != EventType::kTimestampWrap) {
    RawEvent ev;
    ev.type = type;
    ev.flags = flags;
    ev.cpu = cpu;
    ev.ltid = ltid;
    ev.localTs = localTs;
    ev.payload = payload;
    sink_(ev);
  }

  // The on-disk timestamp is one 32-bit word; emit a wrap record whenever
  // the high word advances so readers can rebuild 64-bit time.
  const auto highWord = static_cast<std::uint32_t>(localTs >> 32);
  if (highWord != lastHighWord_) {
    lastHighWord_ = highWord;
    if (type != EventType::kTimestampWrap) {
      ByteWriter wrap;
      wrap.u32(highWord);
      ++stats_.wrapRecords;
      // Recurse once; the wrap record itself never needs another wrap.
      // Wrap records are transparent bookkeeping: readers consume them
      // silently, so they are not counted in eventsCut.
      cut(EventType::kTimestampWrap, 0, cpu, ltid, localTs, wrap.view());
      --stats_.eventsCut;
    }
  }

  // Part two: the buffer insertion.
  const bool extended = payload.size() > 254;
  if (payload.size() > 0xffff) {
    throw UsageError("TraceSession: payload longer than 65535 bytes");
  }
  const std::size_t headerSize =
      4 /*hookword*/ + 4 /*timestamp*/ + 4 /*context*/ + (extended ? 2 : 0);
  const std::size_t recordSize = headerSize + payload.size();
  if (used_ + recordSize > options_.bufferSizeBytes) flushBuffer();

  const std::uint8_t lengthByte =
      extended ? kExtendedLength : static_cast<std::uint8_t>(payload.size());
  const auto putHeader = [&](std::uint8_t* p) {
    storeLe(p, makeHookword(type, flags, lengthByte));
    storeLe(p + 4, static_cast<std::uint32_t>(localTs & 0xffffffffu));
    storeLe(p + 8, makeContext(cpu, ltid));
    if (extended) storeLe(p + 12, static_cast<std::uint16_t>(payload.size()));
  };
  if (recordSize <= room_) {
    // The common case: the whole record fits in the current block.
    putHeader(tail_);
    if (!payload.empty()) {
      std::memcpy(tail_ + headerSize, payload.data(), payload.size());
    }
    tail_ += recordSize;
    room_ -= recordSize;
    used_ += recordSize;
  } else {
    std::uint8_t header[14] = {};
    putHeader(header);
    append(std::span(header, headerSize));
    append(payload);
  }
  ++stats_.eventsCut;
}

void TraceSession::append(std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    if (room_ == 0) {
      // used_ sits on a block edge here; open the block that starts there.
      const std::size_t next = used_ / kBlockBytes;
      if (next == blocks_.size()) {
        blocks_.push_back(
            std::make_unique_for_overwrite<std::uint8_t[]>(kBlockBytes));
      }
      tail_ = blocks_[next].get();
      room_ = kBlockBytes;
    }
    const std::size_t n = std::min(bytes.size(), room_);
    std::memcpy(tail_, bytes.data(), n);
    tail_ += n;
    room_ -= n;
    used_ += n;
    bytes = bytes.subspan(n);
  }
}

void TraceSession::flushBuffer() {
  if (used_ == 0) return;
  std::vector<std::span<const std::uint8_t>> parts;
  parts.reserve(blocks_.size());
  for (std::size_t left = used_, b = 0; left > 0; ++b) {
    const std::size_t n = std::min(left, kBlockBytes);
    parts.emplace_back(blocks_[b].get(), n);
    left -= n;
  }
  file_.write(parts);
  stats_.bytesWritten += used_;
  ++stats_.bufferFlushes;
  used_ = 0;
  tail_ = nullptr;
  room_ = 0;
}

void TraceSession::close() {
  if (closed_) return;
  flushBuffer();
  file_.close();
  closed_ = true;
}

ByteWriter payloadThreadDispatch(LogicalThreadId oldTid,
                                 LogicalThreadId newTid, bool oldExited) {
  ByteWriter w;
  w.i32(oldTid);
  w.i32(newTid);
  w.u32(oldExited ? 1 : 0);
  return w;
}

ByteWriter payloadThreadInfo(LogicalThreadId ltid, std::int32_t pid,
                             std::int32_t systemTid, TaskId mpiTask,
                             ThreadType type) {
  ByteWriter w;
  w.i32(ltid);
  w.i32(pid);
  w.i32(systemTid);
  w.i32(mpiTask);
  w.u8(static_cast<std::uint8_t>(type));
  return w;
}

ByteWriter payloadGlobalClock(Tick globalNs, Tick localNs) {
  ByteWriter w;
  w.u64(globalNs);
  w.u64(localNs);
  return w;
}

ByteWriter payloadMarkerDef(std::uint32_t markerId, std::string_view name) {
  ByteWriter w;
  w.u32(markerId);
  w.lstring(name);
  return w;
}

ByteWriter payloadUserMarker(std::uint32_t markerId,
                             std::uint64_t instrAddr) {
  ByteWriter w;
  w.u32(markerId);
  w.u64(instrAddr);
  return w;
}

ByteWriter payloadNodeInfo(NodeId node, std::int32_t cpuCount) {
  ByteWriter w;
  w.i32(node);
  w.i32(cpuCount);
  return w;
}

ByteWriter payloadMpiSend(TaskId dest, std::int32_t tag, std::uint32_t bytes,
                          std::uint32_t seqno, std::int32_t comm) {
  ByteWriter w;
  w.i32(dest);
  w.i32(tag);
  w.u32(bytes);
  w.u32(seqno);
  w.i32(comm);
  return w;
}

ByteWriter payloadMpiRecvEntry(TaskId src, std::int32_t tag,
                               std::int32_t comm) {
  ByteWriter w;
  w.i32(src);
  w.i32(tag);
  w.i32(comm);
  return w;
}

ByteWriter payloadMpiRecvExit(TaskId src, std::int32_t tag,
                              std::uint32_t bytes, std::uint32_t seqno) {
  ByteWriter w;
  w.i32(src);
  w.i32(tag);
  w.u32(bytes);
  w.u32(seqno);
  return w;
}

ByteWriter payloadMpiCollective(std::uint32_t bytes, TaskId root,
                                std::int32_t comm) {
  ByteWriter w;
  w.u32(bytes);
  w.i32(root);
  w.i32(comm);
  return w;
}

}  // namespace ute
