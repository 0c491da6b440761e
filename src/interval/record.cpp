#include "interval/record.h"

#include <cstring>

namespace ute {

namespace {

std::uint64_t leLoad(std::span<const std::uint8_t> data, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(data[i]) << (8 * i);
  }
  return v;
}

void leStore(std::span<std::uint8_t> data, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

RecordView RecordView::parse(std::span<const std::uint8_t> body) {
  if (body.size() < kCommonPrefixBytes) {
    throw FormatError("interval record shorter than its common prefix");
  }
  RecordView v;
  v.body = body;
  v.intervalType = static_cast<IntervalType>(leLoad(body.subspan(0, 4), 4));
  v.start = leLoad(body.subspan(4, 8), 8);
  v.dura = leLoad(body.subspan(12, 8), 8);
  v.cpu = static_cast<std::int32_t>(leLoad(body.subspan(20, 4), 4));
  v.node = static_cast<NodeId>(
      static_cast<std::int32_t>(leLoad(body.subspan(24, 4), 4)));
  v.thread = static_cast<LogicalThreadId>(
      static_cast<std::int32_t>(leLoad(body.subspan(28, 4), 4)));
  return v;
}

TimestampPair clockSyncPair(const RecordView& record) {
  if (record.body.size() < kCommonPrefixBytes + 8) {
    throw FormatError("short ClockSync record: " +
                      std::to_string(record.body.size()) + " bytes");
  }
  TimestampPair pair;
  pair.local = record.start;
  pair.global = leLoad(record.body.subspan(kCommonPrefixBytes, 8), 8);
  return pair;
}

void appendRecordBody(ByteWriter& out, IntervalType type, Tick start,
                      Tick dura, std::int32_t cpu, NodeId node,
                      LogicalThreadId thread,
                      std::span<const std::uint8_t> extra) {
  out.u32(type);
  out.u64(start);
  out.u64(dura);
  out.i32(cpu);
  out.i32(node);
  out.i32(thread);
  out.bytes(extra);
}

ByteWriter encodeRecordBody(IntervalType type, Tick start, Tick dura,
                            std::int32_t cpu, NodeId node,
                            LogicalThreadId thread,
                            std::span<const std::uint8_t> extra) {
  ByteWriter w;
  appendRecordBody(w, type, start, dura, cpu, node, thread, extra);
  return w;
}

std::size_t recordSizeOnDisk(std::size_t bodySize) {
  return bodySize + (bodySize > 255 ? 3 : 1);
}

void appendRecordWithLength(std::vector<std::uint8_t>& out,
                            std::span<const std::uint8_t> body) {
  if (body.size() > 0xffff) {
    throw UsageError("interval record body longer than 65535 bytes");
  }
  if (body.size() > 255) {
    // Zero length byte, then the true length in the next two bytes
    // (Section 2.3.2).
    out.push_back(0);
    out.push_back(static_cast<std::uint8_t>(body.size() & 0xff));
    out.push_back(static_cast<std::uint8_t>(body.size() >> 8));
  } else {
    out.push_back(static_cast<std::uint8_t>(body.size()));
  }
  out.insert(out.end(), body.begin(), body.end());
}

std::span<const std::uint8_t> readLengthPrefixedRecord(ByteReader& r) {
  if (r.atEnd()) return {};
  std::size_t len = r.u8();
  if (len == 0) len = r.u16();
  return r.bytes(len);
}

void patchRecordTimes(std::span<std::uint8_t> body, Tick start, Tick dura) {
  if (body.size() < kCommonPrefixBytes) {
    throw UsageError("record body too short to patch");
  }
  leStore(body.subspan(4, 8), start, 8);
  leStore(body.subspan(12, 8), dura, 8);
}

bool forEachField(
    const RecordSpec& spec, std::uint64_t mask,
    std::span<const std::uint8_t> body,
    const std::function<bool(const FieldSpec&, std::span<const std::uint8_t>,
                             std::uint32_t)>& fn) {
  std::size_t off = 0;
  for (const FieldSpec& f : spec.fields) {
    if (!f.selectedBy(mask)) continue;
    std::uint32_t count = 1;
    if (f.isVector) {
      if (off + f.counterLen > body.size()) return false;
      count = static_cast<std::uint32_t>(
          leLoad(body.subspan(off, f.counterLen), f.counterLen));
      off += f.counterLen;
    }
    const std::size_t dataLen =
        static_cast<std::size_t>(count) * f.elemLen;
    if (off + dataLen > body.size()) return false;
    if (!fn(f, body.subspan(off, dataLen), count)) return true;
    off += dataLen;
  }
  return true;
}

std::int64_t decodeScalar(DataType type, std::span<const std::uint8_t> data) {
  const std::size_t n = dataTypeSize(type);
  const std::uint64_t raw = leLoad(data, n);
  switch (type) {
    case DataType::kI8:
      return static_cast<std::int8_t>(raw);
    case DataType::kI16:
      return static_cast<std::int16_t>(raw);
    case DataType::kI32:
      return static_cast<std::int32_t>(raw);
    case DataType::kI64:
      return static_cast<std::int64_t>(raw);
    case DataType::kF64: {
      double d;
      std::memcpy(&d, &raw, sizeof d);
      return static_cast<std::int64_t>(d);
    }
    default:
      return static_cast<std::int64_t>(raw);
  }
}

double decodeScalarF64(DataType type, std::span<const std::uint8_t> data) {
  if (type == DataType::kF64) {
    const std::uint64_t raw = leLoad(data, 8);
    double d;
    std::memcpy(&d, &raw, sizeof d);
    return d;
  }
  return static_cast<double>(decodeScalar(type, data));
}

namespace {

/// Shared lookup: finds the field called `name` and hands its bytes to
/// `fn`. Returns false when the type/field is unknown or masked out.
template <typename Fn>
bool withFieldData(const Profile& profile, std::uint64_t mask,
                   const RecordView& record, std::string_view name, Fn&& fn) {
  const RecordSpec* spec = profile.find(record.intervalType);
  if (spec == nullptr) return false;
  const auto nameIdx = profile.fieldNameIndex(name);
  if (!nameIdx) return false;
  bool found = false;
  forEachField(*spec, mask, record.body,
               [&](const FieldSpec& f, std::span<const std::uint8_t> data,
                   std::uint32_t count) {
                 if (f.nameIndex != *nameIdx) return true;
                 found = true;
                 fn(f, data, count);
                 return false;
               });
  return found;
}

}  // namespace

std::optional<std::int64_t> getScalarByName(const Profile& profile,
                                            std::uint64_t mask,
                                            const RecordView& record,
                                            std::string_view name) {
  std::optional<std::int64_t> out;
  withFieldData(profile, mask, record, name,
                [&](const FieldSpec& f, std::span<const std::uint8_t> data,
                    std::uint32_t count) {
                  if (!f.isVector && count == 1) {
                    out = decodeScalar(f.type, data);
                  }
                });
  return out;
}

std::optional<double> getF64ByName(const Profile& profile, std::uint64_t mask,
                                   const RecordView& record,
                                   std::string_view name) {
  std::optional<double> out;
  withFieldData(profile, mask, record, name,
                [&](const FieldSpec& f, std::span<const std::uint8_t> data,
                    std::uint32_t count) {
                  if (!f.isVector && count == 1) {
                    out = decodeScalarF64(f.type, data);
                  }
                });
  return out;
}

std::optional<std::string> getStringByName(const Profile& profile,
                                           std::uint64_t mask,
                                           const RecordView& record,
                                           std::string_view name) {
  std::optional<std::string> out;
  withFieldData(profile, mask, record, name,
                [&](const FieldSpec& f, std::span<const std::uint8_t> data,
                    std::uint32_t) {
                  if (f.isVector && f.type == DataType::kChar) {
                    out = std::string(
                        reinterpret_cast<const char*>(data.data()),
                        data.size());
                  }
                });
  return out;
}

FieldAccessor::FieldAccessor(const Profile& profile, IntervalType type,
                             std::uint64_t mask, std::string_view name)
    : mask_(mask) {
  spec_ = profile.find(type);
  if (spec_ == nullptr) return;
  const auto nameIdx = profile.fieldNameIndex(name);
  if (!nameIdx) return;
  nameIndex_ = *nameIdx;
  std::size_t off = 0;
  bool fixed = true;
  for (const FieldSpec& f : spec_->fields) {
    if (!f.selectedBy(mask)) continue;
    if (f.nameIndex == nameIndex_ && !f.isVector) {
      present_ = true;
      fixedOffset_ = fixed;
      offset_ = off;
      type_ = f.type;
      elemLen_ = f.elemLen;
      return;
    }
    if (f.isVector) {
      fixed = false;  // offsets after this depend on the vector's length
    } else {
      off += f.elemLen;
    }
  }
}

std::optional<std::int64_t> FieldAccessor::get(const RecordView& record) const {
  if (!present_) return std::nullopt;
  if (fixedOffset_) {
    if (offset_ + elemLen_ > record.body.size()) return std::nullopt;
    return decodeScalar(type_, record.body.subspan(offset_, elemLen_));
  }
  // Slow path: a vector field precedes the target; walk the record.
  std::optional<std::int64_t> out;
  forEachField(*spec_, mask_, record.body,
               [&](const FieldSpec& f, std::span<const std::uint8_t> data,
                   std::uint32_t count) {
                 if (f.nameIndex != nameIndex_ || f.isVector || count != 1) {
                   return true;
                 }
                 out = decodeScalar(f.type, data);
                 return false;
               });
  return out;
}

}  // namespace ute
