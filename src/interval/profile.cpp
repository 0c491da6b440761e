#include "interval/profile.h"

#include "support/file_io.h"

namespace ute {

namespace {
constexpr std::uint32_t kProfileMagic = 0x50455455;  // "UTEP"
constexpr std::uint32_t kProfileHeaderVersion = 1;
}  // namespace

std::string dataTypeName(DataType t) {
  switch (t) {
    case DataType::kU8: return "u8";
    case DataType::kU16: return "u16";
    case DataType::kU32: return "u32";
    case DataType::kU64: return "u64";
    case DataType::kI8: return "i8";
    case DataType::kI16: return "i16";
    case DataType::kI32: return "i32";
    case DataType::kI64: return "i64";
    case DataType::kF64: return "f64";
    case DataType::kChar: return "char";
  }
  return "?";
}

std::string bebitsName(Bebits b) {
  switch (b) {
    case Bebits::kComplete: return "complete";
    case Bebits::kBegin: return "begin";
    case Bebits::kContinuation: return "continuation";
    case Bebits::kEnd: return "end";
  }
  return "?";
}

std::uint32_t encodeFieldWord(const FieldSpec& f) {
  std::uint32_t counterCode = 0;
  switch (f.counterLen) {
    case 0: counterCode = 0; break;
    case 1: counterCode = 1; break;
    case 2: counterCode = 2; break;
    case 4: counterCode = 3; break;
    default:
      throw UsageError("invalid vector counter length " +
                       std::to_string(f.counterLen));
  }
  if (f.attr > 15) throw UsageError("field selection attribute must be 0..15");
  if (f.nameIndex > 0x0fff) throw UsageError("field name index overflow");
  return (static_cast<std::uint32_t>(f.isVector) << 31) |
         (counterCode << 29) |
         (static_cast<std::uint32_t>(f.type) << 24) |
         (static_cast<std::uint32_t>(f.elemLen) << 16) |
         (static_cast<std::uint32_t>(f.attr) << 12) |
         static_cast<std::uint32_t>(f.nameIndex);
}

FieldSpec decodeFieldWord(std::uint32_t word) {
  FieldSpec f;
  f.isVector = (word >> 31) != 0;
  switch ((word >> 29) & 0b11) {
    case 0: f.counterLen = 0; break;
    case 1: f.counterLen = 1; break;
    case 2: f.counterLen = 2; break;
    case 3: f.counterLen = 4; break;
  }
  f.type = static_cast<DataType>((word >> 24) & 0x1f);
  f.elemLen = static_cast<std::uint8_t>((word >> 16) & 0xff);
  f.attr = static_cast<std::uint8_t>((word >> 12) & 0x0f);
  f.nameIndex = static_cast<std::uint16_t>(word & 0x0fff);
  if (f.isVector && f.counterLen == 0) {
    throw FormatError("vector field without a counter length");
  }
  if (f.elemLen != dataTypeSize(f.type)) {
    throw FormatError("field element length disagrees with its data type");
  }
  return f;
}

const RecordSpec* Profile::find(IntervalType t) const {
  const auto it = specs_.find(t);
  return it == specs_.end() ? nullptr : &it->second;
}

std::optional<std::uint16_t> Profile::fieldNameIndex(
    std::string_view name) const {
  for (std::size_t i = 0; i < fieldNames_.size(); ++i) {
    if (fieldNames_[i] == name) return static_cast<std::uint16_t>(i);
  }
  return std::nullopt;
}

ByteWriter Profile::encode() const {
  ByteWriter w;
  w.u32(kProfileMagic);
  w.u32(versionId_);
  w.u32(kProfileHeaderVersion);
  w.u16(static_cast<std::uint16_t>(recordNames_.size()));
  for (const auto& n : recordNames_) w.lstring(n);
  w.u16(static_cast<std::uint16_t>(fieldNames_.size()));
  for (const auto& n : fieldNames_) w.lstring(n);
  w.u16(static_cast<std::uint16_t>(specs_.size()));
  for (const auto& [type, spec] : specs_) {
    w.u32(type);
    w.u16(spec.nameIndex);
    w.u8(0);  // reserved (Figure 3)
    w.u8(static_cast<std::uint8_t>(spec.fields.size()));
    for (const FieldSpec& f : spec.fields) w.u32(encodeFieldWord(f));
  }
  return w;
}

Profile Profile::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (r.u32() != kProfileMagic) throw FormatError("not a profile file");
  Profile p;
  p.versionId_ = r.u32();
  if (r.u32() != kProfileHeaderVersion) {
    throw FormatError("unsupported profile header version");
  }
  const std::uint16_t nRecordNames = r.u16();
  p.recordNames_.reserve(nRecordNames);
  for (std::uint16_t i = 0; i < nRecordNames; ++i) {
    p.recordNames_.push_back(r.lstring());
  }
  const std::uint16_t nFieldNames = r.u16();
  p.fieldNames_.reserve(nFieldNames);
  for (std::uint16_t i = 0; i < nFieldNames; ++i) {
    p.fieldNames_.push_back(r.lstring());
  }
  const std::uint16_t nSpecs = r.u16();
  for (std::uint16_t i = 0; i < nSpecs; ++i) {
    RecordSpec spec;
    spec.intervalType = r.u32();
    spec.nameIndex = r.u16();
    r.u8();  // reserved
    const std::uint8_t nFields = r.u8();
    spec.fields.reserve(nFields);
    for (std::uint8_t f = 0; f < nFields; ++f) {
      FieldSpec fs = decodeFieldWord(r.u32());
      if (fs.nameIndex >= p.fieldNames_.size()) {
        throw FormatError("field name index out of range in profile");
      }
      spec.fields.push_back(fs);
    }
    if (spec.nameIndex >= p.recordNames_.size()) {
      throw FormatError("record name index out of range in profile");
    }
    p.specs_.emplace(spec.intervalType, std::move(spec));
  }
  if (!r.atEnd()) throw FormatError("trailing bytes in profile file");
  return p;
}

void Profile::writeFile(const std::string& path) const {
  writeWholeFile(path, encode().view());
}

Profile Profile::readFile(const std::string& path) {
  const auto bytes = readWholeFile(path);
  return decode(bytes);
}

std::string Profile::describe() const {
  std::string out = "profile version ";
  out += std::to_string(versionId_);
  out += ", ";
  out += std::to_string(specs_.size());
  out += " record types\n";
  for (const auto& [type, spec] : specs_) {
    out += "  ";
    out += recordName(spec);
    out += '/';
    out += bebitsName(intervalBebits(type));
    out += " (type ";
    out += std::to_string(type);
    out += "):";
    for (const FieldSpec& f : spec.fields) {
      out += ' ';
      out += fieldName(f);
      out += ':';
      out += dataTypeName(f.type);
      if (f.isVector) out += "[]";
      if (f.attr != 0) {
        out += '@';
        out += std::to_string(f.attr);
      }
    }
    out += '\n';
  }
  return out;
}

ProfileBuilder::ProfileBuilder(std::uint32_t versionId) {
  profile_.versionId_ = versionId;
}

std::uint16_t ProfileBuilder::internRecordName(const std::string& name) {
  const auto it = recordNameIndex_.find(name);
  if (it != recordNameIndex_.end()) return it->second;
  const auto idx = static_cast<std::uint16_t>(profile_.recordNames_.size());
  profile_.recordNames_.push_back(name);
  recordNameIndex_.emplace(name, idx);
  return idx;
}

std::uint16_t ProfileBuilder::internFieldName(const std::string& name) {
  const auto it = fieldNameIndex_.find(name);
  if (it != fieldNameIndex_.end()) return it->second;
  const auto idx = static_cast<std::uint16_t>(profile_.fieldNames_.size());
  if (idx > 0x0fff) throw UsageError("too many field names for a profile");
  profile_.fieldNames_.push_back(name);
  fieldNameIndex_.emplace(name, idx);
  return idx;
}

RecordSpec& ProfileBuilder::current() {
  if (!haveCurrent_) throw UsageError("no record() opened yet");
  return profile_.specs_.at(currentType_);
}

ProfileBuilder& ProfileBuilder::record(IntervalType type,
                                       const std::string& name) {
  RecordSpec spec;
  spec.intervalType = type;
  spec.nameIndex = internRecordName(name);
  const auto [it, inserted] = profile_.specs_.emplace(type, std::move(spec));
  if (!inserted) {
    throw UsageError("duplicate record spec for interval type " +
                     std::to_string(type));
  }
  currentType_ = type;
  haveCurrent_ = true;
  return *this;
}

ProfileBuilder& ProfileBuilder::scalar(const std::string& name, DataType type,
                                       std::uint8_t attr) {
  FieldSpec f;
  f.type = type;
  f.elemLen = dataTypeSize(type);
  f.attr = attr;
  f.nameIndex = internFieldName(name);
  if (current().fields.size() >= 255) {
    throw UsageError("record has too many fields");
  }
  current().fields.push_back(f);
  return *this;
}

ProfileBuilder& ProfileBuilder::vector(const std::string& name, DataType type,
                                       std::uint8_t counterLen,
                                       std::uint8_t attr) {
  FieldSpec f;
  f.isVector = true;
  f.counterLen = counterLen;
  f.type = type;
  f.elemLen = dataTypeSize(type);
  f.attr = attr;
  f.nameIndex = internFieldName(name);
  encodeFieldWord(f);  // validates counterLen / attr
  current().fields.push_back(f);
  return *this;
}

Profile ProfileBuilder::build() { return std::move(profile_); }

}  // namespace ute
