#include "support/bytes.h"

#include <limits>

namespace ute {

void ByteWriter::lstring(std::string_view s) {
  if (s.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw UsageError("lstring: string longer than 65535 bytes");
  }
  u16(static_cast<std::uint16_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::patchU32(std::size_t pos, std::uint32_t v) {
  if (pos + 4 > buf_.size()) {
    throw UsageError("patchU32: position out of range");
  }
  storeLe(buf_.data() + pos, v);
}

void ByteWriter::patchU64(std::size_t pos, std::uint64_t v) {
  if (pos + 8 > buf_.size()) {
    throw UsageError("patchU64: position out of range");
  }
  storeLe(buf_.data() + pos, v);
}

std::string ByteReader::lstring() {
  const std::uint16_t n = u16();
  const auto raw = bytes(n);
  return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
}

void ByteReader::truncated(std::size_t n) const {
  throw FormatError("ByteReader: truncated input (need " + std::to_string(n) +
                    " bytes at offset " + std::to_string(pos_) + " of " +
                    std::to_string(data_.size()) + ")");
}

std::span<const std::uint8_t> ByteReader::bytes(std::size_t n) {
  require(n);
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::uint32_t takeCount(ByteReader& r, std::size_t minBytesPerElement) {
  const std::size_t at = r.pos();
  const std::uint32_t count = r.u32();
  if (count > r.remaining() / minBytesPerElement) {
    throw FormatError("count " + std::to_string(count) + " at offset " +
                      std::to_string(at) + " needs at least " +
                      std::to_string(minBytesPerElement) +
                      " bytes per element; " +
                      std::to_string(r.remaining()) + " bytes are left");
  }
  return count;
}

void ByteReader::skip(std::size_t n) {
  require(n);
  pos_ += n;
}

}  // namespace ute
