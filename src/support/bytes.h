// Little-endian byte-buffer encoding and decoding.
//
// Every on-disk format in this project (raw trace, profile, interval file,
// SLOG) is defined in terms of little-endian fixed-width integers; these two
// classes are the single implementation of that encoding. ByteWriter appends
// to a growable buffer, ByteReader consumes a read-only span with bounds
// checking (a short read throws FormatError rather than reading garbage).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/errors.h"

namespace ute {

/// The sizeof(T) bytes at `p` as a little-endian T. Spelled out as one
/// expression, which compilers fold into a single load (a loop of byte
/// shifts is not folded, inside a caller's loop or not).
template <typename T>
inline T loadLe(const std::uint8_t* p) {
  return [p]<std::size_t... I>(std::index_sequence<I...>) {
    return static_cast<T>(((static_cast<T>(p[I]) << (8 * I)) | ...));
  }(std::make_index_sequence<sizeof(T)>{});
}

/// Stores `v` as sizeof(T) little-endian bytes at `p`: loadLe's
/// counterpart, which compilers merge into a single store.
template <typename T>
inline void storeLe(std::uint8_t* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Appends little-endian scalars to an in-memory buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { putLe(v); }
  void u32(std::uint32_t v) { putLe(v); }
  void u64(std::uint64_t v) { putLe(v); }
  void i8(std::int8_t v) { u8(static_cast<std::uint8_t>(v)); }
  void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Writes a u16 length followed by the raw characters (no terminator).
  void lstring(std::string_view s);

  /// Overwrites previously written bytes in place (for offset back-patching).
  void patchU32(std::size_t pos, std::uint32_t v);
  void patchU64(std::size_t pos, std::uint64_t v);

  /// Reserves room for `n` bytes in all, so an encoder that knows its
  /// size grows the buffer once.
  void reserve(std::size_t n) { buf_.reserve(n); }

  std::size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }
  void clear() { buf_.clear(); }
  std::span<const std::uint8_t> view() const { return buf_; }
  /// The buffer itself, for encoders that append to it directly.
  std::vector<std::uint8_t>& buffer() { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  /// One growth per scalar. The explicit geometric reserve keeps GCC 12
  /// from losing track of the capacity inside resize() at -O3, where it
  /// reports a false -Wstringop-overflow on the zero fill.
  template <typename T>
  void putLe(T v) {
    const std::size_t at = buf_.size();
    if (buf_.capacity() - at < sizeof(T)) {
      buf_.reserve(std::max(2 * buf_.capacity(), at + sizeof(T)));
    }
    buf_.resize(at + sizeof(T));
    storeLe(buf_.data() + at, v);
  }

  std::vector<std::uint8_t> buf_;
};

/// Consumes little-endian scalars from a span; throws FormatError on
/// over-read so malformed files fail loudly instead of decoding noise.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return takeLe<std::uint8_t>(); }
  std::uint16_t u16() { return takeLe<std::uint16_t>(); }
  std::uint32_t u32() { return takeLe<std::uint32_t>(); }
  std::uint64_t u64() { return takeLe<std::uint64_t>(); }
  std::int8_t i8() { return static_cast<std::int8_t>(u8()); }
  std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  /// Counterpart of ByteWriter::lstring.
  std::string lstring();

  std::span<const std::uint8_t> bytes(std::size_t n);
  void skip(std::size_t n);

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool atEnd() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  T takeLe() {
    require(sizeof(T));
    const T v = loadLe<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  void require(std::size_t n) const {
    if (pos_ + n > data_.size()) truncated(n);
  }
  /// Throws the short-read FormatError. A [[noreturn]] call, unlike an
  /// inline throw, lets GCC's -Warray-bounds see that a read past the
  /// end never reaches loadLe.
  [[noreturn]] void truncated(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Reads a u32 element count and checks it against the bytes left
/// before anyone allocates for it: each element takes at least
/// `minBytesPerElement` (>= 1) bytes, so a count the input cannot hold
/// throws FormatError instead of reserving memory for a forged length.
std::uint32_t takeCount(ByteReader& r, std::size_t minBytesPerElement);

}  // namespace ute
