#include "slog/slog_codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>

#include "slog/kernels.h"
#include "support/errors.h"

namespace ute {

const char* frameEncodingName(FrameEncoding encoding) {
  switch (encoding) {
    case FrameEncoding::kRow: return "row";
    case FrameEncoding::kColumnar: return "columnar";
  }
  return "?";
}

namespace {

/// Bytes writeVarint spends on `v` (1..10).
constexpr std::size_t varintSize(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// Writes `v` as 1..10 LEB128 bytes at `p`; returns the end.
std::uint8_t* writeVarint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

}  // namespace

void putVarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + varintSize(v));
  writeVarint(out.data() + at, v);
}

std::uint64_t getVarint(std::span<const std::uint8_t> data,
                        std::size_t& pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 10; ++i) {
    if (pos >= data.size()) {
      throw FormatError("truncated varint at offset " + std::to_string(pos));
    }
    const std::uint8_t b = data[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) {
      // The 10th byte carries bits 63..69; anything above bit 63 means
      // the encoding does not fit in u64.
      if (i == 9 && b > 1) {
        throw FormatError("over-long varint at offset " +
                          std::to_string(pos - 1));
      }
      return v;
    }
  }
  throw FormatError("varint longer than 10 bytes at offset " +
                    std::to_string(pos));
}

namespace {

/// Column ids. Interval columns are < 16, arrow columns >= 16, so a
/// column's record count (nIntervals vs nArrows) follows from its id and
/// future formats can add ids without breaking this reader.
enum : std::uint8_t {
  kColStateId = 0,
  kColFlags = 1,  ///< bebits in bits 0..7, pseudo in bit 8
  kColStart = 2,
  kColDura = 3,
  kColNode = 4,
  kColCpu = 5,
  kColThread = 6,
  kColSrcNode = 16,
  kColSrcThread = 17,
  kColSendTime = 18,
  kColDstNode = 19,
  kColDstThread = 20,
  kColRecvTime = 21,
  kColBytes = 22,
};

/// Column block payload encodings.
enum : std::uint8_t {
  kEncVarint = 1,  ///< one varint per record
  kEncDelta = 2,   ///< first value plain, then zigzag varint deltas
  kEncDict = 3,    ///< varint dict size, dict values, per-record indexes
};

/// Dictionaries only pay for themselves on genuinely small-cardinality
/// columns; past this many distinct values the scan stops early.
constexpr std::size_t kMaxDictValues = 64;
// Every dictionary index then fits one varint byte.
static_assert(kMaxDictValues <= 0x80);

/// A delta column's value for record i > 0.
std::uint64_t deltaOf(std::uint64_t prev, std::uint64_t v) {
  return zigzagEncode(static_cast<std::int64_t>(v - prev));
}

/// A column's dictionary candidate: its distinct values in
/// first-appearance order. Values are found through an open-addressed
/// table of twice kMaxDictValues slots, not by scanning the dictionary.
class Dictionary {
 public:
  /// Adds `v` unless already present. False once the column has more
  /// than kMaxDictValues distinct values.
  bool add(std::uint64_t v) {
    const std::size_t h = slotOf(v);
    if (slots_[h] != 0) return true;
    if (size_ >= kMaxDictValues) return false;
    values_[size_++] = v;
    slots_[h] = static_cast<std::uint8_t>(size_);
    valueBytes_ += varintSize(v);
    return true;
  }

  /// Block payload size: the varint size, the values, one byte per index.
  std::size_t encodedSize(std::size_t records) const {
    return varintSize(size_) + valueBytes_ + records;
  }

  /// Writes the varint size and the values; returns the end.
  std::uint8_t* writeValues(std::uint8_t* p) const {
    p = writeVarint(p, size_);
    for (std::size_t i = 0; i < size_; ++i) p = writeVarint(p, values_[i]);
    return p;
  }

  /// The index (and one-byte varint) of a value add() accepted.
  std::uint8_t indexOf(std::uint64_t v) const {
    return static_cast<std::uint8_t>(slots_[slotOf(v)] - 1u);
  }

 private:
  static constexpr int kSlotBits = 7;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static_assert(kSlots >= 2 * kMaxDictValues);

  std::size_t slotOf(std::uint64_t v) const {
    std::size_t h = (v * 0x9e3779b97f4a7c15ull) >> (64 - kSlotBits);
    while (slots_[h] != 0 && values_[slots_[h] - 1u] != v) {
      h = (h + 1) & (kSlots - 1);
    }
    return h;
  }

  std::array<std::uint8_t, kSlots> slots_{};  ///< value index + 1; 0 = empty
  std::array<std::uint64_t, kMaxDictValues> values_{};
  std::size_t size_ = 0;
  std::size_t valueBytes_ = 0;  ///< varint bytes of values_[0, size_)
};

/// Emits one column block: u8 id, u8 encoding, varint length, payload.
/// Time columns are delta coded. Other columns deterministically pick
/// the smaller of plain varint and dictionary (dictionary in
/// first-appearance order; plain wins ties). Every candidate's size is
/// computed arithmetically and only the winner is written, straight
/// into `out`.
template <typename Rec, typename Get>
void emitColumn(std::uint8_t id, bool isTime, std::span<const Rec> recs,
                Get get, std::vector<std::uint8_t>& out) {
  const std::size_t n = recs.size();
  // Record i's value as the varint and delta encodings write it.
  const auto coded = [&](std::size_t i) {
    const std::uint64_t v = get(recs[i]);
    return isTime && i > 0 ? deltaOf(get(recs[i - 1]), v) : v;
  };
  std::size_t len = 0;
  Dictionary dict;
  bool dictFits = !isTime;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = coded(i);
    len += varintSize(v);
    dictFits = dictFits && dict.add(v);
  }
  std::uint8_t encoding = isTime ? kEncDelta : kEncVarint;
  if (dictFits && dict.encodedSize(n) < len) {
    encoding = kEncDict;
    len = dict.encodedSize(n);
  }

  const std::size_t at = out.size();
  out.resize(at + 2 + varintSize(len) + len);
  std::uint8_t* p = out.data() + at;
  *p++ = id;
  *p++ = encoding;
  p = writeVarint(p, len);
  if (encoding == kEncDict) {
    p = dict.writeValues(p);
    for (const Rec& r : recs) *p++ = dict.indexOf(get(r));
  } else {
    for (std::size_t i = 0; i < n; ++i) p = writeVarint(p, coded(i));
  }
}

std::uint64_t packFlags(const SlogInterval& r) {
  return static_cast<std::uint64_t>(r.bebits) |
         (r.pseudo ? 0x100ull : 0ull);
}

}  // namespace

void encodeColumnarFrame(std::span<const SlogInterval> intervals,
                         std::span<const SlogArrow> arrows,
                         std::vector<std::uint8_t>& out) {
  putVarint(out, intervals.size());
  putVarint(out, arrows.size());
  const auto column = [&](std::uint8_t id, bool isTime, auto&& get) {
    emitColumn(id, isTime, intervals, get, out);
  };
  const auto arrowColumn = [&](std::uint8_t id, bool isTime, auto&& get) {
    emitColumn(id, isTime, arrows, get, out);
  };

  if (!intervals.empty()) {
    column(kColStateId, false,
           [](const SlogInterval& r) { return std::uint64_t{r.stateId}; });
    column(kColFlags, false, packFlags);
    column(kColStart, true,
           [](const SlogInterval& r) { return std::uint64_t{r.start}; });
    column(kColDura, false,
           [](const SlogInterval& r) { return std::uint64_t{r.dura}; });
    column(kColNode, false,
           [](const SlogInterval& r) { return zigzagEncode(r.node); });
    column(kColCpu, false,
           [](const SlogInterval& r) { return zigzagEncode(r.cpu); });
    column(kColThread, false,
           [](const SlogInterval& r) { return zigzagEncode(r.thread); });
  }
  if (!arrows.empty()) {
    arrowColumn(kColSrcNode, false,
                [](const SlogArrow& a) { return zigzagEncode(a.srcNode); });
    arrowColumn(kColSrcThread, false, [](const SlogArrow& a) {
      return zigzagEncode(a.srcThread);
    });
    arrowColumn(kColSendTime, true,
                [](const SlogArrow& a) { return std::uint64_t{a.sendTime}; });
    arrowColumn(kColDstNode, false,
                [](const SlogArrow& a) { return zigzagEncode(a.dstNode); });
    arrowColumn(kColDstThread, false, [](const SlogArrow& a) {
      return zigzagEncode(a.dstThread);
    });
    arrowColumn(kColRecvTime, true,
                [](const SlogArrow& a) { return std::uint64_t{a.recvTime}; });
    arrowColumn(kColBytes, false,
                [](const SlogArrow& a) { return std::uint64_t{a.bytes}; });
  }
}

namespace {

/// getVarint without a bounds check per byte, for callers that know at
/// least 10 bytes remain at `pos`. Every malformed encoding (a 10th byte
/// that continues or carries more than bit 63) goes to getVarint, which
/// throws its message.
std::uint64_t getVarintUnchecked(std::span<const std::uint8_t> data,
                                 std::size_t& pos) {
  const std::uint8_t* p = data.data() + pos;
  std::uint64_t v = 0;
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t b = p[i];
    v |= (b & 0x7f) << (7 * i);
    if (b < 0x80) {
      if (i == 9 && b > 1) break;
      pos += static_cast<std::size_t>(i) + 1;
      return v;
    }
  }
  return getVarint(data, pos);
}

/// The chunk scan reads a 64-byte stop mask and then 8-byte words that
/// start anywhere in it, so it runs while 64 + 8 bytes remain.
constexpr std::size_t kChunkBytes = 64;
constexpr std::size_t kChunkMargin = kChunkBytes + 8;

/// Decodes `count` varints at `pos` into out[0, count). While
/// kChunkMargin bytes remain, the varints that end in the next 64 bytes
/// come off one stop mask (kernels.h): each one's 8-byte word is copied
/// out, and packVarintWords turns the words into values afterwards. A
/// varint of more than 8 bytes goes through getVarintUnchecked, which
/// keeps the over-long checks. The tail decodes unchecked while 10 bytes
/// remain, then checked.
void readVarints(std::span<const std::uint8_t> block, std::size_t& pos,
                 std::size_t count, std::uint64_t* out) {
  const std::uint8_t* const p = block.data();
  std::size_t at = pos;
  std::size_t i = 0;
  std::size_t packed = 0;  // out[packed, i) are words still to pack
  while (i < count && block.size() - at >= kChunkMargin) {
    std::uint64_t stops = kernels::stopMask64(p + at);
    // 64 bytes that end no varint: the tail loop rejects the first one.
    if (stops == 0) break;
    // The varints that end in this chunk, or as many as are still due.
    const std::size_t take = std::min<std::size_t>(
        static_cast<std::size_t>(std::popcount(stops)), count - i);
    const std::uint8_t* const chunk = p + at;
    unsigned start = 0;  // chunk offset of the next varint
    for (std::size_t t = 0; t < take; ++t) {
      // Bit 63 only tells the compiler the operand is never zero.
      const unsigned end =
          static_cast<unsigned>(std::countr_zero(stops | 1ull << 63)) + 1;
      if (end - start <= 8) [[likely]] {
        out[i + t] = loadLe<std::uint64_t>(chunk + start);
      } else {
        kernels::packVarintWords(out + packed, i + t - packed);
        std::size_t q = at + start;
        out[i + t] = getVarintUnchecked(block, q);
        packed = i + t + 1;
      }
      start = end;
      stops &= stops - 1;
    }
    i += take;
    at += start;
  }
  kernels::packVarintWords(out + packed, i - packed);
  for (; i < count && block.size() - at >= 10; ++i) {
    out[i] = getVarintUnchecked(block, at);
  }
  for (; i < count; ++i) out[i] = getVarint(block, at);
  pos = at;
}

/// Records per tile: 256 records of 40 bytes stay in L1 while every
/// column writes its field.
constexpr std::size_t kTileRecords = 256;

/// One column block's read state across the record tiles: its position,
/// a delta column's running value, a dictionary, and whether every value
/// left is one byte. begin() reads what precedes the values and judges
/// the one-byte lane with one max-reduction; read() decodes the next
/// tile's values; close() checks that the block was consumed exactly.
class ColumnCursor {
 public:
  void begin(std::span<const std::uint8_t> block, std::uint8_t encoding,
             std::size_t count) {
    block_ = block;
    encoding_ = encoding;
    std::size_t values = count;  // one-byte lane candidates after pos_
    switch (encoding) {
      case kEncVarint:
        break;
      case kEncDelta:
        if (count == 0) break;
        prev_ = getVarint(block, pos_);
        firstPending_ = true;
        values = count - 1;
        break;
      case kEncDict: {
        dictSize_ = getVarint(block, pos_);
        // A dictionary can never usefully exceed the record count, and a
        // corrupt size must not drive a huge allocation.
        if (dictSize_ > count && dictSize_ > kMaxDictValues) {
          throw FormatError("columnar dictionary larger than the column");
        }
        if (dictSize_ > kMaxDictValues) {
          large_.resize(static_cast<std::size_t>(dictSize_));
        }
        readVarints(block, pos_, static_cast<std::size_t>(dictSize_), dict());
        // One-byte indexes, all within the dictionary.
        oneByte_ = block.size() - pos_ == count &&
                   kernels::byteMax(block.data() + pos_, count) <
                       std::min<std::uint64_t>(dictSize_, 0x80);
        return;
      }
      default:
        throw FormatError("unknown column encoding " +
                          std::to_string(encoding));
    }
    oneByte_ = block.size() - pos_ == values &&
               kernels::byteMax(block.data() + pos_, values) < 0x80;
  }

  /// Hands the next `k` (<= kTileRecords) values to `store(j, value)`,
  /// j in [0, k), and returns their bitwise OR. Multi-byte varints decode
  /// into a local lane first, so the stores into the tile cannot alias
  /// the decoder's state.
  template <typename Store>
  std::uint64_t read(std::size_t k, Store store) {
    const std::uint8_t* const p = block_.data() + pos_;
    std::array<std::uint64_t, kTileRecords> lane;
    std::uint64_t seen = 0;
    switch (encoding_) {
      case kEncVarint:
        if (oneByte_) {
          for (std::size_t j = 0; j < k; ++j) {
            seen |= p[j];
            store(j, std::uint64_t{p[j]});
          }
          pos_ += k;
          break;
        }
        readVarints(block_, pos_, k, lane.data());
        for (std::size_t j = 0; j < k; ++j) {
          seen |= lane[j];
          store(j, lane[j]);
        }
        break;
      case kEncDelta: {
        std::uint64_t prev = prev_;
        std::size_t j = 0;
        if (firstPending_) {
          seen = prev;
          store(j++, prev);
          firstPending_ = false;
        }
        const std::size_t n = k - j;
        if (oneByte_) {
          for (std::size_t i = 0; i < n; ++i) lane[i] = p[i];
          pos_ += n;
        } else {
          readVarints(block_, pos_, n, lane.data());
        }
        for (std::size_t i = 0; i < n; ++i) {
          prev += static_cast<std::uint64_t>(zigzagDecode(lane[i]));
          seen |= prev;
          store(j + i, prev);
        }
        prev_ = prev;
        break;
      }
      case kEncDict: {
        const std::uint64_t* const dict = this->dict();
        if (oneByte_) {
          for (std::size_t j = 0; j < k; ++j) {
            const std::uint64_t v = dict[p[j]];
            seen |= v;
            store(j, v);
          }
          pos_ += k;
          break;
        }
        readVarints(block_, pos_, k, lane.data());
        std::uint64_t maxIndex = 0;
        for (std::size_t j = 0; j < k; ++j) {
          maxIndex = std::max(maxIndex, lane[j]);
        }
        if (k > 0 && maxIndex >= dictSize_) {
          throw FormatError("columnar dictionary index out of range");
        }
        for (std::size_t j = 0; j < k; ++j) {
          const std::uint64_t v = dict[lane[j]];
          seen |= v;
          store(j, v);
        }
        break;
      }
    }
    return seen;
  }

  void close() const {
    if (pos_ != block_.size()) {
      throw FormatError("column block has " +
                        std::to_string(block_.size() - pos_) +
                        " trailing bytes");
    }
  }

 private:
  std::uint64_t* dict() {
    return large_.empty() ? small_.data() : large_.data();
  }

  std::span<const std::uint8_t> block_;
  std::size_t pos_ = 0;
  std::uint8_t encoding_ = 0;
  bool oneByte_ = false;
  bool firstPending_ = false;  ///< a delta column's first value is unstored
  std::uint64_t prev_ = 0;     ///< a delta column's last value
  std::uint64_t dictSize_ = 0;
  std::array<std::uint64_t, kMaxDictValues> small_;  ///< written before read
  std::vector<std::uint64_t> large_;
};

/// A store writing value v into field `Field` of tile[j]: narrowed, or
/// zigzag-decoded for the signed id columns.
template <auto Field, bool Zigzag = false, typename Rec>
auto intoField(Rec* tile) {
  using T = std::remove_reference_t<decltype(tile->*Field)>;
  return [tile](std::size_t j, std::uint64_t v) {
    if constexpr (Zigzag) {
      tile[j].*Field = static_cast<T>(zigzagDecode(v));
    } else {
      tile[j].*Field = static_cast<T>(v);
    }
  };
}

/// Grows `recs` to `n` records one tile at a time, handing each fresh
/// tile to `fill(tile, k)`.
template <typename Rec, typename Fill>
void fillTiles(std::vector<Rec>& recs, std::size_t n, Fill&& fill) {
  recs.clear();
  recs.reserve(n);
  for (std::size_t first = 0; first < n; first += kTileRecords) {
    const std::size_t k = std::min(kTileRecords, n - first);
    recs.resize(first + k);
    fill(recs.data() + first, k);
  }
}

/// Interval columns take cursor slots 0..6 (their ids), arrow columns
/// slots 7..13.
constexpr std::size_t kArrowSlot = kColThread + 1;
constexpr std::size_t kColumns = kArrowSlot + (kColBytes - kColSrcNode + 1);
constexpr std::size_t slotOf(std::uint8_t id) {
  return id <= kColThread ? id : kArrowSlot + id - kColSrcNode;
}

}  // namespace

void decodeColumnarFrame(std::span<const std::uint8_t> payload,
                         SlogFrameData& out, const std::string& context) {
  const auto fail = [](const std::string& what) -> void {
    throw FormatError("corrupt columnar SLOG frame: " + what);
  };
  try {
    std::size_t pos = 0;
    const std::uint64_t nIntervals = getVarint(payload, pos);
    const std::uint64_t nArrows = getVarint(payload, pos);
    // Every present column spends at least one byte per record, so a
    // claimed record count beyond the payload size is corruption — and
    // must be rejected before it sizes any allocation.
    if (nIntervals > payload.size() || nArrows > payload.size()) {
      fail("record count exceeds payload size");
    }
    const std::size_t ni = static_cast<std::size_t>(nIntervals);
    const std::size_t na = static_cast<std::size_t>(nArrows);

    // Every block header first: the column set is checked before any
    // value is decoded. Ids outside the known set are skipped by their
    // recorded length.
    struct Block {
      std::span<const std::uint8_t> bytes;
      std::uint8_t encoding = 0;
      bool seen = false;
    };
    std::array<Block, kColumns> blocks{};
    while (pos < payload.size()) {
      if (payload.size() - pos < 2) fail("truncated column header");
      const std::uint8_t id = payload[pos++];
      const std::uint8_t encoding = payload[pos++];
      const std::uint64_t len = getVarint(payload, pos);
      if (len > payload.size() - pos) fail("column block exceeds payload");
      const std::span<const std::uint8_t> bytes =
          payload.subspan(pos, static_cast<std::size_t>(len));
      pos += static_cast<std::size_t>(len);
      const bool known =
          id <= kColThread || (id >= kColSrcNode && id <= kColBytes);
      if (!known) continue;
      Block& b = blocks[slotOf(id)];
      if (b.seen) fail("duplicate column " + std::to_string(id));
      b = {bytes, encoding, true};
    }
    if (ni > 0) {
      for (std::uint8_t id = kColStateId; id <= kColThread; ++id) {
        if (!blocks[slotOf(id)].seen) {
          fail("missing interval column " + std::to_string(id));
        }
      }
    }
    if (na > 0) {
      for (std::uint8_t id = kColSrcNode; id <= kColBytes; ++id) {
        if (!blocks[slotOf(id)].seen) {
          fail("missing arrow column " + std::to_string(id));
        }
      }
    }

    std::array<ColumnCursor, kColumns> cursors;
    for (std::size_t s = 0; s < kColumns; ++s) {
      if (blocks[s].seen) {
        cursors[s].begin(blocks[s].bytes, blocks[s].encoding,
                         s < kArrowSlot ? ni : na);
      }
    }
    const auto c = [&cursors](std::uint8_t id) -> ColumnCursor& {
      return cursors[slotOf(id)];
    };
    fillTiles(out.intervals, ni, [&](SlogInterval* tile, std::size_t k) {
      c(kColStateId).read(k, intoField<&SlogInterval::stateId>(tile));
      const std::uint64_t flags =
          c(kColFlags).read(k, [tile](std::size_t j, std::uint64_t v) {
            tile[j].bebits = static_cast<std::uint8_t>(v);
            tile[j].pseudo = (v & 0x100) != 0;
          });
      if (flags & ~0x1ffull) fail("interval flags column has unknown bits");
      c(kColStart).read(k, intoField<&SlogInterval::start>(tile));
      c(kColDura).read(k, intoField<&SlogInterval::dura>(tile));
      c(kColNode).read(k, intoField<&SlogInterval::node, true>(tile));
      c(kColCpu).read(k, intoField<&SlogInterval::cpu, true>(tile));
      c(kColThread).read(k, intoField<&SlogInterval::thread, true>(tile));
    });

    fillTiles(out.arrows, na, [&](SlogArrow* tile, std::size_t k) {
      c(kColSrcNode).read(k, intoField<&SlogArrow::srcNode, true>(tile));
      c(kColSrcThread).read(k, intoField<&SlogArrow::srcThread, true>(tile));
      c(kColSendTime).read(k, intoField<&SlogArrow::sendTime>(tile));
      c(kColDstNode).read(k, intoField<&SlogArrow::dstNode, true>(tile));
      c(kColDstThread).read(k, intoField<&SlogArrow::dstThread, true>(tile));
      c(kColRecvTime).read(k, intoField<&SlogArrow::recvTime>(tile));
      c(kColBytes).read(k, intoField<&SlogArrow::bytes>(tile));
    });
    for (std::size_t s = 0; s < kColumns; ++s) {
      if (blocks[s].seen) cursors[s].close();
    }
  } catch (const FormatError& e) {
    if (context.empty()) throw;
    throw FormatError(e.what() + context);
  }
}

void putRowInterval(ByteWriter& w, const SlogInterval& r) {
  w.u32(r.stateId);
  w.u8(r.bebits);
  w.u8(r.pseudo ? 1 : 0);
  w.u64(r.start);
  w.u64(r.dura);
  w.i32(r.node);
  w.i32(r.cpu);
  w.i32(r.thread);
}

SlogInterval takeRowInterval(ByteReader& r) {
  SlogInterval rec;
  rec.stateId = r.u32();
  rec.bebits = r.u8();
  rec.pseudo = r.u8() != 0;
  rec.start = r.u64();
  rec.dura = r.u64();
  rec.node = r.i32();
  rec.cpu = r.i32();
  rec.thread = r.i32();
  return rec;
}

void putRowArrow(ByteWriter& w, const SlogArrow& a) {
  w.i32(a.srcNode);
  w.i32(a.srcThread);
  w.u64(a.sendTime);
  w.i32(a.dstNode);
  w.i32(a.dstThread);
  w.u64(a.recvTime);
  w.u32(a.bytes);
}

SlogArrow takeRowArrow(ByteReader& r) {
  SlogArrow a;
  a.srcNode = r.i32();
  a.srcThread = r.i32();
  a.sendTime = r.u64();
  a.dstNode = r.i32();
  a.dstThread = r.i32();
  a.recvTime = r.u64();
  a.bytes = r.u32();
  return a;
}

void putFrameIndexEntry(ByteWriter& w, const SlogFrameIndexEntry& e) {
  w.u64(e.offset);
  w.u32(e.sizeBytes);
  w.u32(e.records);
  w.u64(e.timeStart);
  w.u64(e.timeEnd);
}

SlogFrameIndexEntry takeFrameIndexEntry(ByteReader& r) {
  SlogFrameIndexEntry e;
  e.offset = r.u64();
  e.sizeBytes = r.u32();
  e.records = r.u32();
  e.timeStart = r.u64();
  e.timeEnd = r.u64();
  return e;
}

void putStateDef(ByteWriter& w, const SlogStateDef& s) {
  w.u32(s.id);
  w.u32(s.rgb);
  w.lstring(s.name);
}

SlogStateDef takeStateDef(ByteReader& r) {
  SlogStateDef s;
  s.id = r.u32();
  s.rgb = r.u32();
  s.name = r.lstring();
  return s;
}

void putPreviewHead(ByteWriter& w, const SlogPreview& p) {
  w.u64(p.origin);
  w.u64(p.binWidth);
  w.u32(p.bins);
}

void putPreviewRows(ByteWriter& w, const SlogPreview& p) {
  for (const std::vector<double>& row : p.perStateBinTime) {
    for (double v : row) w.f64(v);
  }
}

SlogPreview takePreviewHead(ByteReader& r) {
  SlogPreview p;
  p.origin = r.u64();
  p.binWidth = r.u64();
  p.bins = r.u32();
  return p;
}

void takePreviewRows(ByteReader& r, std::uint32_t stateCount,
                     SlogPreview& p) {
  // Every writer keeps at least one bin, so each row takes 8+ bytes.
  if (stateCount > 0 &&
      (p.bins == 0 || p.bins > r.remaining() / sizeof(double) / stateCount)) {
    throw FormatError("preview of " + std::to_string(stateCount) +
                      " states x " + std::to_string(p.bins) +
                      " bins does not fit in the " +
                      std::to_string(r.remaining()) + " bytes left");
  }
  p.perStateBinTime.reserve(stateCount);
  for (std::uint32_t s = 0; s < stateCount; ++s) {
    std::vector<double> row(p.bins);
    for (double& v : row) v = r.f64();
    p.perStateBinTime.push_back(std::move(row));
  }
}

}  // namespace ute
