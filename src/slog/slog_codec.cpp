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

/// Decodes the varints for records [first, count) at `pos` and hands
/// each to `fn(i, value)`. A block with exactly one byte left per value
/// and no continuation bit among them (one max-reduction) is a one-byte
/// lane and is widened straight; otherwise varints decode unchecked
/// while 10 bytes remain, then checked.
template <typename Fn>
void readVarints(std::span<const std::uint8_t> block, std::size_t& pos,
                 std::size_t first, std::size_t count, Fn&& fn) {
  const std::uint8_t* p = block.data() + pos;
  const std::size_t n = count - first;
  if (block.size() - pos == n && kernels::byteMax(p, n) < 0x80) {
    for (std::size_t i = 0; i < n; ++i) fn(first + i, std::uint64_t{p[i]});
    pos += n;
    return;
  }
  std::size_t i = first;
  for (; i < count && block.size() - pos >= 10; ++i) {
    fn(i, getVarintUnchecked(block, pos));
  }
  for (; i < count; ++i) fn(i, getVarint(block, pos));
}

/// Decodes one column block of `count` records, handing record i's
/// value to `store(i, value)`. All of a block's checks run here, on the
/// block alone.
template <typename Store>
void decodeColumn(std::span<const std::uint8_t> block, std::uint8_t encoding,
                  std::size_t count, Store&& store) {
  std::size_t pos = 0;
  switch (encoding) {
    case kEncVarint:
      readVarints(block, pos, 0, count, store);
      break;
    case kEncDelta: {
      if (count == 0) break;
      std::uint64_t prev = getVarint(block, pos);
      store(0, prev);
      readVarints(block, pos, 1, count,
                  [&](std::size_t i, std::uint64_t delta) {
                    prev += static_cast<std::uint64_t>(zigzagDecode(delta));
                    store(i, prev);
                  });
      break;
    }
    case kEncDict: {
      const std::uint64_t dictSize = getVarint(block, pos);
      // A dictionary can never usefully exceed the record count, and a
      // corrupt size must not drive a huge allocation.
      if (dictSize > count && dictSize > kMaxDictValues) {
        throw FormatError("columnar dictionary larger than the column");
      }
      std::array<std::uint64_t, kMaxDictValues> small{};
      std::vector<std::uint64_t> large;
      std::uint64_t* dict = small.data();
      if (dictSize > kMaxDictValues) {
        large.resize(static_cast<std::size_t>(dictSize));
        dict = large.data();
      }
      readVarints(block, pos, 0, static_cast<std::size_t>(dictSize),
                  [dict](std::size_t i, std::uint64_t v) { dict[i] = v; });
      // One-byte indexes: one max-reduction checks them all at once.
      const std::uint8_t* idx = block.data() + pos;
      if (block.size() - pos == count &&
          kernels::byteMax(idx, count) < std::min<std::uint64_t>(dictSize,
                                                                 0x80)) {
        for (std::size_t i = 0; i < count; ++i) store(i, dict[idx[i]]);
        pos += count;
        break;
      }
      readVarints(block, pos, 0, count,
                  [&](std::size_t i, std::uint64_t index) {
                    if (index >= dictSize) {
                      throw FormatError(
                          "columnar dictionary index out of range");
                    }
                    store(i, dict[index]);
                  });
      break;
    }
    default:
      throw FormatError("unknown column encoding " +
                        std::to_string(encoding));
  }
  if (pos != block.size()) {
    throw FormatError("column block has " +
                      std::to_string(block.size() - pos) +
                      " trailing bytes");
  }
}

/// Decodes a column block straight into one field of `recs`: narrowed,
/// or zigzag-decoded for the signed id columns.
template <auto Field, bool Zigzag = false, typename Rec>
void decodeInto(std::span<const std::uint8_t> block, std::uint8_t encoding,
                Rec* recs, std::size_t count) {
  using T = std::remove_reference_t<decltype(recs->*Field)>;
  decodeColumn(block, encoding, count, [recs](std::size_t i, std::uint64_t v) {
    if constexpr (Zigzag) {
      recs[i].*Field = static_cast<T>(zigzagDecode(v));
    } else {
      recs[i].*Field = static_cast<T>(v);
    }
  });
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
    out.intervals.resize(static_cast<std::size_t>(nIntervals));
    out.arrows.resize(static_cast<std::size_t>(nArrows));
    SlogInterval* iv = out.intervals.data();
    SlogArrow* ar = out.arrows.data();

    // Each known column decodes straight into its record field; ids
    // outside the known set are skipped by their recorded length.
    std::array<bool, kColBytes + 1> seen{};
    while (pos < payload.size()) {
      if (payload.size() - pos < 2) fail("truncated column header");
      const std::uint8_t id = payload[pos++];
      const std::uint8_t encoding = payload[pos++];
      const std::uint64_t len = getVarint(payload, pos);
      if (len > payload.size() - pos) fail("column block exceeds payload");
      const std::span<const std::uint8_t> block =
          payload.subspan(pos, static_cast<std::size_t>(len));
      pos += static_cast<std::size_t>(len);
      const bool known =
          id <= kColThread || (id >= kColSrcNode && id <= kColBytes);
      if (!known) continue;
      if (seen[id]) fail("duplicate column " + std::to_string(id));
      seen[id] = true;
      const std::size_t ni = out.intervals.size();
      const std::size_t na = out.arrows.size();
      switch (id) {
        case kColStateId:
          decodeInto<&SlogInterval::stateId>(block, encoding, iv, ni);
          break;
        case kColFlags: {
          std::uint64_t bits = 0;
          decodeColumn(block, encoding, ni,
                       [iv, &bits](std::size_t i, std::uint64_t v) {
                         bits |= v;
                         iv[i].bebits = static_cast<std::uint8_t>(v);
                         iv[i].pseudo = (v & 0x100) != 0;
                       });
          if (bits & ~0x1ffull) fail("interval flags column has unknown bits");
          break;
        }
        case kColStart:
          decodeInto<&SlogInterval::start>(block, encoding, iv, ni);
          break;
        case kColDura:
          decodeInto<&SlogInterval::dura>(block, encoding, iv, ni);
          break;
        case kColNode:
          decodeInto<&SlogInterval::node, true>(block, encoding, iv, ni);
          break;
        case kColCpu:
          decodeInto<&SlogInterval::cpu, true>(block, encoding, iv, ni);
          break;
        case kColThread:
          decodeInto<&SlogInterval::thread, true>(block, encoding, iv, ni);
          break;
        case kColSrcNode:
          decodeInto<&SlogArrow::srcNode, true>(block, encoding, ar, na);
          break;
        case kColSrcThread:
          decodeInto<&SlogArrow::srcThread, true>(block, encoding, ar, na);
          break;
        case kColSendTime:
          decodeInto<&SlogArrow::sendTime>(block, encoding, ar, na);
          break;
        case kColDstNode:
          decodeInto<&SlogArrow::dstNode, true>(block, encoding, ar, na);
          break;
        case kColDstThread:
          decodeInto<&SlogArrow::dstThread, true>(block, encoding, ar, na);
          break;
        case kColRecvTime:
          decodeInto<&SlogArrow::recvTime>(block, encoding, ar, na);
          break;
        case kColBytes:
          decodeInto<&SlogArrow::bytes>(block, encoding, ar, na);
          break;
      }
    }

    if (nIntervals > 0) {
      for (std::uint8_t id = kColStateId; id <= kColThread; ++id) {
        if (!seen[id]) fail("missing interval column " + std::to_string(id));
      }
    }
    if (nArrows > 0) {
      for (std::uint8_t id = kColSrcNode; id <= kColBytes; ++id) {
        if (!seen[id]) fail("missing arrow column " + std::to_string(id));
      }
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
