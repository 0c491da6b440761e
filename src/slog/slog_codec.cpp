#include "slog/slog_codec.h"

#include <array>

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

void putVarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
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

void encodePlainLane(const std::vector<std::uint64_t>& lane,
                     std::vector<std::uint8_t>& out) {
  for (std::uint64_t v : lane) putVarint(out, v);
}

void encodeDeltaLane(const std::vector<std::uint64_t>& lane,
                     std::vector<std::uint8_t>& out) {
  if (lane.empty()) return;
  putVarint(out, lane[0]);
  for (std::size_t i = 1; i < lane.size(); ++i) {
    putVarint(out, zigzagEncode(static_cast<std::int64_t>(lane[i] -
                                                          lane[i - 1])));
  }
}

/// The dictionary candidate: `lane`'s distinct values in first-appearance
/// order, and each record's index into them. False past kMaxDictValues
/// distinct values. Values are found through an open-addressed table of
/// twice that many slots, not by scanning the dictionary.
bool buildDictionary(const std::vector<std::uint64_t>& lane,
                     std::vector<std::uint64_t>& dict,
                     std::vector<std::uint32_t>& indexes) {
  constexpr int kSlotBits = 7;
  constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static_assert(kSlots >= 2 * kMaxDictValues);
  std::array<std::uint8_t, kSlots> slots{};  ///< dict index + 1; 0 = empty
  indexes.reserve(lane.size());
  for (const std::uint64_t v : lane) {
    std::size_t h = (v * 0x9e3779b97f4a7c15ull) >> (64 - kSlotBits);
    while (slots[h] != 0 && dict[slots[h] - 1u] != v) {
      h = (h + 1) & (kSlots - 1);
    }
    if (slots[h] == 0) {
      if (dict.size() >= kMaxDictValues) return false;
      dict.push_back(v);
      slots[h] = static_cast<std::uint8_t>(dict.size());
    }
    indexes.push_back(slots[h] - 1u);
  }
  return true;
}

/// Emits one column block: u8 id, u8 encoding, varint length, payload.
/// Non-time columns deterministically pick the smaller of plain-varint
/// and dictionary (dictionary in first-appearance order; plain wins ties).
void emitColumn(std::uint8_t id, bool isTime,
                const std::vector<std::uint64_t>& lane,
                std::vector<std::uint8_t>& out,
                std::vector<std::uint8_t>& scratch) {
  scratch.clear();
  std::uint8_t encoding = kEncVarint;
  if (isTime) {
    encoding = kEncDelta;
    encodeDeltaLane(lane, scratch);
  } else {
    encodePlainLane(lane, scratch);
    // Dictionary candidate: distinct values in first-appearance order.
    std::vector<std::uint64_t> dict;
    std::vector<std::uint32_t> indexes;
    if (buildDictionary(lane, dict, indexes) && !lane.empty()) {
      std::vector<std::uint8_t> dictBytes;
      putVarint(dictBytes, dict.size());
      for (std::uint64_t v : dict) putVarint(dictBytes, v);
      for (std::uint32_t idx : indexes) putVarint(dictBytes, idx);
      if (dictBytes.size() < scratch.size()) {
        encoding = kEncDict;
        scratch.swap(dictBytes);
      }
    }
  }
  out.push_back(id);
  out.push_back(encoding);
  putVarint(out, scratch.size());
  out.insert(out.end(), scratch.begin(), scratch.end());
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

  std::vector<std::uint64_t> lane;
  std::vector<std::uint8_t> scratch;
  const auto column = [&](std::uint8_t id, bool isTime, auto&& get) {
    lane.clear();
    if (id < 16) {
      lane.reserve(intervals.size());
      for (const SlogInterval& r : intervals) lane.push_back(get(r));
    }
    emitColumn(id, isTime, lane, out, scratch);
  };
  const auto arrowColumn = [&](std::uint8_t id, bool isTime, auto&& get) {
    lane.clear();
    lane.reserve(arrows.size());
    for (const SlogArrow& a : arrows) lane.push_back(get(a));
    emitColumn(id, isTime, lane, out, scratch);
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

void decodeLane(std::span<const std::uint8_t> block, std::uint8_t encoding,
                std::size_t count, std::vector<std::uint64_t>& lane) {
  lane.resize(count);
  std::size_t pos = 0;
  switch (encoding) {
    case kEncVarint: {
      for (std::size_t i = 0; i < count; ++i) lane[i] = getVarint(block, pos);
      break;
    }
    case kEncDelta: {
      if (count > 0) {
        lane[0] = getVarint(block, pos);
        for (std::size_t i = 1; i < count; ++i) {
          lane[i] = lane[i - 1] +
                    static_cast<std::uint64_t>(
                        zigzagDecode(getVarint(block, pos)));
        }
      }
      break;
    }
    case kEncDict: {
      const std::uint64_t dictSize = getVarint(block, pos);
      // A dictionary can never usefully exceed the record count, and a
      // corrupt size must not drive a huge allocation.
      if (dictSize > count && dictSize > kMaxDictValues) {
        throw FormatError("columnar dictionary larger than the column");
      }
      std::vector<std::uint64_t> dict(static_cast<std::size_t>(dictSize));
      for (std::uint64_t& v : dict) v = getVarint(block, pos);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t idx = getVarint(block, pos);
        if (idx >= dictSize) {
          throw FormatError("columnar dictionary index out of range");
        }
        lane[i] = dict[static_cast<std::size_t>(idx)];
      }
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

}  // namespace

void decodeColumnarFrame(std::span<const std::uint8_t> payload,
                         SlogFrameData& out, const std::string& context) {
  const auto fail = [&context](const std::string& what) -> void {
    throw FormatError("corrupt columnar SLOG frame: " + what + context);
  };
  try {
    out.intervals.clear();
    out.arrows.clear();
    std::size_t pos = 0;
    const std::uint64_t nIntervals = getVarint(payload, pos);
    const std::uint64_t nArrows = getVarint(payload, pos);
    // Every present column spends at least one byte per record, so a
    // claimed record count beyond the payload size is corruption — and
    // must be rejected before it sizes any allocation.
    if (nIntervals > payload.size() || nArrows > payload.size()) {
      fail("record count exceeds payload size");
    }

    // Lanes indexed by column id; ids outside the known set are skipped
    // by their recorded length.
    std::array<std::vector<std::uint64_t>, 23> lanes;
    std::array<bool, 23> seen{};
    const auto known = [](std::uint8_t id) {
      return id <= kColThread || (id >= kColSrcNode && id <= kColBytes);
    };
    while (pos < payload.size()) {
      if (payload.size() - pos < 2) fail("truncated column header");
      const std::uint8_t id = payload[pos++];
      const std::uint8_t encoding = payload[pos++];
      const std::uint64_t len = getVarint(payload, pos);
      if (len > payload.size() - pos) fail("column block exceeds payload");
      const std::span<const std::uint8_t> block =
          payload.subspan(pos, static_cast<std::size_t>(len));
      pos += static_cast<std::size_t>(len);
      if (!known(id)) continue;
      if (seen[id]) fail("duplicate column " + std::to_string(id));
      const std::size_t count = static_cast<std::size_t>(
          id < 16 ? nIntervals : nArrows);
      decodeLane(block, encoding, count, lanes[id]);
      seen[id] = true;
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

    // Column-to-struct transpose: one tight loop per field over its lane
    // (the autovectorizable shape the columnar layout exists for).
    out.intervals.resize(static_cast<std::size_t>(nIntervals));
    if (nIntervals > 0) {
      SlogInterval* iv = out.intervals.data();
      const std::size_t n = out.intervals.size();
      if (kernels::laneOr(lanes[kColFlags].data(), n) & ~0x1ffull) {
        fail("interval flags column has unknown bits");
      }
      const std::uint64_t* lane = lanes[kColStateId].data();
      for (std::size_t i = 0; i < n; ++i) {
        iv[i].stateId = static_cast<std::uint32_t>(lane[i]);
      }
      lane = lanes[kColFlags].data();
      for (std::size_t i = 0; i < n; ++i) {
        iv[i].bebits = static_cast<std::uint8_t>(lane[i]);
        iv[i].pseudo = (lane[i] & 0x100) != 0;
      }
      lane = lanes[kColStart].data();
      for (std::size_t i = 0; i < n; ++i) iv[i].start = lane[i];
      lane = lanes[kColDura].data();
      for (std::size_t i = 0; i < n; ++i) iv[i].dura = lane[i];
      lane = lanes[kColNode].data();
      for (std::size_t i = 0; i < n; ++i) {
        iv[i].node = static_cast<std::int32_t>(zigzagDecode(lane[i]));
      }
      lane = lanes[kColCpu].data();
      for (std::size_t i = 0; i < n; ++i) {
        iv[i].cpu = static_cast<std::int32_t>(zigzagDecode(lane[i]));
      }
      lane = lanes[kColThread].data();
      for (std::size_t i = 0; i < n; ++i) {
        iv[i].thread = static_cast<std::int32_t>(zigzagDecode(lane[i]));
      }
    }

    out.arrows.resize(static_cast<std::size_t>(nArrows));
    if (nArrows > 0) {
      SlogArrow* ar = out.arrows.data();
      const std::size_t n = out.arrows.size();
      const std::uint64_t* lane = lanes[kColSrcNode].data();
      for (std::size_t i = 0; i < n; ++i) {
        ar[i].srcNode = static_cast<std::int32_t>(zigzagDecode(lane[i]));
      }
      lane = lanes[kColSrcThread].data();
      for (std::size_t i = 0; i < n; ++i) {
        ar[i].srcThread = static_cast<std::int32_t>(zigzagDecode(lane[i]));
      }
      lane = lanes[kColSendTime].data();
      for (std::size_t i = 0; i < n; ++i) ar[i].sendTime = lane[i];
      lane = lanes[kColDstNode].data();
      for (std::size_t i = 0; i < n; ++i) {
        ar[i].dstNode = static_cast<std::int32_t>(zigzagDecode(lane[i]));
      }
      lane = lanes[kColDstThread].data();
      for (std::size_t i = 0; i < n; ++i) {
        ar[i].dstThread = static_cast<std::int32_t>(zigzagDecode(lane[i]));
      }
      lane = lanes[kColRecvTime].data();
      for (std::size_t i = 0; i < n; ++i) ar[i].recvTime = lane[i];
      lane = lanes[kColBytes].data();
      for (std::size_t i = 0; i < n; ++i) {
        ar[i].bytes = static_cast<std::uint32_t>(lane[i]);
      }
    }
  } catch (const FormatError& e) {
    if (context.empty()) throw;
    std::string what = e.what();
    if (what.find(context) != std::string::npos) throw;
    throw FormatError(what + context);
  }
}

void encodeRowInterval(std::vector<std::uint8_t>& out,
                       const SlogInterval& r) {
  const auto le32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  const auto le64 = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  out.push_back(0);  // kind: interval
  le32(r.stateId);
  out.push_back(r.bebits);
  out.push_back(r.pseudo ? 1 : 0);
  le64(r.start);
  le64(r.dura);
  le32(static_cast<std::uint32_t>(r.node));
  le32(static_cast<std::uint32_t>(r.cpu));
  le32(static_cast<std::uint32_t>(r.thread));
}

void encodeRowArrow(std::vector<std::uint8_t>& out, const SlogArrow& a) {
  const auto le32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  const auto le64 = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  out.push_back(1);  // kind: arrow
  le32(static_cast<std::uint32_t>(a.srcNode));
  le32(static_cast<std::uint32_t>(a.srcThread));
  le64(a.sendTime);
  le32(static_cast<std::uint32_t>(a.dstNode));
  le32(static_cast<std::uint32_t>(a.dstThread));
  le64(a.recvTime);
  le32(a.bytes);
}

}  // namespace ute
