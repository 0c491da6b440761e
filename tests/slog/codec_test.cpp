// The v2 columnar frame codec, hammered from four sides:
//   - property round-trip: random frames (seeded ute::Rng, so failures
//     replay) encode to v2 and decode back to the exact original;
//   - varint/zigzag edge cases, including truncated and over-long input
//     (the UBSan CI lane runs these too — the codec must be clean under
//     -fsanitize=undefined, which is why zigzag is all-unsigned);
//   - fuzz: every truncation of a valid payload and single-bit flips
//     must either throw FormatError or decode to *some* frame — never
//     crash, hang, or read out of bounds;
//   - differential: a copy of the previous lane-based codec is the
//     oracle; the encoder must write its bytes, and the decoder must
//     accept or reject exactly what it does, on truncations, bit flips
//     and hand-built edge cases.
// Cross-version guarantees (a v1 file and a v2 file of the same records
// decode identically) are covered at writer/reader level below.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <limits>
#include <memory>

#include "interval/standard_profile.h"
#include "slog/slog_codec.h"
#include "slog/slog_reader.h"
#include "slog/slog_writer.h"
#include "support/errors.h"
#include "support/rng.h"

#include <unistd.h>

namespace ute {
namespace {

bool operator==(const SlogInterval& a, const SlogInterval& b) {
  return a.stateId == b.stateId && a.bebits == b.bebits &&
         a.pseudo == b.pseudo && a.start == b.start && a.dura == b.dura &&
         a.node == b.node && a.cpu == b.cpu && a.thread == b.thread;
}

bool operator==(const SlogArrow& a, const SlogArrow& b) {
  return a.srcNode == b.srcNode && a.srcThread == b.srcThread &&
         a.sendTime == b.sendTime && a.dstNode == b.dstNode &&
         a.dstThread == b.dstThread && a.recvTime == b.recvTime &&
         a.bytes == b.bytes;
}

std::string tempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

TEST(SlogCodec, VarintEdgeValuesRoundTrip) {
  const std::uint64_t values[] = {
      0,    1,     127,        128,        16383,    16384,
      ~0ull >> 1,  ~0ull,      0x80808080, 1ull << 63};
  for (const std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    putVarint(buf, v);
    ASSERT_LE(buf.size(), 10u);
    std::size_t pos = 0;
    EXPECT_EQ(getVarint(buf, pos), v) << v;
    EXPECT_EQ(pos, buf.size());
  }
  // Encoded sizes pin the LEB128 grouping.
  std::vector<std::uint8_t> buf;
  putVarint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  putVarint(buf, 128);
  EXPECT_EQ(buf.size(), 2u);
  buf.clear();
  putVarint(buf, ~0ull);
  EXPECT_EQ(buf.size(), 10u);
}

TEST(SlogCodec, VarintRejectsTruncatedAndOverlong) {
  // Truncated: continuation bit set, no next byte.
  for (const std::uint64_t v :
       {std::uint64_t{300}, std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    std::vector<std::uint8_t> buf;
    putVarint(buf, v);
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
      std::size_t pos = 0;
      EXPECT_THROW(getVarint(std::span(buf.data(), cut), pos), FormatError);
    }
  }
  // Over-long: 11 continuation bytes can never be a valid u64.
  const std::vector<std::uint8_t> overlong(11, 0x80);
  std::size_t pos = 0;
  EXPECT_THROW(getVarint(overlong, pos), FormatError);
  // A 10th byte with more than the single remaining payload bit set
  // encodes > 64 bits.
  std::vector<std::uint8_t> wide(9, 0x80);
  wide.push_back(0x02);
  pos = 0;
  EXPECT_THROW(getVarint(wide, pos), FormatError);
}

TEST(SlogCodec, ZigzagIsAnInvolutionAtTheEdges) {
  const std::int64_t values[] = {0,  -1, 1,  -2, 2,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v) << v;
  }
  // Small magnitudes stay small — the property delta encoding relies on.
  EXPECT_EQ(zigzagEncode(0), 0u);
  EXPECT_EQ(zigzagEncode(-1), 1u);
  EXPECT_EQ(zigzagEncode(1), 2u);
  EXPECT_EQ(zigzagEncode(-2), 3u);
}

SlogInterval randomInterval(Rng& rng) {
  SlogInterval r;
  // Mix small-cardinality (dictionary-friendly) and wide draws so both
  // encoder paths run.
  r.stateId = rng.below(2) == 0 ? static_cast<std::uint32_t>(rng.below(4))
                                : static_cast<std::uint32_t>(rng.next());
  r.bebits = static_cast<std::uint8_t>(rng.below(4));
  r.pseudo = rng.below(8) == 0;
  r.start = rng.next() >> static_cast<int>(rng.below(40));
  r.dura = rng.next() >> static_cast<int>(rng.below(50));
  r.node = static_cast<NodeId>(static_cast<std::int32_t>(rng.next()));
  r.cpu = static_cast<std::int32_t>(rng.next());
  r.thread =
      static_cast<LogicalThreadId>(static_cast<std::int32_t>(rng.next()));
  return r;
}

SlogArrow randomArrow(Rng& rng) {
  SlogArrow a;
  a.srcNode = static_cast<NodeId>(rng.below(64));
  a.srcThread = static_cast<LogicalThreadId>(
      static_cast<std::int32_t>(rng.next()));
  a.sendTime = rng.next() >> static_cast<int>(rng.below(30));
  a.dstNode = static_cast<NodeId>(static_cast<std::int32_t>(rng.next()));
  a.dstThread = static_cast<LogicalThreadId>(rng.below(8));
  a.recvTime = rng.next() >> static_cast<int>(rng.below(30));
  a.bytes = static_cast<std::uint32_t>(rng.next());
  return a;
}

/// The property: encode(v2) then decode == identity, for arbitrary
/// record mixes (empty, intervals only, arrows only, both, extremes).
TEST(SlogCodec, RandomFramesRoundTripExactly) {
  Rng rng(20260809);
  for (int round = 0; round < 200; ++round) {
    SlogFrameData frame;
    const std::size_t nIntervals =
        round % 7 == 0 ? 0 : static_cast<std::size_t>(rng.below(300));
    const std::size_t nArrows =
        round % 5 == 0 ? 0 : static_cast<std::size_t>(rng.below(100));
    for (std::size_t i = 0; i < nIntervals; ++i) {
      frame.intervals.push_back(randomInterval(rng));
    }
    for (std::size_t i = 0; i < nArrows; ++i) {
      frame.arrows.push_back(randomArrow(rng));
    }
    std::vector<std::uint8_t> payload;
    encodeColumnarFrame(frame.intervals, frame.arrows, payload);

    SlogFrameData decoded;
    decodeColumnarFrame(payload, decoded);
    ASSERT_EQ(decoded.intervals.size(), frame.intervals.size())
        << "round " << round;
    ASSERT_EQ(decoded.arrows.size(), frame.arrows.size()) << "round " << round;
    for (std::size_t i = 0; i < frame.intervals.size(); ++i) {
      ASSERT_TRUE(decoded.intervals[i] == frame.intervals[i])
          << "round " << round << " interval " << i;
    }
    for (std::size_t i = 0; i < frame.arrows.size(); ++i) {
      ASSERT_TRUE(decoded.arrows[i] == frame.arrows[i])
          << "round " << round << " arrow " << i;
    }

    // Determinism: re-encoding the decoded frame reproduces the bytes.
    std::vector<std::uint8_t> again;
    encodeColumnarFrame(decoded.intervals, decoded.arrows, again);
    EXPECT_EQ(again, payload) << "round " << round;
  }
}

TEST(SlogCodec, EmptyFrameIsTwoZeroCounts) {
  std::vector<std::uint8_t> payload;
  encodeColumnarFrame({}, {}, payload);
  EXPECT_EQ(payload, (std::vector<std::uint8_t>{0, 0}));
  SlogFrameData decoded;
  decodeColumnarFrame(payload, decoded);
  EXPECT_TRUE(decoded.intervals.empty());
  EXPECT_TRUE(decoded.arrows.empty());
}

/// A representative frame payload for the fuzz sweeps: enough records
/// for every column kind (delta timestamps, dictionary-friendly ids,
/// zigzag lanes) to appear.
std::vector<std::uint8_t> fuzzPayload() {
  Rng rng(77);
  SlogFrameData frame;
  for (int i = 0; i < 64; ++i) frame.intervals.push_back(randomInterval(rng));
  for (int i = 0; i < 24; ++i) frame.arrows.push_back(randomArrow(rng));
  std::vector<std::uint8_t> payload;
  encodeColumnarFrame(frame.intervals, frame.arrows, payload);
  return payload;
}

TEST(SlogCodec, EveryTruncationThrowsFormatError) {
  const std::vector<std::uint8_t> payload = fuzzPayload();
  for (std::size_t n = 0; n < payload.size(); ++n) {
    SlogFrameData out;
    EXPECT_THROW(
        decodeColumnarFrame(std::span(payload.data(), n), out, "(fuzz)"),
        FormatError)
        << "truncated to " << n << " of " << payload.size();
  }
}

TEST(SlogCodec, BitFlipsNeverCrash) {
  const std::vector<std::uint8_t> payload = fuzzPayload();
  std::size_t threw = 0;
  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutant = payload;
      mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
      SlogFrameData out;
      try {
        decodeColumnarFrame(mutant, out, "(fuzz)");
        // A flip inside a value lane legitimately decodes to a different
        // frame; the contract is typed failure or a well-formed result.
      } catch (const FormatError&) {
        ++threw;
      }
    }
  }
  // Structure bytes (counts, block headers, lengths) must be validated,
  // so a healthy fraction of flips is rejected outright.
  EXPECT_GT(threw, payload.size());
}

// --- differential: the codec against the row-lane codec it replaced -------
//
// The oracle below is the previous v2 codec, kept in behaviour: the
// encoder materializes every candidate lane and keeps the smaller (its
// dictionary found by a plain linear scan), the decoder fills one u64
// lane per column and transposes at the end.
// The production codec must write the same bytes and accept or reject
// exactly the payloads the oracle does.

namespace oracle {

enum : std::uint8_t {
  kColStateId = 0,
  kColFlags = 1,
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

enum : std::uint8_t { kEncVarint = 1, kEncDelta = 2, kEncDict = 3 };

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

bool buildDictionary(const std::vector<std::uint64_t>& lane,
                     std::vector<std::uint64_t>& dict,
                     std::vector<std::uint32_t>& indexes) {
  for (const std::uint64_t v : lane) {
    std::size_t idx = 0;
    while (idx < dict.size() && dict[idx] != v) ++idx;
    if (idx == dict.size()) {
      if (dict.size() >= kMaxDictValues) return false;
      dict.push_back(v);
    }
    indexes.push_back(static_cast<std::uint32_t>(idx));
  }
  return true;
}

void emitColumn(std::uint8_t id, bool isTime,
                const std::vector<std::uint64_t>& lane,
                std::vector<std::uint8_t>& out) {
  std::vector<std::uint8_t> scratch;
  std::uint8_t encoding = kEncVarint;
  if (isTime) {
    encoding = kEncDelta;
    encodeDeltaLane(lane, scratch);
  } else {
    encodePlainLane(lane, scratch);
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

void encode(const SlogFrameData& frame, std::vector<std::uint8_t>& out) {
  putVarint(out, frame.intervals.size());
  putVarint(out, frame.arrows.size());
  const auto column = [&](std::uint8_t id, bool isTime, auto&& get) {
    std::vector<std::uint64_t> lane;
    for (const SlogInterval& r : frame.intervals) lane.push_back(get(r));
    emitColumn(id, isTime, lane, out);
  };
  const auto arrowColumn = [&](std::uint8_t id, bool isTime, auto&& get) {
    std::vector<std::uint64_t> lane;
    for (const SlogArrow& a : frame.arrows) lane.push_back(get(a));
    emitColumn(id, isTime, lane, out);
  };
  if (!frame.intervals.empty()) {
    column(kColStateId, false,
           [](const SlogInterval& r) { return std::uint64_t{r.stateId}; });
    column(kColFlags, false, [](const SlogInterval& r) {
      return std::uint64_t{r.bebits} | (r.pseudo ? 0x100ull : 0ull);
    });
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
  if (!frame.arrows.empty()) {
    arrowColumn(kColSrcNode, false,
                [](const SlogArrow& a) { return zigzagEncode(a.srcNode); });
    arrowColumn(kColSrcThread, false,
                [](const SlogArrow& a) { return zigzagEncode(a.srcThread); });
    arrowColumn(kColSendTime, true,
                [](const SlogArrow& a) { return std::uint64_t{a.sendTime}; });
    arrowColumn(kColDstNode, false,
                [](const SlogArrow& a) { return zigzagEncode(a.dstNode); });
    arrowColumn(kColDstThread, false,
                [](const SlogArrow& a) { return zigzagEncode(a.dstThread); });
    arrowColumn(kColRecvTime, true,
                [](const SlogArrow& a) { return std::uint64_t{a.recvTime}; });
    arrowColumn(kColBytes, false,
                [](const SlogArrow& a) { return std::uint64_t{a.bytes}; });
  }
}

void decodeLane(std::span<const std::uint8_t> block, std::uint8_t encoding,
                std::size_t count, std::vector<std::uint64_t>& lane) {
  lane.resize(count);
  std::size_t pos = 0;
  switch (encoding) {
    case kEncVarint:
      for (std::size_t i = 0; i < count; ++i) lane[i] = getVarint(block, pos);
      break;
    case kEncDelta:
      if (count > 0) {
        lane[0] = getVarint(block, pos);
        for (std::size_t i = 1; i < count; ++i) {
          lane[i] = lane[i - 1] + static_cast<std::uint64_t>(
                                      zigzagDecode(getVarint(block, pos)));
        }
      }
      break;
    case kEncDict: {
      const std::uint64_t dictSize = getVarint(block, pos);
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
      throw FormatError("unknown column encoding");
  }
  if (pos != block.size()) throw FormatError("trailing bytes");
}

void decode(std::span<const std::uint8_t> payload, SlogFrameData& out) {
  out.intervals.clear();
  out.arrows.clear();
  std::size_t pos = 0;
  const std::uint64_t nIntervals = getVarint(payload, pos);
  const std::uint64_t nArrows = getVarint(payload, pos);
  if (nIntervals > payload.size() || nArrows > payload.size()) {
    throw FormatError("record count exceeds payload size");
  }
  std::array<std::vector<std::uint64_t>, 23> lanes;
  std::array<bool, 23> seen{};
  while (pos < payload.size()) {
    if (payload.size() - pos < 2) throw FormatError("truncated header");
    const std::uint8_t id = payload[pos++];
    const std::uint8_t encoding = payload[pos++];
    const std::uint64_t len = getVarint(payload, pos);
    if (len > payload.size() - pos) throw FormatError("block too long");
    const std::span<const std::uint8_t> block =
        payload.subspan(pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    if (!(id <= kColThread || (id >= kColSrcNode && id <= kColBytes))) {
      continue;
    }
    if (seen[id]) throw FormatError("duplicate column");
    decodeLane(block, encoding,
               static_cast<std::size_t>(id < 16 ? nIntervals : nArrows),
               lanes[id]);
    seen[id] = true;
  }
  for (std::uint8_t id = kColStateId; id <= kColThread; ++id) {
    if (nIntervals > 0 && !seen[id]) throw FormatError("missing column");
  }
  for (std::uint8_t id = kColSrcNode; id <= kColBytes; ++id) {
    if (nArrows > 0 && !seen[id]) throw FormatError("missing column");
  }
  for (std::size_t i = 0; i < nIntervals; ++i) {
    const std::uint64_t flags = lanes[kColFlags][i];
    if (flags & ~0x1ffull) throw FormatError("unknown flag bits");
    SlogInterval r;
    r.stateId = static_cast<std::uint32_t>(lanes[kColStateId][i]);
    r.bebits = static_cast<std::uint8_t>(flags);
    r.pseudo = (flags & 0x100) != 0;
    r.start = lanes[kColStart][i];
    r.dura = lanes[kColDura][i];
    r.node = static_cast<NodeId>(zigzagDecode(lanes[kColNode][i]));
    r.cpu = static_cast<std::int32_t>(zigzagDecode(lanes[kColCpu][i]));
    r.thread =
        static_cast<LogicalThreadId>(zigzagDecode(lanes[kColThread][i]));
    out.intervals.push_back(r);
  }
  for (std::size_t i = 0; i < nArrows; ++i) {
    SlogArrow a;
    a.srcNode = static_cast<NodeId>(zigzagDecode(lanes[kColSrcNode][i]));
    a.srcThread =
        static_cast<LogicalThreadId>(zigzagDecode(lanes[kColSrcThread][i]));
    a.sendTime = lanes[kColSendTime][i];
    a.dstNode = static_cast<NodeId>(zigzagDecode(lanes[kColDstNode][i]));
    a.dstThread =
        static_cast<LogicalThreadId>(zigzagDecode(lanes[kColDstThread][i]));
    a.recvTime = lanes[kColRecvTime][i];
    a.bytes = static_cast<std::uint32_t>(lanes[kColBytes][i]);
    out.arrows.push_back(a);
  }
}

}  // namespace oracle

bool sameFrame(const SlogFrameData& a, const SlogFrameData& b) {
  if (a.intervals.size() != b.intervals.size() ||
      a.arrows.size() != b.arrows.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    if (!(a.intervals[i] == b.intervals[i])) return false;
  }
  for (std::size_t i = 0; i < a.arrows.size(); ++i) {
    if (!(a.arrows[i] == b.arrows[i])) return false;
  }
  return true;
}

/// The differential property on one payload: the codec and the oracle
/// both decode it to equal frames, or both throw FormatError.
::testing::AssertionResult decodersAgree(
    std::span<const std::uint8_t> payload) {
  SlogFrameData got;
  SlogFrameData want;
  bool gotThrew = false;
  bool wantThrew = false;
  std::string why;
  try {
    decodeColumnarFrame(payload, got);
  } catch (const FormatError& e) {
    gotThrew = true;
    why = e.what();
  }
  try {
    oracle::decode(payload, want);
  } catch (const FormatError&) {
    wantThrew = true;
  }
  if (gotThrew != wantThrew) {
    return ::testing::AssertionFailure()
           << (gotThrew ? "codec threw (" + why + "), oracle decoded"
                        : std::string("codec decoded, oracle threw"));
  }
  if (!gotThrew && !sameFrame(got, want)) {
    return ::testing::AssertionFailure() << "decoded frames differ";
  }
  return ::testing::AssertionSuccess();
}

/// Frames whose columns mostly hold small values, so one-byte lanes,
/// one-byte dictionary indexes and dictionary-winning columns all occur.
SlogFrameData smallValueFrame(Rng& rng, std::size_t nIntervals,
                              std::size_t nArrows) {
  SlogFrameData frame;
  const std::uint64_t wide[] = {1ull << 40, 3ull << 50, 77};
  Tick t = 1000;
  for (std::size_t i = 0; i < nIntervals; ++i) {
    SlogInterval r;
    r.stateId = static_cast<std::uint32_t>(rng.below(6));
    r.bebits = static_cast<std::uint8_t>(rng.below(4));
    r.pseudo = rng.below(16) == 0;
    t += rng.below(40);
    r.start = t;
    r.dura = wide[rng.below(3)];
    r.node = static_cast<NodeId>(rng.below(3));
    r.cpu = 0;
    r.thread = static_cast<LogicalThreadId>(rng.below(60));
    frame.intervals.push_back(r);
  }
  for (std::size_t i = 0; i < nArrows; ++i) {
    SlogArrow a;
    a.srcNode = static_cast<NodeId>(rng.below(4));
    a.srcThread = 0;
    a.sendTime = t + rng.below(50);
    a.dstNode = static_cast<NodeId>(rng.below(4));
    a.dstThread = static_cast<LogicalThreadId>(rng.below(2));
    a.recvTime = a.sendTime + rng.below(50);
    a.bytes = static_cast<std::uint32_t>(wide[rng.below(3)] >> 20);
    frame.arrows.push_back(a);
  }
  return frame;
}

/// The seeded random frames of RandomFramesRoundTripExactly, then the
/// small-value frames.
std::vector<SlogFrameData> differentialFrames() {
  std::vector<SlogFrameData> frames;
  Rng rng(20260809);
  for (int round = 0; round < 200; ++round) {
    SlogFrameData frame;
    const std::size_t nIntervals =
        round % 7 == 0 ? 0 : static_cast<std::size_t>(rng.below(300));
    const std::size_t nArrows =
        round % 5 == 0 ? 0 : static_cast<std::size_t>(rng.below(100));
    for (std::size_t i = 0; i < nIntervals; ++i) {
      frame.intervals.push_back(randomInterval(rng));
    }
    for (std::size_t i = 0; i < nArrows; ++i) {
      frame.arrows.push_back(randomArrow(rng));
    }
    frames.push_back(std::move(frame));
  }
  Rng small(4242);
  for (int round = 0; round < 40; ++round) {
    frames.push_back(smallValueFrame(
        small, static_cast<std::size_t>(small.below(200)),
        static_cast<std::size_t>(small.below(80))));
  }
  return frames;
}

TEST(SlogCodecDiff, EncoderWritesTheOraclesBytes) {
  const std::vector<SlogFrameData> frames = differentialFrames();
  std::size_t dictColumns = 0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    std::vector<std::uint8_t> got;
    std::vector<std::uint8_t> want;
    encodeColumnarFrame(frames[f].intervals, frames[f].arrows, got);
    oracle::encode(frames[f], want);
    ASSERT_EQ(got, want) << "frame " << f;
    // Appending keeps what the buffer already held.
    std::vector<std::uint8_t> appended = {0xab, 0xcd};
    encodeColumnarFrame(frames[f].intervals, frames[f].arrows, appended);
    ASSERT_EQ(std::vector<std::uint8_t>(appended.begin() + 2, appended.end()),
              want)
        << "frame " << f;
    SlogFrameData decoded;
    decodeColumnarFrame(got, decoded);
    ASSERT_TRUE(sameFrame(decoded, frames[f])) << "frame " << f;
    // Count dictionary blocks by walking the block headers.
    std::size_t pos = 0;
    getVarint(got, pos);
    getVarint(got, pos);
    while (pos < got.size()) {
      dictColumns += got[pos + 1] == oracle::kEncDict ? 1 : 0;
      pos += 2;
      const std::uint64_t len = getVarint(got, pos);
      pos += static_cast<std::size_t>(len);
    }
  }
  // Both the plain and the dictionary choice are exercised.
  EXPECT_GT(dictColumns, 40u);
}

TEST(SlogCodecDiff, DecoderAgreesOnEveryTruncationAndBitFlip) {
  const std::vector<SlogFrameData> frames = differentialFrames();
  std::size_t checked = 0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    std::vector<std::uint8_t> payload;
    encodeColumnarFrame(frames[f].intervals, frames[f].arrows, payload);
    ASSERT_TRUE(decodersAgree(payload)) << "frame " << f;
    // Every truncation and bit flip of the payloads up to 640 bytes
    // (all of them would take minutes under the sanitizers).
    if (payload.size() > 640) continue;
    for (std::size_t n = 0; n < payload.size(); ++n) {
      ASSERT_TRUE(decodersAgree(std::span(payload.data(), n)))
          << "frame " << f << " truncated to " << n;
    }
    for (std::size_t byte = 0; byte < payload.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> mutant = payload;
        mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
        ASSERT_TRUE(decodersAgree(mutant))
            << "frame " << f << " byte " << byte << " bit " << bit;
        ++checked;
      }
    }
  }
  const std::vector<std::uint8_t> fuzz = fuzzPayload();
  for (std::size_t byte = 0; byte < fuzz.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutant = fuzz;
      mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
      ASSERT_TRUE(decodersAgree(mutant)) << "byte " << byte << " bit " << bit;
    }
  }
  EXPECT_GT(checked, 50000u);
}

/// One column block: u8 id, u8 encoding, varint length, payload.
void putBlock(std::vector<std::uint8_t>& out, std::uint8_t id,
              std::uint8_t encoding, const std::vector<std::uint8_t>& body) {
  out.push_back(id);
  out.push_back(encoding);
  putVarint(out, body.size());
  out.insert(out.end(), body.begin(), body.end());
}

/// A payload of `count` intervals, no arrows: column `id` holds `body`
/// under `encoding`, every other interval column is plain zeros.
std::vector<std::uint8_t> intervalPayload(
    std::size_t count, std::uint8_t id, std::uint8_t encoding,
    const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> out;
  putVarint(out, count);
  putVarint(out, 0);
  for (std::uint8_t c = oracle::kColStateId; c <= oracle::kColThread; ++c) {
    if (c == id) {
      putBlock(out, c, encoding, body);
    } else {
      putBlock(out, c, oracle::kEncVarint,
               std::vector<std::uint8_t>(count, 0));
    }
  }
  return out;
}

std::vector<std::uint8_t> varints(std::initializer_list<std::uint64_t> vs) {
  std::vector<std::uint8_t> out;
  for (const std::uint64_t v : vs) putVarint(out, v);
  return out;
}

SlogFrameData decodeOk(const std::vector<std::uint8_t>& payload) {
  EXPECT_TRUE(decodersAgree(payload));
  SlogFrameData out;
  decodeColumnarFrame(payload, out);
  return out;
}

TEST(SlogCodecDiff, VarintEndingAtTheFastPathBoundary) {
  // Leading one-byte values put the last, 10-byte varint at exactly the
  // 10 bytes the unchecked path needs, and one byte past it.
  for (const std::size_t lead : {0, 1, 2}) {
    std::vector<std::uint8_t> body(lead, 5);
    putVarint(body, ~0ull);
    const std::size_t count = lead + 1;
    const SlogFrameData out =
        decodeOk(intervalPayload(count, oracle::kColDura, oracle::kEncVarint,
                                 body));
    ASSERT_EQ(out.intervals.size(), count);
    EXPECT_EQ(out.intervals.back().dura, ~0ull) << lead;

    // The same position with a 10th byte above 1: over-long, rejected.
    std::vector<std::uint8_t> wide = body;
    wide.back() = 0x02;
    const std::vector<std::uint8_t> bad =
        intervalPayload(count, oracle::kColDura, oracle::kEncVarint, wide);
    EXPECT_TRUE(decodersAgree(bad));
    SlogFrameData sink;
    EXPECT_THROW(decodeColumnarFrame(bad, sink), FormatError);

    // Ten continuation bytes where the varint should end.
    std::vector<std::uint8_t> endless(lead, 5);
    endless.insert(endless.end(), 10, 0x80);
    const std::vector<std::uint8_t> bad2 =
        intervalPayload(count, oracle::kColDura, oracle::kEncVarint, endless);
    EXPECT_TRUE(decodersAgree(bad2));
    EXPECT_THROW(decodeColumnarFrame(bad2, sink), FormatError);

    // A 10-byte varint cut to 9 at the very end of the payload, in an
    // exact-size buffer so the sanitizer lanes see any read past it.
    std::vector<std::uint8_t> cut(lead, 5);
    cut.insert(cut.end(), 9, 0xff);
    const std::vector<std::uint8_t> tail =
        intervalPayload(count, oracle::kColThread, oracle::kEncVarint, cut);
    const auto exact = std::make_unique<std::uint8_t[]>(tail.size());
    std::copy(tail.begin(), tail.end(), exact.get());
    const std::span<const std::uint8_t> exactSpan(exact.get(), tail.size());
    EXPECT_TRUE(decodersAgree(exactSpan));
    EXPECT_THROW(decodeColumnarFrame(exactSpan, sink), FormatError);
  }
}

TEST(SlogCodecDiff, OneByteLaneWithAContinuationBitIsTruncated) {
  // As many bytes as records, so the block looks like a one-byte lane,
  // but its last byte says "more follows".
  for (const std::uint8_t enc : {oracle::kEncVarint, oracle::kEncDelta}) {
    const std::vector<std::uint8_t> payload = intervalPayload(
        4, oracle::kColStart, enc, std::vector<std::uint8_t>{1, 2, 3, 0x81});
    EXPECT_TRUE(decodersAgree(payload));
    SlogFrameData out;
    EXPECT_THROW(decodeColumnarFrame(payload, out), FormatError);
  }
  // The same lane without the continuation bit decodes.
  const SlogFrameData ok = decodeOk(intervalPayload(
      4, oracle::kColStart, oracle::kEncVarint, {1, 2, 3, 0x7f}));
  EXPECT_EQ(ok.intervals[3].start, 0x7fu);
}

TEST(SlogCodecDiff, DictionaryLargerThan64ButWithinTheRecordCount) {
  // 70 distinct values over 100 records: indexes up to 69 still take one
  // byte each; 200 over 200 needs two-byte indexes.
  for (const std::size_t distinct : {std::size_t{70}, std::size_t{200}}) {
    const std::size_t count = std::max<std::size_t>(100, distinct);
    std::vector<std::uint8_t> body;
    putVarint(body, distinct);
    for (std::size_t v = 0; v < distinct; ++v) putVarint(body, 1000 + v * v);
    for (std::size_t i = 0; i < count; ++i) putVarint(body, (i * 7) % distinct);
    const SlogFrameData out = decodeOk(
        intervalPayload(count, oracle::kColDura, oracle::kEncDict, body));
    ASSERT_EQ(out.intervals.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t v = (i * 7) % distinct;
      ASSERT_EQ(out.intervals[i].dura, 1000 + v * v) << i;
    }
  }
  // One more dictionary value than records, past 64: rejected.
  std::vector<std::uint8_t> body;
  putVarint(body, 101);
  for (int v = 0; v < 101; ++v) putVarint(body, v);
  body.insert(body.end(), 100, 0);
  const std::vector<std::uint8_t> tooBig =
      intervalPayload(100, oracle::kColDura, oracle::kEncDict, body);
  EXPECT_TRUE(decodersAgree(tooBig));
  SlogFrameData out;
  EXPECT_THROW(decodeColumnarFrame(tooBig, out), FormatError);
}

TEST(SlogCodecDiff, DictionaryIndexEqualToTheSizeIsRejected) {
  // One-byte indexes (the max-reduction path) and a lane long enough to
  // take the varint loop.
  for (const std::size_t count : {std::size_t{4}, std::size_t{40}}) {
    std::vector<std::uint8_t> body = varints({3, 10, 20, 30});
    for (std::size_t i = 0; i + 1 < count; ++i) body.push_back(i % 3);
    body.push_back(3);  // == dictionary size
    const std::vector<std::uint8_t> payload =
        intervalPayload(count, oracle::kColStateId, oracle::kEncDict, body);
    EXPECT_TRUE(decodersAgree(payload));
    SlogFrameData out;
    EXPECT_THROW(decodeColumnarFrame(payload, out), FormatError) << count;
    body.back() = 2;
    EXPECT_EQ(decodeOk(intervalPayload(count, oracle::kColStateId,
                                       oracle::kEncDict, body))
                  .intervals.back()
                  .stateId,
              30u);
  }
}

TEST(SlogCodecDiff, TrailingBytesAndUnknownFlagBitsAreRejected) {
  // A trailing byte after each encoding's values.
  const std::vector<std::vector<std::uint8_t>> bodies = {
      {1, 2, 3, 0}, {1, 2, 3, 0}, {1, 7, 0, 0, 0, 0}};
  const std::uint8_t encodings[] = {oracle::kEncVarint, oracle::kEncDelta,
                                    oracle::kEncDict};
  for (std::size_t e = 0; e < 3; ++e) {
    const std::vector<std::uint8_t> payload =
        intervalPayload(3, oracle::kColDura, encodings[e], bodies[e]);
    EXPECT_TRUE(decodersAgree(payload));
    SlogFrameData out;
    EXPECT_THROW(decodeColumnarFrame(payload, out), FormatError) << e;
  }
  // Flag bits above the pseudo bit, in a short varint lane, a lane long
  // enough for the unchecked varint loop, and a dictionary.
  for (const std::vector<std::uint8_t>& flags :
       {varints({3, 0x200, 3}),
        varints({3, 0x103, 3, 3, 3, 3, 0x103, 3, 3, 3, 3, 0x400})}) {
    const std::size_t count = flags.size() < 10 ? 3 : 12;
    const std::vector<std::uint8_t> payload =
        intervalPayload(count, oracle::kColFlags, oracle::kEncVarint, flags);
    EXPECT_TRUE(decodersAgree(payload));
    SlogFrameData out;
    EXPECT_THROW(decodeColumnarFrame(payload, out), FormatError);
  }
  std::vector<std::uint8_t> dict = varints({2, 0x103, 0x800});
  dict.insert(dict.end(), {0, 1, 0});
  const std::vector<std::uint8_t> payload =
      intervalPayload(3, oracle::kColFlags, oracle::kEncDict, dict);
  EXPECT_TRUE(decodersAgree(payload));
  SlogFrameData out;
  EXPECT_THROW(decodeColumnarFrame(payload, out), FormatError);
  // Bits 0..8 are all legal.
  EXPECT_TRUE(decodeOk(intervalPayload(3, oracle::kColFlags,
                                       oracle::kEncVarint,
                                       varints({0x1ff, 0, 0x100})))
                  .intervals[0]
                  .pseudo);
}

// --- cross-version: the same records through the v1 and v2 writers ---------

std::string writeSlogFile(const std::string& name, std::uint32_t version) {
  const std::string path = tempPath(name);
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.recordsPerFrame = 64;
  options.formatVersion = version;
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {});
  for (int i = 0; i < 400; ++i) {
    ByteWriter extra;
    extra.u64(static_cast<Tick>(i) * kMs);  // origStart
    w.addRecord(RecordView::parse(
        encodeRecordBody(makeIntervalType(kRunningState, Bebits::kComplete),
                         static_cast<Tick>(i) * kMs, kMs / 2, 0, i % 2, 0,
                         extra.view())
            .view()));
  }
  w.close();
  return path;
}

TEST(SlogCodec, V1AndV2FilesDecodeIdentically) {
  const std::string v1 = writeSlogFile("codec_x_v1.slog", 1);
  const std::string v2 = writeSlogFile("codec_x_v2.slog", 2);
  SlogReader r1(v1);
  SlogReader r2(v2);
  EXPECT_EQ(r1.formatVersion(), 1u);
  EXPECT_EQ(r2.formatVersion(), 2u);
  ASSERT_EQ(r1.frameIndex().size(), r2.frameIndex().size());
  std::uint64_t v1Bytes = 0;
  std::uint64_t v2Bytes = 0;
  for (std::size_t f = 0; f < r1.frameIndex().size(); ++f) {
    const SlogFrameIndexEntry& e1 = r1.frameIndex()[f];
    const SlogFrameIndexEntry& e2 = r2.frameIndex()[f];
    EXPECT_EQ(e1.records, e2.records);
    EXPECT_EQ(e1.timeStart, e2.timeStart);
    EXPECT_EQ(e1.timeEnd, e2.timeEnd);
    EXPECT_EQ(e1.encoding,
              static_cast<std::uint32_t>(FrameEncoding::kRow));
    EXPECT_EQ(e2.encoding,
              static_cast<std::uint32_t>(FrameEncoding::kColumnar));
    v1Bytes += e1.sizeBytes;
    v2Bytes += e2.sizeBytes;
    const SlogFramePtr f1 = r1.readFrame(f);
    const SlogFramePtr f2 = r2.readFrame(f);
    ASSERT_EQ(f1->intervals.size(), f2->intervals.size());
    ASSERT_EQ(f1->arrows.size(), f2->arrows.size());
    for (std::size_t i = 0; i < f1->intervals.size(); ++i) {
      ASSERT_TRUE(f1->intervals[i] == f2->intervals[i]);
    }
    for (std::size_t i = 0; i < f1->arrows.size(); ++i) {
      ASSERT_TRUE(f1->arrows[i] == f2->arrows[i]);
    }
  }
  // The compression claim, on real merged records rather than noise.
  EXPECT_LE(static_cast<double>(v2Bytes), 0.6 * static_cast<double>(v1Bytes))
      << v2Bytes << " vs " << v1Bytes;
}

TEST(SlogCodec, WriterRejectsUnknownFormatVersion) {
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.formatVersion = 3;
  EXPECT_THROW(SlogWriter(tempPath("codec_badver.slog"), options, profile,
                          {{0, 1000, 10000, 0, 0, ThreadType::kMpi}}, {}),
               UsageError);
  options.formatVersion = 0;
  EXPECT_THROW(SlogWriter(tempPath("codec_badver0.slog"), options, profile,
                          {{0, 1000, 10000, 0, 0, ThreadType::kMpi}}, {}),
               UsageError);
}

}  // namespace
}  // namespace ute
