// SLOG layout codecs: every SLOG layout that more than one module moves
// has exactly one writer and one reader here, called by the file writer
// and reader and by the query protocol alike (docs/FORMAT.md names each
// layout's code).
//
//  - frame payloads: the row (v1) and columnar-compressed (v2) frame
//    encodings;
//  - the fixed-width row records, frame index entries, state table
//    entries and the preview body.
//
// v2 groups a frame's records field-by-field (column-major), encodes
// every column as LEB128 varints — timestamp columns as a running delta
// (zigzag, because frames are sealed in ascending *end*-time order, so
// start-time deltas can be negative), signed id columns as zigzag, and
// small-cardinality columns through an optional first-appearance-order
// dictionary — and wraps each column in a self-describing block header
// so readers can skip columns they do not know. See docs/FORMAT.md §4a
// for the normative byte layout.
//
// This header is also the project's only home for varint/zigzag
// primitives (enforced by the utecheck codec-containment rule): every
// other layer encodes through encodeColumnarFrame()/decodeColumnarFrame().
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "slog/slog_format.h"
#include "support/bytes.h"

namespace ute {

/// How a frame payload (on disk or on the wire) is laid out.
enum class FrameEncoding : std::uint8_t {
  kRow = 0,       ///< v1: interleaved fixed-width records, one kind byte each
  kColumnar = 1,  ///< v2: column blocks, delta/varint/dictionary compressed
};

const char* frameEncodingName(FrameEncoding encoding);

// --- varint / zigzag primitives (LEB128, little-endian 7-bit groups) -------

/// Appends `v` as 1..10 bytes, 7 payload bits per byte, MSB = continue.
void putVarint(std::vector<std::uint8_t>& out, std::uint64_t v);

/// Decodes one varint at `pos`, advancing it. Throws FormatError on a
/// truncated or over-long (> 10 byte) encoding.
std::uint64_t getVarint(std::span<const std::uint8_t> data, std::size_t& pos);

/// Maps signed values to unsigned so small magnitudes stay small:
/// 0,-1,1,-2,2,... -> 0,1,2,3,4,...  (all-unsigned arithmetic; UBSan-clean).
constexpr std::uint64_t zigzagEncode(std::int64_t v) {
  const std::uint64_t u = static_cast<std::uint64_t>(v);
  return (u << 1) ^ (0 - (u >> 63));
}

constexpr std::int64_t zigzagDecode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (0 - (v & 1)));
}

// --- columnar (v2) frame payloads ------------------------------------------

/// Encodes one frame's records as a v2 columnar payload, appended to
/// `out`. Deterministic: the same records always produce the same bytes
/// (dictionary use is decided by a fixed size comparison, dictionary
/// order is first appearance).
void encodeColumnarFrame(std::span<const SlogInterval> intervals,
                         std::span<const SlogArrow> arrows,
                         std::vector<std::uint8_t>& out);

/// Decodes a v2 columnar payload into `out` (its records replaced).
/// Throws FormatError on malformed input — truncated varints, bad
/// dictionary indexes, missing required columns, trailing bytes.
/// `context` (e.g. "path @offset") is appended to error messages when
/// non-empty. Every block header and the column set are checked before
/// any value is decoded; the records then fill in 256-record tiles, so
/// value faults are found tile by tile and `out` holds partial records
/// after a throw.
void decodeColumnarFrame(std::span<const std::uint8_t> payload,
                         SlogFrameData& out,
                         const std::string& context = std::string());

// --- fixed-width layouts --------------------------------------------------

/// Row (v1) records. A SLOG v1 frame puts a kind byte (0 interval,
/// 1 arrow) before each record; a row-encoded wire frame sends the
/// intervals and the arrows as two u32-counted lists with no kind byte.
inline constexpr std::size_t kRowIntervalBytes = 34;
inline constexpr std::size_t kRowArrowBytes = 36;
void putRowInterval(ByteWriter& w, const SlogInterval& r);
SlogInterval takeRowInterval(ByteReader& r);
void putRowArrow(ByteWriter& w, const SlogArrow& a);
SlogArrow takeRowArrow(ByteReader& r);

/// A frame index entry's 32-byte v1 layout: offset, payload size, record
/// count, start and end time. A v2 file appends the u32 encoding tag,
/// which its writer and reader handle; the wire replies carry only these
/// 32 bytes. takeFrameIndexEntry leaves `encoding` at 0 (row).
void putFrameIndexEntry(ByteWriter& w, const SlogFrameIndexEntry& e);
SlogFrameIndexEntry takeFrameIndexEntry(ByteReader& r);

/// A state table entry: id, rgb, then the name as an lstring.
inline constexpr std::size_t kStateDefMinBytes = 10;
void putStateDef(ByteWriter& w, const SlogStateDef& s);
SlogStateDef takeStateDef(ByteReader& r);

/// The preview body: a head (origin, bin width, bin count) and one row
/// of `bins` f64 per state. A file takes the state count from its
/// header; the wire reply writes it as a u32 between head and rows.
void putPreviewHead(ByteWriter& w, const SlogPreview& p);
void putPreviewRows(ByteWriter& w, const SlogPreview& p);
SlogPreview takePreviewHead(ByteReader& r);
/// Reads `stateCount` rows into `p`. Throws FormatError, before it
/// allocates, when the rows cannot fit in the bytes left.
void takePreviewRows(ByteReader& r, std::uint32_t stateCount, SlogPreview& p);

}  // namespace ute
