// Width-agnostic columnar inner-loop kernels.
//
// The v2 columnar frame layout (slog_codec.h) keeps each field's values
// together so the hot loops run over one contiguous lane at a time.
// Frame decode fills records in small tiles with every column's cursor
// writing into the tile while it is in L1. A block that spends exactly
// one byte per value is checked once with one byteMax reduction (no
// continuation bit, every dictionary index in range) and then widened
// byte by byte. Other blocks scan their varints 64 bytes at a time:
// stopMask64 marks the bytes that end a varint, so the decoder peels
// varints off one mask with countr_zero, copying each one's 8-byte word,
// and ends one unpredictable loop per chunk instead of one per value;
// packVarintWords then masks and compacts those words' 7-bit groups
// with three shift/mask steps, in one lane-wise loop. `.utm` metric
// accumulation and preview binning share binOf. The helpers here are
// deliberately plain C++ with no intrinsics: loops with no
// cross-iteration dependence beyond a declared reduction, which clang
// and gcc autovectorize for whatever SIMD width the target has, and
// words read with support/bytes.h's loadLe, assembled little-endian
// with shifts, so no host byte order is assumed. bench_io's
// decode row records the measured per-frame cost (see the vectorization
// note in BENCH_io.json).
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/bytes.h"

namespace ute::kernels {

/// Max-reduction over a byte lane: checks a whole block's bytes against
/// one bound in a single vectorizable pass instead of a branch per byte.
inline std::uint8_t byteMax(const std::uint8_t* bytes, std::size_t n) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc = bytes[i] > acc ? bytes[i] : acc;
  return acc;
}

/// Bit i is set when byte p[i] (i < 64) has no continuation bit, i.e.
/// ends a varint. Each 8-byte word's stop bits (bit 7 clear, moved to
/// bit 0 of each byte) are gathered into one byte by a multiply: byte k
/// lands in bit 56 + k and no partial products collide.
inline std::uint64_t stopMask64(const std::uint8_t* p) {
  std::uint64_t mask = 0;
  for (int w = 0; w < 8; ++w) {
    const std::uint64_t stops = (~loadLe<std::uint64_t>(p + 8 * w) >> 7) &
                                0x0101010101010101ull;
    mask |= ((stops * 0x0102040810204080ull) >> 56) << (8 * w);
  }
  return mask;
}

/// Turns each little-endian word in words[0, n), whose low bytes hold
/// one varint of at most 8 bytes, into that varint's value: the word's
/// first stop byte ends the varint, so `s ^ (s - 1)` masks off the bytes
/// past it, and the 7-bit groups are packed pairwise into 14, 28 and 56
/// bits. Every step is a lane-wise operation, so the loop vectorizes.
inline void packVarintWords(std::uint64_t* words, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t w = words[i];
    const std::uint64_t stop = ~w & 0x8080808080808080ull;
    w &= stop ^ (stop - 1);
    w = (w & 0x007f007f007f007full) | ((w & 0x7f007f007f007f00ull) >> 1);
    w = (w & 0x00003fff00003fffull) | ((w & 0x3fff00003fff0000ull) >> 2);
    words[i] = (w & 0x000000000fffffffull) |
               ((w & 0x0fffffff00000000ull) >> 4);
  }
}

/// Clamped histogram bin: (t - origin) / width into [0, bins). Shared by
/// metric accumulation and preview binning so both agree on edge cases
/// (t at or before the origin lands in bin 0, the last bin absorbs
/// everything to the right of its start).
inline std::uint32_t binOf(std::uint64_t t, std::uint64_t origin,
                           std::uint64_t width, std::uint32_t bins) {
  if (t <= origin) return 0;
  const std::uint64_t b = (t - origin) / width;
  return b >= bins ? bins - 1 : static_cast<std::uint32_t>(b);
}

}  // namespace ute::kernels
