// Width-agnostic columnar inner-loop kernels.
//
// The v2 columnar frame layout (slog_codec.h) keeps each field's values
// together so the hot loops run over one contiguous lane at a time.
// Frame decode writes each column block straight into its record field:
// a block that spends exactly one byte per value is checked with one
// byteMax reduction (no continuation bit, every dictionary index in
// range) and then widened byte by byte, and only other blocks take the
// varint loop. `.utm` metric accumulation and preview binning share
// binOf. The helpers here are deliberately plain C++: each is one tight
// loop with no cross-iteration dependence beyond a declared reduction,
// which is the shape clang and gcc autovectorize for whatever SIMD width
// the target has (SSE/AVX/NEON/SVE) without a single intrinsic. Keep
// them branch-free inside the loop body; bench_io's encoding sweep
// records the measured decode rate (see the vectorization note in
// BENCH_io.json).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ute::kernels {

/// Max-reduction over a byte lane: checks a whole block's bytes against
/// one bound in a single vectorizable pass instead of a branch per byte.
inline std::uint8_t byteMax(const std::uint8_t* bytes, std::size_t n) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc = bytes[i] > acc ? bytes[i] : acc;
  return acc;
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
