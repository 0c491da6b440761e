// FNV-1a-64: the project's cheap, unseeded hash for positions and keys
// that must be identical across runs and hosts (the federation ring, the
// router's enumeration signatures and reply-cache keys).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace ute {

inline constexpr std::uint64_t kFnv1a64Offset = 1469598103934665603ull;

/// FNV-1a-64 of `bytes`. Passing a previous result as `h` continues the
/// hash, so a value hashed in pieces equals the hash of the pieces
/// concatenated.
inline std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                             std::uint64_t h = kFnv1a64Offset) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t fnv1a64(std::string_view text) {
  return fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

}  // namespace ute
