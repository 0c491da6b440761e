// Small string helpers shared by the CLI tools, the statistics language
// front end, and the renderers. Kept deliberately minimal; no locale use.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ute {

std::vector<std::string> splitString(std::string_view s, char sep);
std::string_view trimString(std::string_view s);

bool startsWith(std::string_view s, std::string_view prefix);

/// Renders n with thousands separators, e.g. 11216936 -> "11,216,936".
std::string withCommas(std::uint64_t n);

/// Fixed-point decimal with `digits` places (printf "%.*f").
std::string fixed(double v, int digits);

/// `s` with the markup metacharacters < > & " replaced by entities: safe
/// as SVG/HTML text content and inside a double-quoted attribute.
std::string escapeXml(std::string_view s);

/// Parses a non-negative integer; throws ParseError with context on junk.
std::uint64_t parseU64(std::string_view s);
double parseF64(std::string_view s);

}  // namespace ute
