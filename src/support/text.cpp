#include "support/text.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "support/errors.h"

namespace ute {

std::vector<std::string> splitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trimString(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string withCommas(std::uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t first = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - first) % 3 == 0 && i >= first) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string escapeXml(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::uint64_t parseU64(std::string_view s) {
  const std::string str(trimString(s));
  if (str.empty()) throw ParseError("expected integer, got empty string");
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(str.c_str(), &end, 10);
  if (errno != 0 || end != str.c_str() + str.size()) {
    throw ParseError("expected integer, got '" + str + "'");
  }
  return v;
}

double parseF64(std::string_view s) {
  const std::string str(trimString(s));
  if (str.empty()) throw ParseError("expected number, got empty string");
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(str.c_str(), &end);
  if (errno != 0 || end != str.c_str() + str.size()) {
    throw ParseError("expected number, got '" + str + "'");
  }
  return v;
}

}  // namespace ute
