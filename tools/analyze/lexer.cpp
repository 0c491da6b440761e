#include "analyze/lexer.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ute::check {

namespace {

bool isIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool isIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Two-character operators the extractor must see as one token. `<` and
/// `>` are deliberately absent (template brackets), as are `<<`/`>>`.
bool isTwoCharOp(char a, char b) {
  switch (a) {
    case ':': return b == ':';
    case '-': return b == '>' || b == '=' || b == '-';
    case '=': case '!': case '+': case '*': case '/': case '%':
    case '^': return b == '=';
    case '&': return b == '&' || b == '=';
    case '|': return b == '|' || b == '=';
    default: return false;
  }
}

}  // namespace

LexedFile lexFile(std::string path, const std::string& text) {
  LexedFile out;
  out.path = std::move(path);
  std::size_t i = 0;
  const std::size_t n = text.size();
  int line = 1;
  bool atLineStart = true;  // only whitespace seen since the newline
  bool inDefine = false;    // lexing a #define's logical line

  // Every push happens while `i` still indexes the token's first byte.
  auto push = [&](Token::Kind kind, std::string tok) {
    (inDefine ? out.macroTokens : out.tokens)
        .push_back({kind, std::move(tok), line, i});
  };
  auto addComment = [&](int atLine, const std::string& body) {
    std::string& slot = out.comments[atLine];
    if (!slot.empty()) slot += ' ';
    slot += body;
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      if (inDefine) push(Token::Kind::kEnd, "");
      inDefine = false;
      ++line;
      ++i;
      atLineStart = true;
      continue;
    }
    if (inDefine && c == '\\' && i + 1 < n && text[i + 1] == '\n') {
      ++line;
      i += 2;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Preprocessor directive: skip the whole logical line (honoring
    // backslash continuations), with two exceptions. An `#include`
    // records its target, for the header rules. A `#define` is lexed on
    // into macroTokens, so the containment rules see its body; macro
    // *uses* in code are plain identifier tokens.
    if (c == '#' && atLineStart) {
      std::size_t j = i + 1;
      while (j < n && (text[j] == ' ' || text[j] == '\t')) ++j;
      if (text.compare(j, 6, "define") == 0 && j + 6 < n &&
          (text[j + 6] == ' ' || text[j + 6] == '\t')) {
        inDefine = true;
        atLineStart = false;
        i = j + 6;
        continue;
      }
      if (text.compare(j, 7, "include") == 0) {
        j += 7;
        while (j < n && (text[j] == ' ' || text[j] == '\t')) ++j;
        const char close = j < n && text[j] == '<' ? '>' : '"';
        const std::size_t end =
            j < n && (text[j] == '<' || text[j] == '"')
                ? text.find(close, j + 1)
                : std::string::npos;
        if (end != std::string::npos && text.find('\n', j) > end) {
          out.includes.push_back({text.substr(j, end + 1 - j), line});
        }
      }
      while (i < n) {
        if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
          i += 2;
          ++line;
          continue;
        }
        if (text[i] == '\n') break;
        ++i;
      }
      continue;
    }
    atLineStart = false;
    // Comments, captured for suppression parsing.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      const std::size_t end = text.find('\n', i);
      const std::size_t stop = end == std::string::npos ? n : end;
      addComment(line, text.substr(i + 2, stop - i - 2));
      i = stop;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const int startLine = line;
      std::size_t j = i + 2;
      while (j + 1 < n && !(text[j] == '*' && text[j + 1] == '/')) {
        if (text[j] == '\n') ++line;
        ++j;
      }
      addComment(startLine, text.substr(i + 2, j - i - 2));
      i = j + 2 <= n ? j + 2 : n;
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && text[j] != '(') delim += text[j++];
      const std::string closer = ")" + delim + "\"";
      const std::size_t end = text.find(closer, j);
      const std::size_t stop =
          end == std::string::npos ? n : end + closer.size();
      for (std::size_t k = i; k < stop; ++k) {
        if (text[k] == '\n') ++line;
      }
      push(Token::Kind::kString, "\"\"");
      i = stop;
      continue;
    }
    if (c == '"' || c == '\'') {
      std::size_t j = i + 1;
      while (j < n && text[j] != c) {
        if (text[j] == '\\') ++j;
        if (j < n && text[j] == '\n') ++line;
        ++j;
      }
      push(Token::Kind::kString, std::string(1, c) + std::string(1, c));
      i = j < n ? j + 1 : n;
      continue;
    }
    if (isIdentStart(c)) {
      std::size_t j = i;
      while (j < n && isIdentChar(text[j])) ++j;
      push(Token::Kind::kIdent, text.substr(i, j - i));
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i;
      while (j < n && (isIdentChar(text[j]) || text[j] == '\'' ||
                       ((text[j] == '+' || text[j] == '-') && j > i &&
                        (text[j - 1] == 'e' || text[j - 1] == 'E')))) {
        ++j;
      }
      push(Token::Kind::kNumber, text.substr(i, j - i));
      i = j;
      continue;
    }
    if (i + 1 < n && isTwoCharOp(c, text[i + 1])) {
      push(Token::Kind::kPunct, text.substr(i, 2));
      i += 2;
      continue;
    }
    push(Token::Kind::kPunct, std::string(1, c));
    ++i;
  }
  if (inDefine) push(Token::Kind::kEnd, "");
  inDefine = false;
  push(Token::Kind::kEnd, "");
  return out;
}

LexedFile lexPath(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("utecheck: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return lexFile(path, buf.str());
}

}  // namespace ute::check
