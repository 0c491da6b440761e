// utecheck lexer: a minimal C++ tokenizer for whole-project static
// analysis (docs/STATIC_ANALYSIS.md "utecheck").
//
// It produces just enough structure for call-graph extraction and the
// token-level invariant rules: four token kinds with line numbers and
// byte offsets, comments captured per line (the suppression syntax
// `// utecheck: allow(<rule>) — reason` lives in comments), preprocessor
// directives skipped except that `#include` targets are recorded and
// `#define` lines are lexed into a token list of their own, and
// string/char literals collapsed to single tokens so identifiers inside
// them never reach the rules. Multi-character operators are merged only where later
// passes need the distinction (`::` vs two colons, `==` vs assignment);
// `<`/`>` stay single so template-argument matching can use its own
// heuristics.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

namespace ute::check {

struct Token {
  enum class Kind { kIdent, kNumber, kString, kPunct, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
  int line = 0;
  std::size_t offset = 0;  ///< byte offset of the first character
};

struct Include {
  std::string target;  ///< with its delimiters: `<mutex>`, `"support/x.h"`
  int line = 0;
};

struct LexedFile {
  std::string path;
  std::vector<Token> tokens;  ///< terminated by one kEnd token
  /// Every `#define` line after the directive name (macro name,
  /// parameters, body), each terminated by a kEnd token. Only the
  /// containment rules read these; the call graph never sees them.
  std::vector<Token> macroTokens;
  /// Comment text by the line it starts on (both // and /* */ forms),
  /// concatenated when a line carries several.
  std::unordered_map<int, std::string> comments;
  std::vector<Include> includes;  ///< every `#include`, in file order
};

/// Tokenizes `text`; never throws on malformed input (analysis is
/// best-effort, unterminated constructs run to end of file).
LexedFile lexFile(std::string path, const std::string& text);

/// Reads and tokenizes one file. Throws std::runtime_error when the
/// file cannot be read.
LexedFile lexPath(const std::string& path);

}  // namespace ute::check
