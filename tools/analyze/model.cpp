#include "analyze/model.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

namespace ute::check {

namespace {

const std::set<std::string>& keywords() {
  static const std::set<std::string> kw = {
      "if", "while", "for", "switch", "return", "else", "do", "break",
      "continue", "case", "default", "sizeof", "alignof", "new", "delete",
      "throw", "try", "catch", "const", "constexpr", "consteval", "static",
      "auto", "true", "false", "nullptr", "this", "operator", "goto",
      "using", "typedef", "namespace", "struct", "class", "enum", "union",
      "public", "private", "protected", "template", "typename",
      "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
      "void", "bool", "int", "char", "short", "long", "unsigned", "signed",
      "float", "double", "wchar_t", "char8_t", "char16_t", "char32_t",
      "mutable", "volatile", "inline", "noexcept", "override", "final",
      "virtual", "explicit", "friend", "extern", "static_assert",
      "decltype", "requires", "concept", "co_await", "co_yield",
      "co_return", "and", "or", "not",
  };
  return kw;
}

bool isKeyword(const std::string& s) { return keywords().count(s) != 0; }

bool isAnnotationMacro(const std::string& s) {
  return s.rfind("UTE_", 0) == 0;
}

const std::set<std::string>& containerWords() {
  static const std::set<std::string> words = {
      "map", "unordered_map", "multimap", "unordered_multimap", "set",
      "unordered_set", "multiset", "vector", "deque", "list",
      "forward_list",
  };
  return words;
}

/// Splits a type text into identifier words.
std::vector<std::string> identWords(const std::string& typeText) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : typeText) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_') {
      cur += c;
    } else if (!cur.empty()) {
      out.push_back(cur);
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// Parses one `// utecheck: allow(rule) — reason` marker out of a
/// comment. Returns the rule, or "" if the comment has no marker; sets
/// hasReason when non-separator text follows the closing parenthesis.
std::string parseAllow(const std::string& comment, std::size_t from,
                       std::size_t* endOut, bool* hasReason) {
  static const std::string kTag = "utecheck: allow(";
  const std::size_t at = comment.find(kTag, from);
  if (at == std::string::npos) return "";
  const std::size_t open = at + kTag.size();
  const std::size_t close = comment.find(')', open);
  if (close == std::string::npos) return "";
  *endOut = close + 1;
  std::size_t i = close + 1;
  // Accept "—", "-", ":" (with whitespace) as the reason separator.
  int meaningful = 0;
  for (; i < comment.size(); ++i) {
    const char c = comment[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
    if (c == '-' || c == ':' || (c & 0x80) != 0) continue;  // separators
    ++meaningful;
    if (meaningful >= 3) break;
  }
  *hasReason = meaningful >= 3;
  return comment.substr(open, close - open);
}

// ---------------------------------------------------------------------------
// Extractor: one pass over a token stream, recovering classes, members,
// and function definitions.

struct Extractor {
  const LexedFile& file;
  int fileIdx;
  Project& project;
  const std::vector<Token>& t;
  /// Declaration-site annotations (methods declared in headers, defined
  /// out of line): qualified name -> annotation args.
  std::map<std::string, std::set<std::string>>& declExcludes;
  std::map<std::string, std::set<std::string>>& declInvalidates;

  Extractor(const LexedFile& f, int idx, Project& p,
            std::map<std::string, std::set<std::string>>& ex,
            std::map<std::string, std::set<std::string>>& inv)
      : file(f), fileIdx(idx), project(p), t(f.tokens),
        declExcludes(ex), declInvalidates(inv) {}

  bool isPunct(std::size_t i, const char* s) const {
    return t[i].kind == Token::Kind::kPunct && t[i].text == s;
  }
  bool isIdent(std::size_t i, const char* s) const {
    return t[i].kind == Token::Kind::kIdent && t[i].text == s;
  }
  bool atEnd(std::size_t i) const {
    return i >= t.size() || t[i].kind == Token::Kind::kEnd;
  }

  /// Advances past a balanced pair starting at `i` (which must sit on
  /// the opener); returns the index just past the closer.
  std::size_t skipBalanced(std::size_t i, const char* open,
                           const char* close) const {
    int depth = 0;
    while (!atEnd(i)) {
      if (isPunct(i, open)) ++depth;
      else if (isPunct(i, close) && --depth == 0) return i + 1;
      ++i;
    }
    return i;
  }

  /// Advances past template brackets at `i` (on the '<'). `<`/`>` are
  /// single tokens, so nesting is tracked directly; parens inside are
  /// skipped balanced.
  std::size_t skipAngles(std::size_t i) const {
    int depth = 0;
    while (!atEnd(i)) {
      if (isPunct(i, "<")) ++depth;
      else if (isPunct(i, ">") && --depth == 0) return i + 1;
      else if (isPunct(i, "(")) { i = skipBalanced(i, "(", ")"); continue; }
      ++i;
    }
    return i;
  }

  std::size_t skipToSemicolon(std::size_t i) const {
    while (!atEnd(i) && !isPunct(i, ";")) {
      if (isPunct(i, "{")) { i = skipBalanced(i, "{", "}"); continue; }
      if (isPunct(i, "(")) { i = skipBalanced(i, "(", ")"); continue; }
      ++i;
    }
    return atEnd(i) ? i : i + 1;
  }

  void run() {
    std::size_t i = 0;
    parseScope(i, /*inClass=*/false, "", /*stopAtBrace=*/false);
  }

  /// Parses declarations until end of file or the scope's closing '}'.
  void parseScope(std::size_t& i, bool inClass, const std::string& className,
                  bool stopAtBrace) {
    while (!atEnd(i)) {
      if (isPunct(i, "}")) {
        if (stopAtBrace) { ++i; return; }
        ++i;
        continue;
      }
      if (isPunct(i, ";")) { ++i; continue; }
      if (t[i].kind == Token::Kind::kIdent) {
        const std::string& w = t[i].text;
        if (w == "namespace") { parseNamespace(i); continue; }
        if (w == "template") {
          ++i;
          if (isPunct(i, "<")) i = skipAngles(i);
          continue;
        }
        if (w == "class" || w == "struct" || w == "union") {
          parseClass(i, inClass, className);
          continue;
        }
        if (w == "enum") { i = skipToSemicolon(i); continue; }
        if (w == "using" || w == "typedef" || w == "friend" ||
            w == "static_assert" || w == "concept") {
          i = skipToSemicolon(i);
          continue;
        }
        if (w == "extern") {
          ++i;
          if (!atEnd(i) && t[i].kind == Token::Kind::kString) ++i;
          if (isPunct(i, "{")) ++i;  // extern "C" block: parse contents
          continue;
        }
        if (inClass && (w == "public" || w == "private" || w == "protected") &&
            isPunct(i + 1, ":")) {
          i += 2;
          continue;
        }
        parseDeclaration(i, inClass, className);
        continue;
      }
      ++i;  // stray punctuation at declaration scope
    }
  }

  void parseNamespace(std::size_t& i) {
    ++i;  // "namespace"
    while (!atEnd(i) && (t[i].kind == Token::Kind::kIdent ||
                         isPunct(i, "::"))) {
      if (isPunct(i + 1, "=")) { i = skipToSemicolon(i); return; }
      ++i;
    }
    if (isPunct(i, "{")) ++i;  // enter; names are flattened
  }

  void parseClass(std::size_t& i, bool inClass, const std::string& outer) {
    (void)inClass;
    (void)outer;
    std::size_t j = i + 1;
    // Head: everything to the first '{' (definition) or ';' (forward
    // declaration), skipping annotation-macro parens and template args.
    std::string name;
    std::size_t colon = 0;
    while (!atEnd(j) && !isPunct(j, "{") && !isPunct(j, ";")) {
      if (isPunct(j, "(")) { j = skipBalanced(j, "(", ")"); continue; }
      if (isPunct(j, "<")) { j = skipAngles(j); continue; }
      if (isPunct(j, ":") && colon == 0) colon = j;
      if (colon == 0 && t[j].kind == Token::Kind::kIdent &&
          !isKeyword(t[j].text) && !isAnnotationMacro(t[j].text)) {
        name = t[j].text;  // last plain identifier before : or { wins
      }
      ++j;
    }
    if (atEnd(j) || isPunct(j, ";")) { i = atEnd(j) ? j : j + 1; return; }
    std::string bases;
    if (colon != 0) {
      for (std::size_t k = colon + 1; k < j; ++k) {
        if (!bases.empty()) bases += ' ';
        bases += t[k].text;
      }
    }
    if (name.empty()) {  // anonymous struct: skip the body
      i = skipBalanced(j, "{", "}");
      return;
    }
    ClassInfo& info = project.classes[name];
    info.name = name;
    if (!bases.empty()) info.basesText = bases;
    i = j + 1;  // past '{'
    parseScope(i, /*inClass=*/true, name, /*stopAtBrace=*/true);
  }

  /// A member variable, a function definition, or a declaration we skip.
  void parseDeclaration(std::size_t& i, bool inClass,
                        const std::string& className) {
    const std::size_t declBegin = i;
    std::size_t j = i;
    std::size_t funcParen = 0;
    std::string funcName;
    std::string funcClass = className;
    // Scan the declarator at depth 0 for the function-name '('.
    while (!atEnd(j) && !isPunct(j, ";") && !isPunct(j, "{") &&
           !isPunct(j, "=")) {
      if (t[j].kind == Token::Kind::kIdent && isAnnotationMacro(t[j].text) &&
          isPunct(j + 1, "(")) {
        j = skipBalanced(j + 1, "(", ")");
        continue;
      }
      if (isPunct(j, "<") && j > declBegin &&
          (t[j - 1].kind == Token::Kind::kIdent || isPunct(j - 1, "::"))) {
        j = skipAngles(j);
        continue;
      }
      if (isPunct(j, "[")) { j = skipBalanced(j, "[", "]"); continue; }
      if (isPunct(j, "(")) {
        // Function if preceded by a plain identifier (or ~identifier).
        std::size_t nameAt = j;
        if (j > declBegin && t[j - 1].kind == Token::Kind::kIdent &&
            !isKeyword(t[j - 1].text)) {
          nameAt = j - 1;
        } else {
          j = skipBalanced(j, "(", ")");
          continue;
        }
        funcName = t[nameAt].text;
        if (nameAt > declBegin && isPunct(nameAt - 1, "~")) {
          funcName = "~" + funcName;
          --nameAt;
        }
        // Out-of-line qualification: Class::name.
        if (nameAt > declBegin + 1 && isPunct(nameAt - 1, "::") &&
            t[nameAt - 2].kind == Token::Kind::kIdent) {
          funcClass = t[nameAt - 2].text;
        }
        funcParen = j;
        break;
      }
      ++j;
    }
    if (funcParen == 0) {
      finishMemberOrSkip(i, declBegin, inClass, className);
      return;
    }
    const std::size_t paramsEnd = skipBalanced(funcParen, "(", ")");
    // Declarator tail: annotations, cv/ref/noexcept, trailing return,
    // ctor initializers — ends at ';' (declaration), '=' (pure/default/
    // delete), or the body '{'.
    std::set<std::string> excludes;
    std::set<std::string> invalidates;
    std::size_t k = paramsEnd;
    bool sawCtorColon = false;
    while (!atEnd(k) && !isPunct(k, ";") && !isPunct(k, "{") &&
           !isPunct(k, "=")) {
      if (t[k].kind == Token::Kind::kIdent && isAnnotationMacro(t[k].text) &&
          isPunct(k + 1, "(")) {
        std::set<std::string>* into = nullptr;
        if (t[k].text == "UTE_EXCLUDES") into = &excludes;
        if (t[k].text == "UTE_MAY_INVALIDATE") into = &invalidates;
        const std::size_t close = skipBalanced(k + 1, "(", ")");
        if (into != nullptr) {
          for (std::size_t a = k + 2; a + 1 < close; ++a) {
            if (t[a].kind == Token::Kind::kIdent) into->insert(t[a].text);
          }
        }
        k = close;
        continue;
      }
      if (isPunct(k, "(")) { k = skipBalanced(k, "(", ")"); continue; }
      if (isPunct(k, ":")) {  // ctor initializer list
        sawCtorColon = true;
        k = skipCtorInits(k + 1);
        break;
      }
      ++k;
    }
    if (sawCtorColon ? !isPunct(k, "{")
                     : (atEnd(k) || !isPunct(k, "{"))) {
      // Declaration only (or = default / = delete / = 0): keep the
      // annotations so the out-of-line definition inherits them.
      const std::string qualified =
          funcClass.empty() ? funcName : funcClass + "::" + funcName;
      if (!excludes.empty()) {
        declExcludes[qualified].insert(excludes.begin(), excludes.end());
      }
      if (!invalidates.empty()) {
        declInvalidates[qualified].insert(invalidates.begin(),
                                          invalidates.end());
      }
      i = skipToSemicolon(k);
      return;
    }
    FunctionDef def;
    def.file = fileIdx;
    def.className = funcClass;
    def.name = funcName;
    def.qualified =
        funcClass.empty() ? funcName : funcClass + "::" + funcName;
    def.line = t[funcParen].line;
    def.paramsBegin = funcParen;
    def.bodyBegin = k;
    def.bodyEnd = skipBalanced(k, "{", "}") - 1;
    def.excludes = std::move(excludes);
    def.mayInvalidate = std::move(invalidates);
    parseParams(def, funcParen, paramsEnd - 1);
    project.funcs.push_back(std::move(def));
    i = project.funcs.back().bodyEnd + 1;
  }

  /// Skips `name(init), name{init}, ...` after a constructor's ':',
  /// returning the index of the body '{'.
  std::size_t skipCtorInits(std::size_t i) const {
    while (!atEnd(i)) {
      while (!atEnd(i) &&
             (t[i].kind == Token::Kind::kIdent || isPunct(i, "::") ||
              isPunct(i, "."))) {
        if (isPunct(i + 1, "<")) { ++i; i = skipAngles(i); continue; }
        ++i;
      }
      if (isPunct(i, "(")) i = skipBalanced(i, "(", ")");
      else if (isPunct(i, "{")) i = skipBalanced(i, "{", "}");
      else return i;
      if (isPunct(i, ",")) { ++i; continue; }
      if (isPunct(i, "...")) ++i;
      return i;
    }
    return i;
  }

  void parseParams(FunctionDef& def, std::size_t open,
                   std::size_t close) const {
    std::size_t start = open + 1;
    int depth = 0;
    auto flush = [&](std::size_t end) {
      // Param name: last plain identifier before '=' (default arg) or
      // the end; type text: everything before it.
      std::size_t cut = end;
      for (std::size_t a = start; a < end; ++a) {
        if (isPunct(a, "=")) { cut = a; break; }
      }
      std::size_t nameAt = 0;
      for (std::size_t a = start; a < cut; ++a) {
        if (t[a].kind == Token::Kind::kIdent && !isKeyword(t[a].text) &&
            !isPunct(a + 1, "::")) {
          nameAt = a;
        }
      }
      if (nameAt == 0 || nameAt == start) return;  // unnamed or type-only
      std::string type;
      for (std::size_t a = start; a < nameAt; ++a) {
        if (!type.empty()) type += ' ';
        type += t[a].text;
      }
      if (!type.empty()) def.paramType[t[nameAt].text] = type;
    };
    for (std::size_t a = open + 1; a < close; ++a) {
      if (isPunct(a, "(") || isPunct(a, "[") || isPunct(a, "{")) ++depth;
      else if (isPunct(a, ")") || isPunct(a, "]") || isPunct(a, "}")) --depth;
      else if (isPunct(a, "<")) ++depth;
      else if (isPunct(a, ">")) --depth;
      else if (isPunct(a, ",") && depth == 0) {
        flush(a);
        start = a + 1;
      }
    }
    flush(close);
  }

  /// No function parenthesis found: record a member variable (in class
  /// scope) and advance past the declaration.
  void finishMemberOrSkip(std::size_t& i, std::size_t declBegin, bool inClass,
                          const std::string& className) {
    std::size_t j = declBegin;
    std::size_t nameAt = 0;
    while (!atEnd(j) && !isPunct(j, ";")) {
      if (t[j].kind == Token::Kind::kIdent && isAnnotationMacro(t[j].text)) {
        if (isPunct(j + 1, "(")) { j = skipBalanced(j + 1, "(", ")"); }
        else ++j;
        continue;
      }
      if (isPunct(j, "=")) { j = skipToSemicolon(j) - 1; break; }
      if (isPunct(j, "{")) {
        const std::size_t after = skipBalanced(j, "{", "}");
        if (isPunct(after, ";") || isPunct(after, ",")) { j = after; continue; }
        // A body we failed to classify (e.g. an operator definition):
        // stop here without recording anything.
        i = after;
        return;
      }
      if (isPunct(j, "<") && j > declBegin &&
          t[j - 1].kind == Token::Kind::kIdent) {
        j = skipAngles(j);
        continue;
      }
      if (isPunct(j, "(")) { j = skipBalanced(j, "(", ")"); continue; }
      if (isPunct(j, "[")) { j = skipBalanced(j, "[", "]"); continue; }
      if (t[j].kind == Token::Kind::kIdent && !isKeyword(t[j].text)) {
        nameAt = j;
      }
      ++j;
    }
    if (inClass && nameAt != 0 && nameAt > declBegin) {
      std::string type;
      for (std::size_t a = declBegin; a < nameAt; ++a) {
        if (t[a].kind == Token::Kind::kIdent &&
            isAnnotationMacro(t[a].text)) {
          continue;
        }
        if (!type.empty()) type += ' ';
        type += t[a].text;
      }
      if (!type.empty()) {
        project.classes[className].memberType[t[nameAt].text] = type;
      }
    }
    i = atEnd(j) ? j : j + 1;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Project

bool isContainerType(const std::string& typeText) {
  for (const std::string& w : identWords(typeText)) {
    if (containerWords().count(w) != 0) return true;
  }
  return false;
}

const ClassInfo* Project::classInfo(const std::string& name) const {
  const auto it = classes.find(name);
  return it == classes.end() ? nullptr : &it->second;
}

bool Project::allowed(int file, int line, const std::string& rule) const {
  if (file < 0 || static_cast<std::size_t>(file) >= allows.size()) {
    return false;
  }
  const auto& byLine = allows[file];
  for (const int l : {line, line - 1}) {
    const auto it = byLine.find(l);
    if (it != byLine.end() && it->second.count(rule) != 0) return true;
  }
  return false;
}

std::vector<std::string> Project::derivedOf(const std::string& base) const {
  std::vector<std::string> out;
  for (const auto& [name, info] : classes) {
    if (info.basesText.empty()) continue;
    for (const std::string& w : identWords(info.basesText)) {
      if (w == base) {
        out.push_back(name);
        break;
      }
    }
  }
  return out;
}

std::string Project::firstClassIn(const std::string& typeText) const {
  for (const std::string& w : identWords(typeText)) {
    if (classes.count(w) != 0) return w;
  }
  return "";
}

std::string Project::lastClassIn(const std::string& typeText) const {
  std::string last;
  for (const std::string& w : identWords(typeText)) {
    if (classes.count(w) != 0) last = w;
  }
  return last;
}

std::vector<int> Project::resolveCall(const FunctionDef& from,
                                      const BodyEvent& call) const {
  std::vector<int> out;
  const auto byName = funcsByName.find(call.callee);
  if (byName == funcsByName.end()) return out;
  auto addMatching = [&](const std::string& cls) {
    for (const int id : byName->second) {
      if (funcs[static_cast<std::size_t>(id)].className == cls) {
        out.push_back(id);
      }
    }
  };
  if (!call.qualifier.empty()) {
    if (classes.count(call.qualifier) != 0) addMatching(call.qualifier);
    return out;  // std:: and friends resolve to nothing
  }
  if (!call.receiverType.empty()) {
    addMatching(call.receiverType);
    // Virtual dispatch over-approximation: a call through a base class
    // reference may land in any derived override of the same name.
    for (const std::string& d : derivedOf(call.receiverType)) {
      addMatching(d);
    }
    return out;
  }
  if (!call.receiver.empty()) return out;  // typed receiver we can't name
  if (!from.className.empty()) {
    addMatching(from.className);
    if (!out.empty()) return out;
  }
  addMatching("");  // free functions
  return out;
}

// ---------------------------------------------------------------------------
// Body walker

namespace {

const std::set<std::string>& deferralCallees() {
  // Lambdas handed to these run on another thread (or a detached one):
  // their bodies are excluded from the enclosing function's call edges.
  static const std::set<std::string> names = {
      "trySubmit", "submit", "thread", "async", "parallelFor", "detach",
      "setFrameSealHook",
  };
  return names;
}

const std::set<std::string>& containerOpNames() {
  static const std::set<std::string> names = {
      "find", "at", "count", "contains", "erase", "clear", "begin", "end",
      "front", "back", "emplace", "try_emplace", "emplace_back", "insert",
      "push_back", "push_front", "pop_front", "pop_back", "lower_bound",
      "upper_bound", "equal_range", "splice", "size", "empty", "reserve",
      "resize", "swap",
  };
  return names;
}

struct Walker {
  const Project& p;
  const FunctionDef& f;
  const std::vector<Token>& t;
  std::vector<BodyEvent> out;

  struct Local {
    std::string name;
    std::string type;
    int depth;
  };
  std::vector<Local> locals;

  struct ParenFrame {
    enum class Kind { kPlain, kCall, kControl, kSubscript };
    Kind kind = Kind::kPlain;
    BodyEvent call;       // kCall / kContainerOp payload
    bool isFor = false;   // control frame of a for(...)
    bool containerOp = false;
  };
  std::vector<ParenFrame> frames;

  struct Capture {
    bool active = false;
    bool assign = false;
    bool rangeFor = false;
    std::vector<std::string> names;
    std::string type;
    int line = 0;
    std::size_t frameBase = 0;  // capture ends at ';' with this depth
    std::vector<std::string> idents;
    std::vector<std::string> obtained;
  };
  Capture cap;

  int depth = 1;
  int stmtId = 0;
  bool stmtStart = true;
  // Set by keyword handling for the next '(' push.
  bool nextParenControl = false;
  bool nextParenIsFor = false;

  void newStmt() {
    stmtStart = true;
    ++stmtId;
  }

  Walker(const Project& proj, int funcId)
      : p(proj), f(proj.funcs[static_cast<std::size_t>(funcId)]),
        t(proj.files[static_cast<std::size_t>(f.file)].tokens) {}

  bool isPunct(std::size_t i, const char* s) const {
    return i < t.size() && t[i].kind == Token::Kind::kPunct && t[i].text == s;
  }
  bool isIdentTok(std::size_t i) const {
    return i < t.size() && t[i].kind == Token::Kind::kIdent;
  }

  std::string typeOfVar(const std::string& name) const {
    for (auto it = locals.rbegin(); it != locals.rend(); ++it) {
      if (it->name == name) return it->type;
    }
    const auto pit = f.paramType.find(name);
    if (pit != f.paramType.end()) return pit->second;
    if (const ClassInfo* ci = p.classInfo(f.className)) {
      const auto mit = ci->memberType.find(name);
      if (mit != ci->memberType.end()) return mit->second;
    }
    return "";
  }

  /// True when `name` is a member variable of the enclosing class (and
  /// not shadowed by a local or parameter).
  bool isOwnMember(const std::string& name) const {
    for (auto it = locals.rbegin(); it != locals.rend(); ++it) {
      if (it->name == name) return false;
    }
    if (f.paramType.count(name) != 0) return false;
    const ClassInfo* ci = p.classInfo(f.className);
    return ci != nullptr && ci->memberType.count(name) != 0;
  }

  void emit(BodyEvent ev) {
    ev.depth = depth;
    ev.stmt = stmtId;
    if (cap.active) {
      if (ev.kind == BodyEvent::Kind::kIdent) cap.idents.push_back(ev.var);
      if (ev.kind == BodyEvent::Kind::kContainerOp &&
          (ev.op == "find" || ev.op == "at" || ev.op == "begin" ||
           ev.op == "end" || ev.op == "front" || ev.op == "back" ||
           ev.op == "emplace" || ev.op == "try_emplace" ||
           ev.op == "insert" || ev.op == "lower_bound" ||
           ev.op == "upper_bound" || ev.op == "equal_range" ||
           ev.op == "subscript")) {
        cap.obtained.push_back(ev.container);
      }
    }
    // Argument idents feed every open call frame (poisoning applies
    // after the consuming call, not to the arguments themselves).
    if (ev.kind == BodyEvent::Kind::kIdent) {
      for (ParenFrame& fr : frames) {
        if (fr.kind == ParenFrame::Kind::kCall) {
          fr.call.argIdents.push_back(ev.var);
        }
      }
    }
    out.push_back(std::move(ev));
  }

  void finishCapture() {
    if (cap.rangeFor) {
      // A range-for over a member container obtains references into it:
      // `for (auto& [id, conn] : conns_)`.
      for (const std::string& id : cap.idents) {
        if (!isOwnMember(id)) continue;
        const ClassInfo* ci = p.classInfo(f.className);
        const auto mit = ci->memberType.find(id);
        if (mit != ci->memberType.end() && isContainerType(mit->second)) {
          cap.obtained.push_back(f.className + "::" + id);
        }
      }
    }
    for (const std::string& name : cap.names) {
      BodyEvent ev;
      ev.kind = cap.assign ? BodyEvent::Kind::kAssign : BodyEvent::Kind::kDecl;
      ev.line = cap.line;
      ev.var = name;
      ev.varType = cap.type;
      ev.initIdents = cap.idents;
      ev.obtainedFrom = cap.obtained;
      emit(std::move(ev));
      if (!cap.assign) locals.push_back({name, cap.type, depth});
    }
    cap = Capture{};
  }

  /// Attempts to parse a declaration at statement start. On success the
  /// cursor lands on the initializer (capture active) or past the ';'.
  bool tryParseDecl(std::size_t& i) {
    std::size_t j = i;
    auto skipQuals = [&] {
      while (isIdentTok(j) &&
             (t[j].text == "const" || t[j].text == "constexpr" ||
              t[j].text == "static" || t[j].text == "mutable" ||
              t[j].text == "volatile" || t[j].text == "inline")) {
        ++j;
      }
    };
    skipQuals();
    static const std::set<std::string> builtins = {
        "auto", "bool", "int", "char", "short", "long", "unsigned",
        "signed", "float", "double", "wchar_t",
    };
    if (!isIdentTok(j) ||
        (isKeyword(t[j].text) && builtins.count(t[j].text) == 0)) {
      return false;
    }
    std::string type;
    auto addType = [&](const std::string& s) {
      if (!type.empty()) type += ' ';
      type += s;
    };
    if (builtins.count(t[j].text) != 0) {
      while (isIdentTok(j) &&
             (builtins.count(t[j].text) != 0 || t[j].text == "const")) {
        addType(t[j].text);
        ++j;
      }
    } else {
      // qualified-id with optional template arguments per component
      for (;;) {
        if (!isIdentTok(j) || isKeyword(t[j].text)) return false;
        addType(t[j].text);
        ++j;
        if (isPunct(j, "<")) {
          const std::size_t close = matchAngle(j);
          if (close == 0) return false;
          for (std::size_t a = j; a <= close; ++a) addType(t[a].text);
          j = close + 1;
        }
        if (isPunct(j, "::")) { ++j; continue; }
        break;
      }
    }
    while (isPunct(j, "&") || isPunct(j, "*") || isPunct(j, "&&") ||
           (isIdentTok(j) && t[j].text == "const")) {
      addType(t[j].text);
      ++j;
    }
    std::vector<std::string> names;
    if (isPunct(j, "[")) {  // structured binding
      ++j;
      while (!isPunct(j, "]") && j < t.size() &&
             t[j].kind != Token::Kind::kEnd) {
        if (isIdentTok(j)) names.push_back(t[j].text);
        ++j;
      }
      if (!isPunct(j, "]")) return false;
      ++j;
    } else {
      if (!isIdentTok(j) || isKeyword(t[j].text)) return false;
      names.push_back(t[j].text);
      ++j;
      while (isPunct(j, "[")) {  // array declarator
        int d = 0;
        while (j < t.size() && t[j].kind != Token::Kind::kEnd) {
          if (isPunct(j, "[")) ++d;
          if (isPunct(j, "]") && --d == 0) { ++j; break; }
          ++j;
        }
      }
    }
    if (names.empty()) return false;
    auto beginCapture = [&](bool rangeFor) {
      cap = Capture{};
      cap.active = true;
      cap.rangeFor = rangeFor;
      cap.names = names;
      cap.type = type;
      cap.line = t[i].line;
      cap.frameBase = frames.size();
    };
    if (isPunct(j, "=")) {
      beginCapture(false);
      i = j + 1;
      return true;
    }
    if (isPunct(j, ":") && insideForControl()) {
      beginCapture(true);
      i = j + 1;
      return true;
    }
    if (isPunct(j, "(") || isPunct(j, "{")) {
      // Paren/braced initialization: only trust it when the type names
      // two identifiers (`MutexLock lock(mu_)`), which the failed-call
      // ambiguity (`foo(x)`) cannot produce.
      beginCapture(false);
      i = j;  // the '(' / '{' is scanned normally, feeding the capture
      return true;
    }
    if (isPunct(j, ";") || isPunct(j, ",")) {
      BodyEvent ev;
      ev.kind = BodyEvent::Kind::kDecl;
      ev.line = t[i].line;
      ev.varType = type;
      for (const std::string& name : names) {
        BodyEvent one = ev;
        one.var = name;
        emit(std::move(one));
        locals.push_back({name, type, depth});
      }
      i = j + 1;
      return true;
    }
    return false;
  }

  bool insideForControl() const {
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      if (it->kind == ParenFrame::Kind::kControl) return it->isFor;
    }
    return false;
  }

  /// Matches '<' at `j` to its '>', or 0 when the brackets do not look
  /// like template arguments (comparison operators, shifts).
  std::size_t matchAngle(std::size_t j) const {
    int d = 0;
    std::size_t steps = 0;
    for (std::size_t a = j; a < t.size() && steps < 64; ++a, ++steps) {
      if (t[a].kind == Token::Kind::kEnd || isPunct(a, ";") ||
          isPunct(a, "{")) {
        return 0;
      }
      if (isPunct(a, "<")) ++d;
      else if (isPunct(a, ">") && --d == 0) return a;
    }
    return 0;
  }

  /// Builds the receiver chain ending just before the member call at
  /// token `calleeAt` (`a.b.callee(` -> base a, then member b).
  struct Chain {
    std::string base;
    std::vector<std::pair<std::string, bool>> path;  // (member, subscripted)
    bool valid = false;
  };
  Chain receiverChain(std::size_t calleeAt) const {
    Chain chain;
    std::size_t i = calleeAt - 1;  // on '.' or '->'
    std::vector<std::pair<std::string, bool>> rev;
    for (;;) {
      if (!(isPunct(i, ".") || isPunct(i, "->"))) return chain;
      if (i == 0) return chain;
      std::size_t j = i - 1;
      bool subscripted = false;
      if (isPunct(j, "]")) {
        int d = 0;
        while (j > 0) {
          if (isPunct(j, "]")) ++d;
          if (isPunct(j, "[") && --d == 0) break;
          --j;
        }
        if (j == 0) return chain;
        --j;
        subscripted = true;
      }
      if (!isIdentTok(j) || isKeyword(t[j].text)) {
        if (j < t.size() && isIdentTok(j) && t[j].text == "this") {
          chain.base = "this";
          chain.path.assign(rev.rbegin(), rev.rend());
          chain.path.insert(chain.path.begin(), {"", false});
          chain.valid = true;
          break;
        }
        return chain;  // f(x).g(...) and friends: unknown receiver
      }
      if (j > 0 && (isPunct(j - 1, ".") || isPunct(j - 1, "->"))) {
        rev.push_back({t[j].text, subscripted});
        i = j - 1;
        continue;
      }
      chain.base = t[j].text;
      chain.path.assign(rev.rbegin(), rev.rend());
      chain.path.insert(chain.path.begin(), {"", subscripted});
      chain.valid = true;
      break;
    }
    return chain;
  }

  std::string resolveChainType(const Chain& chain) const {
    if (!chain.valid) return "";
    std::string typeText;
    bool baseSubscripted =
        !chain.path.empty() && chain.path.front().second;
    if (chain.base == "this") {
      typeText = f.className;
    } else {
      typeText = typeOfVar(chain.base);
    }
    if (typeText.empty()) return "";
    std::string cls = baseSubscripted ? p.lastClassIn(typeText)
                                      : p.firstClassIn(typeText);
    for (std::size_t k = 1; k < chain.path.size(); ++k) {
      if (cls.empty()) return "";
      const ClassInfo* ci = p.classInfo(cls);
      if (ci == nullptr) return "";
      const auto mit = ci->memberType.find(chain.path[k].first);
      if (mit == ci->memberType.end()) return "";
      cls = chain.path[k].second ? p.lastClassIn(mit->second)
                                 : p.firstClassIn(mit->second);
    }
    return cls;
  }

  /// Handles a lambda introducer at `i` (on the '['). Returns the index
  /// to continue from; deferred lambda bodies are skipped wholesale.
  std::size_t handleLambda(std::size_t i) {
    std::size_t j = i;
    int d = 0;
    while (j < t.size() && t[j].kind != Token::Kind::kEnd) {
      if (isPunct(j, "[")) ++d;
      if (isPunct(j, "]") && --d == 0) { ++j; break; }
      ++j;
    }
    std::size_t probe = j;
    if (isPunct(probe, "(")) {
      int pd = 0;
      while (probe < t.size() && t[probe].kind != Token::Kind::kEnd) {
        if (isPunct(probe, "(")) ++pd;
        if (isPunct(probe, ")") && --pd == 0) { ++probe; break; }
        ++probe;
      }
    }
    while (probe < t.size() && !isPunct(probe, "{") &&
           t[probe].kind != Token::Kind::kEnd && !isPunct(probe, ";")) {
      if (isPunct(probe, "(")) {
        int pd = 0;
        while (probe < t.size() && t[probe].kind != Token::Kind::kEnd) {
          if (isPunct(probe, "(")) ++pd;
          if (isPunct(probe, ")") && --pd == 0) { ++probe; break; }
          ++probe;
        }
        continue;
      }
      ++probe;
    }
    if (!isPunct(probe, "{")) return j;  // not a lambda after all
    bool deferred = false;
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      if (it->kind != ParenFrame::Kind::kCall) continue;
      deferred = deferralCallees().count(it->call.callee) != 0;
      break;
    }
    if (!deferred) return i + 1;  // walk through the lambda normally
    // Skip capture list + params + body in one go.
    std::size_t end = probe;
    int bd = 0;
    while (end < t.size() && t[end].kind != Token::Kind::kEnd) {
      if (isPunct(end, "{")) ++bd;
      if (isPunct(end, "}") && --bd == 0) { ++end; break; }
      ++end;
    }
    return end;
  }

  void run() {
    std::size_t i = f.bodyBegin + 1;
    while (i < f.bodyEnd && t[i].kind != Token::Kind::kEnd) {
      const Token& tok = t[i];
      if (tok.kind == Token::Kind::kPunct) {
        i = handlePunct(i);
        continue;
      }
      if (tok.kind == Token::Kind::kIdent) {
        i = handleIdent(i);
        continue;
      }
      ++i;  // numbers, strings
    }
    if (cap.active) finishCapture();
  }

  std::size_t handlePunct(std::size_t i) {
    const std::string& s = t[i].text;
    if (s == "{") {
      ++depth;
      BodyEvent ev;
      ev.kind = BodyEvent::Kind::kScopeOpen;
      ev.line = t[i].line;
      emit(std::move(ev));
      newStmt();
      return i + 1;
    }
    if (s == "}") {
      if (cap.active && frames.size() <= cap.frameBase) finishCapture();
      while (!locals.empty() && locals.back().depth >= depth &&
             depth > 1) {
        locals.pop_back();
      }
      --depth;
      BodyEvent ev;
      ev.kind = BodyEvent::Kind::kScopeClose;
      ev.line = t[i].line;
      emit(std::move(ev));
      newStmt();
      return i + 1;
    }
    if (s == "(") {
      ParenFrame fr;
      if (nextParenControl) {
        fr.kind = ParenFrame::Kind::kControl;
        fr.isFor = nextParenIsFor;
        nextParenControl = nextParenIsFor = false;
        newStmt();  // for-init / if-init declarations
      } else {
        stmtStart = false;
      }
      frames.push_back(std::move(fr));
      return i + 1;
    }
    if (s == ")") {
      if (frames.empty()) return i + 1;
      ParenFrame fr = std::move(frames.back());
      frames.pop_back();
      if (cap.active && cap.rangeFor && frames.size() < cap.frameBase) {
        finishCapture();
      }
      if (fr.kind == ParenFrame::Kind::kCall) {
        fr.call.line = t[i].line;
        emit(std::move(fr.call));
        stmtStart = false;
      } else if (fr.kind == ParenFrame::Kind::kControl) {
        newStmt();
      }
      return i + 1;
    }
    if (s == ";") {
      if (cap.active && frames.size() <= cap.frameBase) finishCapture();
      newStmt();
      return i + 1;
    }
    if (s == "[") {
      if (isPunct(i + 1, "[")) {  // [[attribute]]
        std::size_t j = i;
        int d = 0;
        while (j < t.size() && t[j].kind != Token::Kind::kEnd) {
          if (isPunct(j, "[")) ++d;
          if (isPunct(j, "]") && --d == 0) { ++j; break; }
          ++j;
        }
        return j;
      }
      const bool subscript =
          i > 0 && (isIdentTok(i - 1) || isPunct(i - 1, "]") ||
                    isPunct(i - 1, ")"));
      if (subscript) {
        ParenFrame fr;
        fr.kind = ParenFrame::Kind::kSubscript;
        frames.push_back(std::move(fr));
        return i + 1;
      }
      return handleLambda(i);
    }
    if (s == "]") {
      if (!frames.empty() &&
          frames.back().kind == ParenFrame::Kind::kSubscript) {
        frames.pop_back();
      }
      return i + 1;
    }
    stmtStart = false;
    return i + 1;
  }

  static bool isDeclStarter(const std::string& w) {
    static const std::set<std::string> starters = {
        "auto", "bool", "int", "char", "short", "long", "unsigned",
        "signed", "float", "double", "const", "constexpr", "static",
        "mutable", "volatile", "inline",
    };
    return starters.count(w) != 0;
  }

  std::size_t handleIdent(std::size_t i) {
    const std::string& w = t[i].text;
    // Declarations first: type keywords (`auto it = ...`) are keywords
    // too, so this must run before the control-keyword dispatch.
    if (stmtStart && !cap.active && (!isKeyword(w) || isDeclStarter(w))) {
      std::size_t j = i;
      if (tryParseDecl(j)) {
        stmtStart = false;
        return j;
      }
    }
    if (isKeyword(w)) {
      if (w == "if" || w == "while" || w == "for" || w == "switch" ||
          w == "catch") {
        nextParenControl = true;
        nextParenIsFor = w == "for";
      } else if (w == "else" || w == "do" || w == "try") {
        newStmt();
      } else {
        if (w == "return" || w == "break" || w == "continue" ||
            w == "throw") {
          BodyEvent ev;
          ev.kind = BodyEvent::Kind::kJump;
          ev.line = t[i].line;
          emit(std::move(ev));
        }
        stmtStart = false;
      }
      return i + 1;
    }
    stmtStart = false;
    // Member-container subscript: conns_[id] obtains an element.
    if (isPunct(i + 1, "[") &&
        !(i > 0 && (isPunct(i - 1, ".") || isPunct(i - 1, "->"))) &&
        isOwnMember(w)) {
      const ClassInfo* ci = p.classInfo(f.className);
      const auto mit = ci->memberType.find(w);
      if (mit != ci->memberType.end() && isContainerType(mit->second)) {
        std::size_t j = i + 1;
        int d = 0;
        while (j < t.size() && t[j].kind != Token::Kind::kEnd) {
          if (isPunct(j, "[")) ++d;
          if (isPunct(j, "]") && --d == 0) break;
          if (isIdentTok(j) && !isKeyword(t[j].text) &&
              !(isPunct(j - 1, ".") || isPunct(j - 1, "->"))) {
            BodyEvent use;
            use.kind = BodyEvent::Kind::kIdent;
            use.line = t[j].line;
            use.var = t[j].text;
            emit(std::move(use));
          }
          ++j;
        }
        BodyEvent ev;
        ev.kind = BodyEvent::Kind::kContainerOp;
        ev.line = t[i].line;
        ev.container = f.className + "::" + w;
        ev.op = "subscript";
        emit(std::move(ev));
        return j + 1;
      }
    }
    if (isPunct(i + 1, "(")) {
      BodyEvent call;
      call.kind = BodyEvent::Kind::kCall;
      call.callee = w;
      call.line = t[i].line;
      if (i > 0 && (isPunct(i - 1, ".") || isPunct(i - 1, "->"))) {
        const Chain chain = receiverChain(i);
        if (chain.valid) {
          call.receiver = chain.base;
          // Direct member-container operation of the enclosing class?
          if (chain.path.size() == 1 && !chain.path.front().second &&
              chain.base != "this" && isOwnMember(chain.base) &&
              containerOpNames().count(w) != 0) {
            const ClassInfo* ci = p.classInfo(f.className);
            const auto mit = ci->memberType.find(chain.base);
            if (mit != ci->memberType.end() &&
                isContainerType(mit->second)) {
              call.kind = BodyEvent::Kind::kContainerOp;
              call.container = f.className + "::" + chain.base;
              call.op = w;
            }
          }
          if (call.kind == BodyEvent::Kind::kCall) {
            call.receiverType = resolveChainType(chain);
          }
        } else {
          call.receiver = "?";  // unknown receiver: never same-class
        }
      } else if (i > 0 && isPunct(i - 1, "::") && i > 1 &&
                 isIdentTok(i - 2)) {
        call.qualifier = t[i - 2].text;
      }
      ParenFrame fr;
      fr.kind = ParenFrame::Kind::kCall;
      fr.call = std::move(call);
      frames.push_back(std::move(fr));
      stmtStart = false;
      return i + 2;  // the call frame owns the '('
    }
    // Plain identifier use (first element of member chains only).
    if (!(i > 0 && (isPunct(i - 1, ".") || isPunct(i - 1, "->") ||
                    isPunct(i - 1, "::")))) {
      // Simple assignment re-seeds taint: `it = conns_.find(...)`.
      if (isPunct(i + 1, "=") && !cap.active &&
          !typeOfVar(w).empty()) {
        cap = Capture{};
        cap.active = true;
        cap.assign = true;
        cap.names = {w};
        cap.line = t[i].line;
        cap.frameBase = frames.size();
        return i + 2;
      }
      BodyEvent ev;
      ev.kind = BodyEvent::Kind::kIdent;
      ev.line = t[i].line;
      ev.var = w;
      emit(std::move(ev));
    }
    return i + 1;
  }
};

}  // namespace

std::vector<BodyEvent> walkBody(const Project& p, int funcId) {
  Walker w(p, funcId);
  w.run();
  return std::move(w.out);
}

// ---------------------------------------------------------------------------
// Project building

Project buildProject(std::vector<LexedFile> files) {
  Project p;
  p.files = std::move(files);
  p.allows.resize(p.files.size());
  std::map<std::string, std::set<std::string>> declExcludes;
  std::map<std::string, std::set<std::string>> declInvalidates;
  for (std::size_t fi = 0; fi < p.files.size(); ++fi) {
    Extractor ex(p.files[fi], static_cast<int>(fi), p, declExcludes,
                 declInvalidates);
    ex.run();
    for (const auto& [line, text] : p.files[fi].comments) {
      std::size_t from = 0;
      for (;;) {
        std::size_t end = 0;
        bool hasReason = false;
        const std::string rule = parseAllow(text, from, &end, &hasReason);
        if (rule.empty()) break;
        if (hasReason) {
          p.allows[fi][line].insert(rule);
        } else {
          p.badAllows.push_back({static_cast<int>(fi), line});
        }
        from = end;
      }
    }
  }
  for (std::size_t id = 0; id < p.funcs.size(); ++id) {
    FunctionDef& fn = p.funcs[id];
    p.funcsByName[fn.name].push_back(static_cast<int>(id));
    const auto ex = declExcludes.find(fn.qualified);
    if (ex != declExcludes.end()) {
      fn.excludes.insert(ex->second.begin(), ex->second.end());
    }
    const auto inv = declInvalidates.find(fn.qualified);
    if (inv != declInvalidates.end()) {
      fn.mayInvalidate.insert(inv->second.begin(), inv->second.end());
    }
  }
  return p;
}

std::vector<std::string> collectSourceFiles(
    const std::string& root, const std::string& compileCommands) {
  namespace fs = std::filesystem;
  std::set<std::string> headers;
  std::set<std::string> sources;
  for (const char* sub : {"src", "tools", "bench"}) {
    const fs::path base = fs::path(root) / sub;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".h") headers.insert(entry.path().string());
      if (ext == ".cpp") sources.insert(entry.path().string());
    }
  }
  if (!compileCommands.empty()) {
    std::ifstream in(compileCommands);
    if (in) {
      // Narrow the .cpp set to what the build actually compiles (headers
      // are not listed in compile commands and stay globbed).
      std::set<std::string> listed;
      std::ostringstream buf;
      buf << in.rdbuf();
      const std::string json = buf.str();
      const std::string key = "\"file\"";
      std::size_t at = 0;
      while ((at = json.find(key, at)) != std::string::npos) {
        const std::size_t open = json.find('"', at + key.size() + 1);
        if (open == std::string::npos) break;
        const std::size_t close = json.find('"', open + 1);
        if (close == std::string::npos) break;
        listed.insert(json.substr(open + 1, close - open - 1));
        at = close + 1;
      }
      if (!listed.empty()) {
        std::set<std::string> kept;
        for (const std::string& s : sources) {
          if (listed.count(s) != 0 ||
              listed.count(fs::weakly_canonical(s).string()) != 0) {
            kept.insert(s);
          }
        }
        if (!kept.empty()) sources = std::move(kept);
      }
    }
  }
  std::vector<std::string> out(headers.begin(), headers.end());
  out.insert(out.end(), sources.begin(), sources.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ute::check
