#include "analyze/rules.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <filesystem>
#include <map>
#include <set>

namespace ute::check {

namespace {

constexpr const char* kBlocking = "blocking";
constexpr const char* kInvalidate = "invalidate";
constexpr const char* kLockOrder = "lockorder";
constexpr const char* kBadSuppression = "bad-suppression";

bool hasWord(const std::string& text, const std::string& word) {
  std::size_t at = 0;
  while ((at = text.find(word, at)) != std::string::npos) {
    const bool leftOk =
        at == 0 || (std::isalnum(static_cast<unsigned char>(text[at - 1])) ==
                        0 &&
                    text[at - 1] != '_');
    const std::size_t end = at + word.size();
    const bool rightOk =
        end >= text.size() ||
        (std::isalnum(static_cast<unsigned char>(text[end])) == 0 &&
         text[end] != '_');
    if (leftOk && rightOk) return true;
    at = end;
  }
  return false;
}

bool hasRefOrPtr(const std::string& typeText) {
  return typeText.find('&') != std::string::npos ||
         typeText.find('*') != std::string::npos;
}

/// Member name qualified by the enclosing class when it names one of its
/// members; raw otherwise.
std::string qualifyMember(const Project& p, const FunctionDef& f,
                          const std::string& name) {
  const ClassInfo* ci = p.classInfo(f.className);
  if (ci != nullptr && ci->memberType.count(name) != 0) {
    return f.className + "::" + name;
  }
  return name;
}

// ---------------------------------------------------------------------------
// Rule 1: blocking-in-reactor

/// Non-empty description when the call is a blocking primitive.
std::string blockingSinkDesc(const BodyEvent& ev) {
  struct Method {
    const char* cls;
    const char* name;
  };
  static const std::vector<Method> kMethods = {
      {"CondVar", "wait"},        {"CondVar", "waitFor"},
      {"Channel", "send"},        {"Channel", "receive"},
      {"ThreadPool", "submit"},   {"ThreadPool", "wait"},
      {"ThreadPool", "parallelFor"}, {"ThreadPool", "shutdown"},
      {"TcpSocket", "connectTo"}, {"TcpSocket", "sendAll"},
      {"TcpSocket", "recvAll"},
  };
  // Any method of these classes does file I/O.
  static const std::set<std::string> kIoClasses = {
      "FileReader", "FileWriter", "ByteSource", "MappedFile",
  };
  static const std::set<std::string> kFreeFns = {
      "readWholeFile", "writeWholeFile", "sendMessage", "recvMessage",
  };
  // Blocking regardless of receiver type (std::thread::join, sleeps).
  static const std::set<std::string> kAnyReceiver = {
      "join", "sleep_for", "usleep",
  };
  if (ev.kind != BodyEvent::Kind::kCall) return "";
  if (kAnyReceiver.count(ev.callee) != 0) return ev.callee + "()";
  const std::string& cls =
      !ev.receiverType.empty() ? ev.receiverType : ev.qualifier;
  if (!cls.empty()) {
    if (kIoClasses.count(cls) != 0) return cls + "::" + ev.callee;
    for (const Method& m : kMethods) {
      if (cls == m.cls && ev.callee == m.name) return cls + "::" + ev.callee;
    }
    return "";
  }
  if (ev.receiver.empty() && kFreeFns.count(ev.callee) != 0) {
    return ev.callee + "()";
  }
  return "";
}

/// Reactor-thread entry points: the loop's own frame handlers plus every
/// Reactor::Handler callback implementation.
bool isReactorEntry(const Project& p, const FunctionDef& f) {
  static const std::set<std::string> kNamed = {
      "handleRead", "parseFrames", "applyCompletion",
  };
  if (kNamed.count(f.name) != 0) return true;
  static const std::set<std::string> kCallbacks = {
      "onRequest", "onConnError", "onClosed",
  };
  if (kCallbacks.count(f.name) == 0) return false;
  const ClassInfo* ci = p.classInfo(f.className);
  return ci != nullptr && hasWord(ci->basesText, "Handler");
}

// ---------------------------------------------------------------------------
// Token-level project invariants. Each applies to repo-relative path
// prefixes; a finding is waived by a justified allow() like any other.

/// One containment row: what may not appear in the files it covers. A
/// rule with several messages spans several rows.
struct Containment {
  const char* rule;
  std::vector<std::string> calls;     ///< banned free calls (see isFreeCall)
  std::vector<std::string> idents;    ///< banned anywhere; `std::x` needs std::
  std::vector<std::string> includes;  ///< target prefixes: `<x>` or `<dir/`
  std::vector<std::string> dirs;      ///< path prefixes the row applies to
  std::vector<std::string> exempt;    ///< path prefixes exempt from it
  const char* message;                ///< `%s` is replaced by what matched
};

const std::vector<Containment>& containmentTable() {
  static const std::vector<std::string> kTree = {"src/", "tools/", "bench/"};
  static const std::vector<std::string> kServing = {"src/", "tools/"};
  static const std::vector<std::string> kFed = {"src/fed/",
                                                "tools/uterouter.cpp"};
  static const std::vector<std::string> kReactor = {"src/server/reactor."};
  static const std::vector<std::string> kReactorTcp = {"src/server/reactor.",
                                                       "src/server/tcp.cpp"};
  static const std::vector<Containment> kRows = {
      {"raw-io",
       {"fopen", "open", "pread", "pwrite", "writev", "mmap", "munmap"}, {},
       {}, {"src/"}, {"src/support/"},
       "raw %s outside src/support — go through FileReader / FileWriter / "
       "ByteSource"},
      {"raw-mutex", {},
       {"std::mutex", "std::condition_variable", "std::condition_variable_any",
        "std::lock_guard", "std::unique_lock", "std::scoped_lock",
        "std::shared_mutex", "std::shared_lock"},
       {"<mutex>", "<condition_variable>"}, kTree,
       {"src/support/thread_annotations.h"},
       "%s outside support/thread_annotations.h — use ute::Mutex / "
       "ute::MutexLock / ute::CondVar"},
      {"bench-determinism", {"time", "rand", "srand"},
       {"system_clock", "random_device", "localtime", "gmtime"}, {},
       {"bench/"}, {},
       "%s in bench code — BENCH_*.json must be reproducible (steady_clock "
       "for timing, seeded ute::Rng for workloads)"},
      {"codec-containment", {},
       {"putVarint", "getVarint", "zigzagEncode", "zigzagDecode"}, {}, kTree,
       {"src/slog/"},
       "%s() outside src/slog — the varint/zigzag codec has exactly one "
       "implementation (src/slog/slog_codec.h)"},
      {"fed-socket-containment", {}, {},
       {"<sys/socket.h>", "<netinet/", "<arpa/inet.h>", "<netdb.h>"}, kFed,
       {},
       "%s in federation code — sockets are reached only through "
       "src/server/tcp.h"},
      {"fed-socket-containment",
       {"socket", "connect", "bind", "listen", "accept", "accept4",
        "setsockopt", "getsockopt", "recv", "send", "recvfrom", "sendto",
        "getaddrinfo", "freeaddrinfo", "inet_pton", "inet_ntop", "inet_addr",
        "htons", "ntohs", "htonl", "ntohl"},
       {}, {}, kFed, {},
       "raw %s in federation code — use TcpListener/TcpSocket from "
       "src/server/tcp.h"},
      {"reactor-containment", {}, {}, {"<sys/epoll.h>", "<sys/eventfd.h>"},
       kServing, kReactor,
       "%s outside src/server/reactor.* — the event loop has exactly one "
       "home; implement Reactor::Handler instead"},
      {"reactor-containment",
       {"epoll_create", "epoll_create1", "epoll_ctl", "epoll_wait",
        "epoll_pwait", "epoll_pwait2", "eventfd"},
       {}, {}, kServing, kReactor,
       "%s outside src/server/reactor.* — implement Reactor::Handler "
       "instead of running a readiness loop"},
      {"reactor-containment", {"fcntl"}, {"O_NONBLOCK", "SOCK_NONBLOCK"}, {},
       kServing, kReactorTcp,
       "%s outside src/server/reactor.* and src/server/tcp.cpp — "
       "non-blocking fd plumbing belongs to the reactor"},
      {"reactor-containment", {"poll", "ppoll", "select", "pselect"}, {}, {},
       kServing, kReactorTcp,
       "%s outside src/server/reactor.* and src/server/tcp.cpp — readiness "
       "belongs to the reactor's epoll loop"},
  };
  return kRows;
}

bool underAny(const std::string& path,
              const std::vector<std::string>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](const std::string& pre) {
                       return path.compare(0, pre.size(), pre) == 0;
                     });
}

bool isPunct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

/// True when t[i] opens a call to the C/POSIX function of that name:
/// `f(`, `::f(` or `std::f(`. Member calls (`x.f(`, `x->f(`) and calls
/// qualified by any other class or namespace (`Foo::f(`) name a
/// different function.
bool isFreeCall(const std::vector<Token>& t, std::size_t i) {
  if (!isPunct(t[i + 1], "(")) return false;
  if (i == 0) return true;
  if (isPunct(t[i - 1], ".") || isPunct(t[i - 1], "->")) return false;
  if (!isPunct(t[i - 1], "::") || i == 1) return true;
  // Keywords that can precede a globally qualified call (`return ::f(`).
  static const std::set<std::string> kKeywords = {
      "return", "throw", "case", "else", "do", "co_return", "co_yield",
      "co_await", "and", "or", "not",
  };
  const Token& scope = t[i - 2];
  if (scope.kind == Token::Kind::kIdent) {
    return scope.text == "std" || kKeywords.count(scope.text) != 0;
  }
  return !isPunct(scope, ">");  // Foo<T>::f
}

/// True when t[i] is the identifier `name`; a `std::` prefix on `name`
/// must be spelled out in the source too.
bool isIdent(const std::vector<Token>& t, std::size_t i,
             const std::string& name) {
  static const std::string kStd = "std::";
  if (name.compare(0, kStd.size(), kStd) != 0) return t[i].text == name;
  return t[i].text == name.substr(kStd.size()) && i >= 2 &&
         isPunct(t[i - 1], "::") && t[i - 2].text == "std";
}

bool isNumber(const Token& t, const char* lowerText) {
  if (t.kind != Token::Kind::kNumber) return false;
  std::string lower = t.text;
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  return lower == lowerText;
}

/// End offset of the LEB128 continuation partner (`| 0x80`, `|= 0x80`,
/// `>>= 7`) starting at t[k], or 0 when there is none.
std::size_t lebPartnerEnd(const std::vector<Token>& t, std::size_t k) {
  if ((isPunct(t[k], "|") || isPunct(t[k], "|=")) &&
      isNumber(t[k + 1], "0x80")) {
    return t[k + 1].offset + t[k + 1].text.size();
  }
  if (k + 3 < t.size() && isPunct(t[k], ">") && isPunct(t[k + 1], ">") &&
      isPunct(t[k + 2], "=") && t[k + 1].offset == t[k].offset + 1 &&
      t[k + 2].offset == t[k].offset + 2 && isNumber(t[k + 3], "7")) {
    return t[k + 3].offset + 1;
  }
  return 0;
}

void checkInvariants(const Project& p, std::vector<Finding>& findings) {
  auto report = [&](std::size_t fi, int line, const std::string& rule,
                    const std::string& message) {
    if (p.allowed(static_cast<int>(fi), line, rule)) return;
    findings.push_back({p.files[fi].path, line, rule, message});
  };
  auto format = [](const char* message, const std::string& what) {
    std::string out = message;
    out.replace(out.find("%s"), 2, what);
    return out;
  };
  static const std::vector<std::string> kFileIoHeaders = {
      "\"support/file_io.h\"", "\"support/mapped_file.h\"",
      "\"support/byte_source.h\""};
  // A hand-rolled LEB128 loop needs the 7-bit mask and, within this many
  // bytes, the continuation bit or the 7-bit shift; requiring the pair
  // keeps unrelated 0x7f masks out of the rule.
  constexpr std::size_t kLebWindow = 200;

  for (std::size_t fi = 0; fi < p.files.size(); ++fi) {
    const LexedFile& f = p.files[fi];
    const std::vector<Token>& t = f.tokens;

    for (const Containment& row : containmentTable()) {
      if (!underAny(f.path, row.dirs) || underAny(f.path, row.exempt)) {
        continue;
      }
      for (const Include& inc : f.includes) {
        for (const std::string& banned : row.includes) {
          if (inc.target.compare(0, banned.size(), banned) == 0) {
            report(fi, inc.line, row.rule,
                   format(row.message, "#include " + inc.target));
          }
        }
      }
      // Code and #define bodies alike: a banned call cannot hide in a
      // macro.
      for (const std::vector<Token>* toks : {&t, &f.macroTokens}) {
        const std::vector<Token>& m = *toks;
        for (std::size_t i = 0; i + 1 < m.size(); ++i) {
          if (m[i].kind != Token::Kind::kIdent) continue;
          for (const std::string& call : row.calls) {
            if (m[i].text == call && isFreeCall(m, i)) {
              report(fi, m[i].line, row.rule,
                     format(row.message, call + "()"));
            }
          }
          for (const std::string& ident : row.idents) {
            if (isIdent(m, i, ident)) {
              report(fi, m[i].line, row.rule, format(row.message, ident));
            }
          }
        }
      }
    }

    // io-context: IoError is held to it only in file-I/O code (socket
    // code reports peers, not file offsets); CorruptFileError always.
    if (underAny(f.path, {"src/"})) {
      const bool fileIo = std::any_of(
          f.includes.begin(), f.includes.end(), [](const Include& inc) {
            return std::find(kFileIoHeaders.begin(), kFileIoHeaders.end(),
                             inc.target) != kFileIoHeaders.end();
          });
      for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].text != "throw" || !isPunct(t[i + 2], "(")) continue;
        const std::string& kind = t[i + 1].text;
        if (kind != "CorruptFileError" && (kind != "IoError" || !fileIo)) {
          continue;
        }
        bool hasContext = false;
        for (std::size_t j = i; j < t.size() && !isPunct(t[j], ";"); ++j) {
          hasContext = hasContext || t[j].text == "ioContext";
        }
        if (!hasContext) {
          report(fi, t[i].line, "io-context",
                 "throw " + kind + "(...) without ioContext(path[, offset])");
        }
      }
    }

    if (!underAny(f.path, {"src/", "tools/", "bench/"})) continue;

    // ts-escape: the escape hatch needs its reason on the lines above.
    if (!underAny(f.path, {"src/support/thread_annotations.h"})) {
      int lastLine = 0;
      for (const Token& tok : t) {
        if (tok.text != "UTE_NO_THREAD_SAFETY_ANALYSIS" ||
            tok.line == lastLine) {
          continue;
        }
        lastLine = tok.line;
        bool justified = false;
        for (int l = tok.line - 3; l < tok.line; ++l) {
          justified = justified || f.comments.count(l) != 0;
        }
        if (!justified) {
          report(fi, tok.line, "ts-escape",
                 "UTE_NO_THREAD_SAFETY_ANALYSIS without a justification "
                 "comment on the preceding lines");
        }
      }
    }

    // codec-containment, second half: hand-rolled LEB128 loops.
    if (underAny(f.path, {"src/slog/"})) continue;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (!isPunct(t[i], "&") || !isNumber(t[i + 1], "0x7f")) continue;
      const std::size_t lo = t[i].offset > kLebWindow
                                 ? t[i].offset - kLebWindow
                                 : 0;
      const std::size_t hi = t[i + 1].offset + t[i + 1].text.size() +
                             kLebWindow;
      std::size_t k = i;
      while (k > 0 && t[k - 1].offset >= lo) --k;
      bool paired = false;
      for (; k + 1 < t.size() && t[k].offset < hi && !paired; ++k) {
        const std::size_t end = lebPartnerEnd(t, k);
        paired = end != 0 && end <= hi;
      }
      if (paired) {
        report(fi, t[i].line, "codec-containment",
               "hand-rolled LEB128 loop outside src/slog — use "
               "putVarint/getVarint from src/slog/slog_codec.h");
      }
    }
  }
}

}  // namespace

std::vector<std::string> ruleList() {
  return {
      "blocking — no blocking primitive (CondVar wait, Channel send/receive, "
      "ThreadPool submit, file I/O, socket connect/accept) reachable from a "
      "reactor entry point",
      "invalidate — no use of a pointer/reference/iterator obtained from a "
      "member container after an intervening call that may erase/clear it "
      "(UTE_MAY_INVALIDATE)",
      "lockorder — ute::Mutex acquisition nesting across the project must be "
      "acyclic",
      "raw-io — fopen/open/mmap confined to src/support "
      "(FileReader/ByteSource)",
      "io-context — throw IoError/CorruptFileError carries "
      "ioContext(path[, off])",
      "raw-mutex — no std:: sync primitives outside thread_annotations.h",
      "ts-escape — UTE_NO_THREAD_SAFETY_ANALYSIS carries a justification",
      "bench-determinism — no wall-clock or nondeterministic rand in bench/",
      "codec-containment — varint/zigzag codec only in src/slog",
      "fed-socket-containment — federation uses tcp.h, never raw sockets",
      "reactor-containment — epoll/eventfd/fcntl/poll/select only in "
      "reactor.* (+ tcp.cpp)",
      "bad-suppression — every `utecheck: allow(rule)` must carry a reason "
      "after an em-dash",
  };
}

std::vector<Finding> runChecks(const Project& p) {
  std::vector<Finding> findings;
  const std::size_t n = p.funcs.size();

  std::vector<std::vector<BodyEvent>> bodies(n);
  for (std::size_t i = 0; i < n; ++i) {
    bodies[i] = walkBody(p, static_cast<int>(i));
  }

  struct Edge {
    int to = -1;
    int line = 0;
  };
  std::vector<std::vector<Edge>> edges(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::set<int> seen;
    for (const BodyEvent& ev : bodies[i]) {
      if (ev.kind != BodyEvent::Kind::kCall) continue;
      for (const int to : p.resolveCall(p.funcs[i], ev)) {
        if (to == static_cast<int>(i)) continue;
        if (seen.insert(to).second) edges[i].push_back({to, ev.line});
      }
    }
  }
  auto fileOf = [&](int funcId) { return p.funcs[funcId].file; };
  auto pathOf = [&](int funcId) {
    return p.files[static_cast<std::size_t>(fileOf(funcId))].path;
  };

  // --- Rule 1: blocking-in-reactor -----------------------------------------
  // Per function: unsuppressed direct blocking calls.
  struct SinkSite {
    int line = 0;
    std::string desc;
  };
  std::vector<std::vector<SinkSite>> sinks(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const BodyEvent& ev : bodies[i]) {
      const std::string desc = blockingSinkDesc(ev);
      if (desc.empty()) continue;
      if (p.allowed(fileOf(static_cast<int>(i)), ev.line, kBlocking)) {
        continue;
      }
      sinks[i].push_back({ev.line, desc});
    }
  }
  // BFS from each entry; an edge suppressed with allow(blocking) at its
  // call site cuts every path through it.
  std::set<std::string> blockingKeys;
  for (std::size_t e = 0; e < n; ++e) {
    if (!isReactorEntry(p, p.funcs[e])) continue;
    std::map<int, int> parent;  // func -> caller on the BFS tree
    std::deque<int> queue{static_cast<int>(e)};
    parent[static_cast<int>(e)] = -1;
    while (!queue.empty()) {
      const int v = queue.front();
      queue.pop_front();
      for (const SinkSite& s : sinks[static_cast<std::size_t>(v)]) {
        const std::string key =
            pathOf(v) + ":" + std::to_string(s.line) + ":" + s.desc;
        if (!blockingKeys.insert(key).second) continue;
        std::vector<std::string> chain;
        for (int at = v; at != -1; at = parent[at]) {
          chain.push_back(p.funcs[static_cast<std::size_t>(at)].qualified);
        }
        std::reverse(chain.begin(), chain.end());
        std::string path;
        for (const std::string& c : chain) {
          if (!path.empty()) path += " -> ";
          path += c;
        }
        findings.push_back(
            {pathOf(v), s.line, kBlocking,
             "blocking call " + s.desc + " reachable from reactor entry " +
                 p.funcs[e].qualified + " (" + path +
                 "); hand it to a worker or annotate the call site with "
                 "`// utecheck: allow(blocking) — <reason>`"});
      }
      for (const Edge& edge : edges[static_cast<std::size_t>(v)]) {
        if (parent.count(edge.to) != 0) continue;
        if (p.allowed(fileOf(v), edge.line, kBlocking)) continue;
        parent[edge.to] = v;
        queue.push_back(edge.to);
      }
    }
  }

  // --- Rule 2: re-entrant invalidation -------------------------------------
  // Closure: containers each function may erase/clear, from direct
  // operations, UTE_MAY_INVALIDATE annotations, and everything callable.
  static const std::set<std::string> kEraseOps = {
      "erase", "clear", "pop_front", "pop_back",
  };
  std::vector<std::set<std::string>> invalidates(n);
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionDef& f = p.funcs[i];
    for (const std::string& raw : f.mayInvalidate) {
      invalidates[i].insert(qualifyMember(p, f, raw));
    }
    for (const BodyEvent& ev : bodies[i]) {
      if (ev.kind == BodyEvent::Kind::kContainerOp &&
          kEraseOps.count(ev.op) != 0) {
        invalidates[i].insert(ev.container);
      }
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      for (const Edge& edge : edges[i]) {
        for (const std::string& c :
             invalidates[static_cast<std::size_t>(edge.to)]) {
          if (invalidates[i].insert(c).second) changed = true;
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionDef& f = p.funcs[i];
    struct Taint {
      std::set<std::string> containers;
      int declDepth = 0;
      bool poisoned = false;
      std::string poisonDesc;
      int poisonLine = 0;
      int poisonStmt = 0;
    };
    std::map<std::string, Taint> vars;
    for (const BodyEvent& ev : bodies[i]) {
      switch (ev.kind) {
        case BodyEvent::Kind::kScopeClose: {
          for (auto it = vars.begin(); it != vars.end();) {
            if (it->second.declDepth > ev.depth) it = vars.erase(it);
            else ++it;
          }
          break;
        }
        case BodyEvent::Kind::kJump: {
          // return/break/continue/throw: whatever was poisoned on this
          // path is not reachable by the fall-through statements
          // (`if (cond) { erase(it); return; } use(it)` is fine).
          for (auto& [name, taint] : vars) taint.poisoned = false;
          break;
        }
        case BodyEvent::Kind::kDecl:
        case BodyEvent::Kind::kAssign: {
          const std::string type = ev.kind == BodyEvent::Kind::kDecl
                                       ? ev.varType
                                       : std::string();
          // Only the outermost obtain in the initializer yields the
          // element the variable refers to: in
          // `conns_.find(partialOrder_.front())` the inner front() is
          // just a key computation.
          std::set<std::string> from;
          if (!ev.obtainedFrom.empty()) from.insert(ev.obtainedFrom.back());
          bool propagated = false;
          for (const std::string& id : ev.initIdents) {
            const auto src = vars.find(id);
            if (src == vars.end() || id == ev.var) continue;
            from.insert(src->second.containers.begin(),
                        src->second.containers.end());
            propagated = true;
          }
          // A value copy does not dangle: taint only references,
          // pointers, iterators, and direct `auto` obtains (find/begin
          // results). Propagation through a value initializer (e.g.
          // `const ConnId id = conn.id;`) is always safe.
          const bool refLike = hasRefOrPtr(type) ||
                               hasWord(type, "iterator");
          const bool direct = !ev.obtainedFrom.empty();
          const bool taint =
              !from.empty() &&
              (refLike || (direct && (hasWord(type, "auto") ||
                                      type.empty())));
          (void)propagated;
          if (ev.kind == BodyEvent::Kind::kDecl) {
            vars.erase(ev.var);
            if (taint) vars[ev.var] = {from, ev.depth, false, "", 0, 0};
          } else {
            const auto it = vars.find(ev.var);
            if (it != vars.end()) {
              if (taint) {
                it->second.containers = from;
                it->second.poisoned = false;
              } else {
                vars.erase(it);
              }
            } else if (taint && direct) {
              // `it = conns_.find(...)` re-seeds an iterator variable
              // whose declaration predates this walk window.
              vars[ev.var] = {from, ev.depth, false, "", 0, 0};
            }
          }
          break;
        }
        case BodyEvent::Kind::kCall:
        case BodyEvent::Kind::kContainerOp: {
          std::set<std::string> poison;
          std::string desc;
          if (ev.kind == BodyEvent::Kind::kContainerOp) {
            if (kEraseOps.count(ev.op) != 0) {
              poison.insert(ev.container);
              desc = ev.container + "." + ev.op + "()";
            }
          } else {
            for (const int to : p.resolveCall(f, ev)) {
              const auto& set = invalidates[static_cast<std::size_t>(to)];
              poison.insert(set.begin(), set.end());
            }
            desc = ev.callee + "()";
          }
          if (poison.empty()) break;
          for (auto& [name, taint] : vars) {
            if (taint.poisoned) continue;
            for (const std::string& c : taint.containers) {
              if (poison.count(c) != 0) {
                taint.poisoned = true;
                taint.poisonDesc = desc;
                taint.poisonLine = ev.line;
                taint.poisonStmt = ev.stmt;
                break;
              }
            }
          }
          break;
        }
        case BodyEvent::Kind::kIdent: {
          const auto it = vars.find(ev.var);
          if (it == vars.end() || !it->second.poisoned) break;
          Taint& taint = it->second;
          // Uses within the poisoning statement itself are the classic
          // safe idiom `row = traces_.erase(row)` / ternary forms.
          if (ev.stmt <= taint.poisonStmt) break;
          taint.poisoned = false;  // report the first use, then re-arm
          if (p.allowed(f.file, ev.line, kInvalidate)) break;
          std::string owner;
          for (const std::string& c : taint.containers) {
            if (!owner.empty()) owner += ", ";
            owner += c;
          }
          findings.push_back(
              {pathOf(static_cast<int>(i)), ev.line, kInvalidate,
               "'" + ev.var + "' (obtained from " + owner +
                   ") is used after " + taint.poisonDesc + " on line " +
                   std::to_string(taint.poisonLine) +
                   ", which may erase it; re-look it up or annotate "
                   "`// utecheck: allow(invalidate) — <reason>`"});
          break;
        }
        default:
          break;
      }
    }
  }

  // --- Rule 3: lock-order cycles -------------------------------------------
  // Closure: mutexes each function may acquire (MutexLock sites,
  // UTE_EXCLUDES annotations, callees).
  std::vector<std::set<std::string>> acquires(n);
  auto lockDeclMutex = [&](const FunctionDef& f,
                           const BodyEvent& ev) -> std::string {
    if (ev.kind != BodyEvent::Kind::kDecl ||
        !hasWord(ev.varType, "MutexLock") || ev.initIdents.empty()) {
      return "";
    }
    return qualifyMember(p, f, ev.initIdents.front());
  };
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionDef& f = p.funcs[i];
    for (const std::string& raw : f.excludes) {
      acquires[i].insert(qualifyMember(p, f, raw));
    }
    for (const BodyEvent& ev : bodies[i]) {
      const std::string mu = lockDeclMutex(f, ev);
      if (!mu.empty()) acquires[i].insert(mu);
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      for (const Edge& edge : edges[i]) {
        for (const std::string& mu :
             acquires[static_cast<std::size_t>(edge.to)]) {
          if (acquires[i].insert(mu).second) changed = true;
        }
      }
    }
  }
  struct LockEdge {
    int file = -1;
    int line = 0;
  };
  std::map<std::string, std::map<std::string, LockEdge>> lockGraph;
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionDef& f = p.funcs[i];
    std::vector<std::pair<std::string, int>> held;  // mutex, decl depth
    for (const BodyEvent& ev : bodies[i]) {
      if (ev.kind == BodyEvent::Kind::kScopeClose) {
        while (!held.empty() && held.back().second > ev.depth) {
          held.pop_back();
        }
        continue;
      }
      const std::string mu = lockDeclMutex(f, ev);
      if (!mu.empty()) {
        if (!p.allowed(f.file, ev.line, kLockOrder)) {
          for (const auto& [h, d] : held) {
            if (h != mu && lockGraph[h].count(mu) == 0) {
              lockGraph[h][mu] = {f.file, ev.line};
            }
          }
        }
        held.push_back({mu, ev.depth});
        continue;
      }
      if (ev.kind == BodyEvent::Kind::kCall && !held.empty() &&
          !p.allowed(f.file, ev.line, kLockOrder)) {
        for (const int to : p.resolveCall(f, ev)) {
          for (const std::string& a :
               acquires[static_cast<std::size_t>(to)]) {
            for (const auto& [h, d] : held) {
              if (h != a && lockGraph[h].count(a) == 0) {
                lockGraph[h][a] = {f.file, ev.line};
              }
            }
          }
        }
      }
    }
  }
  // Any edge u->v with a path v ->* u closes a cycle. Small graph:
  // BFS per edge, dedupe by the cycle's node set.
  std::set<std::string> cycleKeys;
  for (const auto& [u, outs] : lockGraph) {
    for (const auto& [v, site] : outs) {
      std::map<std::string, std::string> parent;
      std::deque<std::string> queue{v};
      parent[v] = "";
      bool found = false;
      while (!queue.empty() && !found) {
        const std::string at = queue.front();
        queue.pop_front();
        const auto it = lockGraph.find(at);
        if (it == lockGraph.end()) continue;
        for (const auto& [next, s] : it->second) {
          if (parent.count(next) != 0) continue;
          parent[next] = at;
          if (next == u) {
            found = true;
            break;
          }
          queue.push_back(next);
        }
      }
      if (!found) continue;
      // Walk the BFS tree back from u to v: the path v ->* u, which the
      // u -> v edge closes into a cycle.
      std::vector<std::string> cycle;
      for (std::string at = u;; at = parent[at]) {
        cycle.push_back(at);
        if (at == v) break;
      }
      std::reverse(cycle.begin(), cycle.end());  // v ... u
      std::set<std::string> key(cycle.begin(), cycle.end());
      std::string keyText;
      for (const std::string& k : key) keyText += k + "|";
      if (!cycleKeys.insert(keyText).second) continue;
      std::string text = u;
      for (const std::string& c : cycle) text += " -> " + c;
      findings.push_back(
          {p.files[static_cast<std::size_t>(site.file)].path, site.line,
           kLockOrder,
           "lock-order cycle: " + text +
               "; acquire these mutexes in one global order or annotate "
               "the site with `// utecheck: allow(lockorder) — <reason>`"});
    }
  }

  checkInvariants(p, findings);

  // --- Suppression hygiene -------------------------------------------------
  for (const Project::BadAllow& bad : p.badAllows) {
    findings.push_back(
        {p.files[static_cast<std::size_t>(bad.file)].path, bad.line,
         kBadSuppression,
         "utecheck: allow(...) without a justification — append "
         "`— <one-line reason>`"});
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

std::vector<Finding> runChecksOnFiles(const std::vector<std::string>& paths,
                                      const std::string& root) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path base = root.empty() ? fs::path() : fs::weakly_canonical(root, ec);
  std::vector<LexedFile> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) {
    files.push_back(lexPath(path));
    if (base.empty()) continue;
    const std::string rel =
        fs::weakly_canonical(path, ec).lexically_relative(base).generic_string();
    if (!ec && !rel.empty() && rel.compare(0, 2, "..") != 0) {
      files.back().path = rel;
    }
  }
  return runChecks(buildProject(std::move(files)));
}

}  // namespace ute::check
