// utecheck project model: per-file function/class extraction and the
// whole-project structures the rules run over.
//
// The extractor is a pragmatic token-pattern parser, not a compiler
// front end. It recovers, per file: class/struct definitions with their
// member-variable types and base clauses, function definitions with
// qualified names and body token ranges, parameter types, and the
// UTE_EXCLUDES / UTE_MAY_INVALIDATE annotations on declarators. On top
// of that, walkBody() re-walks one function body into an ordered event
// stream (declarations, calls, member-container operations, identifier
// uses, scopes) that all three rules consume; call receivers are typed
// through locals, parameters, and member declarations, and lambdas
// passed to deferring callees (trySubmit, submit, std::thread, ...) are
// excluded — they run on another thread, so their calls must not count
// against the enclosing reactor-thread function.
//
// Known limits (documented in docs/STATIC_ANALYSIS.md): overload sets
// collapse to name+class, virtual dispatch over-approximates to every
// same-named method of a derived class, and container tracking covers
// direct members of the enclosing class only.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/lexer.h"

namespace ute::check {

struct ClassInfo {
  std::string name;       ///< short name (last :: component)
  std::string basesText;  ///< raw base-clause token text ("" = none)
  std::map<std::string, std::string> memberType;  ///< member -> type text
};

struct FunctionDef {
  int file = -1;
  std::string className;  ///< "" for free functions
  std::string name;       ///< short name
  std::string qualified;  ///< Class::name or name
  int line = 0;
  std::size_t paramsBegin = 0;  ///< token index of the '('
  std::size_t bodyBegin = 0;    ///< token index of the body '{'
  std::size_t bodyEnd = 0;      ///< token index of the matching '}'
  std::map<std::string, std::string> paramType;  ///< param -> type text
  std::set<std::string> mayInvalidate;  ///< UTE_MAY_INVALIDATE args (raw)
  std::set<std::string> excludes;       ///< UTE_EXCLUDES args (raw)
};

/// One step of a function body, in token order. Calls and container
/// operations are emitted at their closing parenthesis so that argument
/// identifier uses come first (a variable consumed *by* an invalidating
/// call is not a use-after-invalidation).
struct BodyEvent {
  enum class Kind {
    kScopeOpen,
    kScopeClose,
    kDecl,
    kAssign,
    kCall,
    kContainerOp,
    kIdent,
    kJump,  ///< return / break / continue / throw — leaves this path
  };
  Kind kind = Kind::kIdent;
  int line = 0;
  int depth = 0;  ///< brace depth after the event (body starts at 1)
  int stmt = 0;   ///< statement ordinal (uses within one statement share it)

  // kDecl / kAssign / kIdent
  std::string var;
  std::string varType;                   ///< kDecl only
  std::vector<std::string> initIdents;   ///< identifiers in the initializer
  std::vector<std::string> obtainedFrom; ///< containers the init drew from

  // kCall
  std::string callee;
  std::string qualifier;     ///< A in A::f(...), "" otherwise
  std::string receiver;      ///< base variable of x.f(...) / x->f(...)
  std::string receiverType;  ///< resolved class short name, "" if unknown
  std::vector<std::string> argIdents;

  // kContainerOp (operation on a member container of the enclosing class)
  std::string container;  ///< Class::member
  std::string op;         ///< find / erase / clear / subscript / ...
};

class Project {
 public:
  std::vector<LexedFile> files;
  std::map<std::string, ClassInfo> classes;  ///< by short name
  std::vector<FunctionDef> funcs;
  std::map<std::string, std::vector<int>> funcsByName;
  /// Per file: line -> rules allowed by `// utecheck: allow(rule) — why`.
  std::vector<std::map<int, std::set<std::string>>> allows;
  struct BadAllow {
    int file = -1;
    int line = 0;
  };
  std::vector<BadAllow> badAllows;  ///< allow() without a reason

  const ClassInfo* classInfo(const std::string& name) const;
  /// True when `rule` is allowed on `line` or the line above it.
  bool allowed(int file, int line, const std::string& rule) const;
  /// Candidate targets of one call event made from `from`.
  std::vector<int> resolveCall(const FunctionDef& from,
                               const BodyEvent& call) const;
  /// Classes whose base clause names `base` (virtual dispatch targets).
  std::vector<std::string> derivedOf(const std::string& base) const;

  /// First / last identifier in `typeText` naming a known class — the
  /// outer type of a direct member (`Channel<T> c_` -> Channel) vs the
  /// element type behind a subscript (`vector<unique_ptr<B>>` -> B).
  std::string firstClassIn(const std::string& typeText) const;
  std::string lastClassIn(const std::string& typeText) const;
};

/// True when `typeText` names a standard container (map / set / vector /
/// deque / list variants) — the member kinds the invalidation rule tracks.
bool isContainerType(const std::string& typeText);

Project buildProject(std::vector<LexedFile> files);

std::vector<BodyEvent> walkBody(const Project& p, int funcId);

/// The analysis file set: every *.h / *.cpp under root/src, root/tools
/// and root/bench, optionally narrowed to compile-command entries (plus all
/// headers, which compile commands do not list). Sorted, deduplicated.
std::vector<std::string> collectSourceFiles(const std::string& root,
                                            const std::string& compileCommands);

}  // namespace ute::check
