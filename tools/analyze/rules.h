// utecheck rules (docs/STATIC_ANALYSIS.md "utecheck").
//
// Three whole-project checks built on the call graph:
//
//   blocking    — no call path from a reactor entry point (handleRead,
//                 parseFrames, applyCompletion, Reactor::Handler
//                 callbacks) may reach a blocking primitive.
//   invalidate  — no use of a pointer/reference/iterator obtained from
//                 a member container after an intervening call whose
//                 call graph can erase/clear that container (the PR 9
//                 use-after-free class), driven by UTE_MAY_INVALIDATE.
//   lockorder   — ute::Mutex acquisition nesting must form a DAG; any
//                 cycle is a potential deadlock.
//
// Eight token-level project invariants, scoped by repo-relative path:
// raw-io, raw-mutex, bench-determinism, codec-containment,
// fed-socket-containment and reactor-containment (one containment
// table), plus io-context, ts-escape and the hand-rolled LEB128 half of
// codec-containment.
//
// Suppression: `// utecheck: allow(<rule>) — <reason>` on the flagged
// line or the line above. An allow() without a reason is itself a
// finding (rule `bad-suppression`).
#pragma once

#include <string>
#include <vector>

#include "analyze/model.h"

namespace ute::check {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// `name — description` for every rule, for --list-rules output.
std::vector<std::string> ruleList();

/// Runs all rules; returns unsuppressed findings sorted by file/line.
std::vector<Finding> runChecks(const Project& project);

/// Lexes `paths`, builds the project, and runs all rules. With a
/// `root`, files under it are named (in findings and for the path-scoped
/// rules) relative to it. Unreadable files throw std::runtime_error.
std::vector<Finding> runChecksOnFiles(const std::vector<std::string>& paths,
                                      const std::string& root = "");

}  // namespace ute::check
