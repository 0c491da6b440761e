// Fixture suite for utecheck (tools/analyze): one known-good and one
// known-bad fixture per call-graph rule, a bad-suppression case, a
// containment fixture pair for the token-level invariant rules (lexed
// under made-up repo-relative paths, since those rules are path-scoped),
// and a run-on-the-real-tree smoke test that also asserts the binary's
// exit status equals the violation count.
//
// Compile definitions injected by tests/CMakeLists.txt:
//   UTE_FIXTURE_DIR — tests/tools/fixtures in the source tree
//   UTE_TOOLS_DIR   — build/tools (location of the utecheck binary)
//   UTE_SOURCE_DIR  — repository root
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/rules.h"

namespace {

using ute::check::Finding;

std::vector<Finding> checkFixture(const std::string& name) {
  return ute::check::runChecksOnFiles({std::string(UTE_FIXTURE_DIR) + "/" + name});
}

int countWithRule(const std::vector<Finding>& findings, const std::string& rule) {
  int n = 0;
  for (const Finding& f : findings) n += f.rule == rule ? 1 : 0;
  return n;
}

std::string describe(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings)
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  return out.str();
}

std::string readFixture(const std::string& name) {
  std::ifstream in(std::string(UTE_FIXTURE_DIR) + "/" + name);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs every rule over `text` as if it lived at repo-relative `path`.
std::vector<Finding> checkAs(const std::string& path, const std::string& text) {
  return ute::check::runChecks(ute::check::buildProject({ute::check::lexFile(path, text)}));
}

/// `line: [rule]` for each finding, or for each `<marker> rule` comment
/// in a fixture.
std::set<std::string> lineRules(const std::vector<Finding>& findings) {
  std::set<std::string> out;
  for (const Finding& f : findings) out.insert(std::to_string(f.line) + ": [" + f.rule + "]");
  return out;
}

std::set<std::string> markedLines(const std::string& text, const std::string& marker) {
  std::set<std::string> out;
  std::istringstream in(text);
  int line = 0;
  for (std::string row; std::getline(in, row);) {
    ++line;
    const std::size_t at = row.find("// " + marker + " ");
    if (at != std::string::npos)
      out.insert(std::to_string(line) + ": [" + row.substr(at + marker.size() + 4) + "]");
  }
  return out;
}

TEST(UtecheckBlocking, BadFixtureFlagsWaitOnReactorPath) {
  auto findings = checkFixture("blocking_bad.cpp");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) { return a.line < b.line; });
  EXPECT_EQ(findings[0].rule, "blocking");
  EXPECT_EQ(findings[0].line, 30);  // the cv_.wait call in drainBacklog
  // The report names the entry point and the call chain that reaches it.
  EXPECT_NE(findings[0].message.find("parseFrames"), std::string::npos);
  EXPECT_NE(findings[0].message.find("CondVar::wait"), std::string::npos);
  // One pool class serves both modes, so the rule tells them apart by
  // method: submit() blocks and is flagged, trySubmit() is not.
  EXPECT_EQ(findings[1].rule, "blocking");
  EXPECT_EQ(findings[1].line, 36);  // pool_.submit in handleRead
  EXPECT_NE(findings[1].message.find("handleRead"), std::string::npos);
  EXPECT_NE(findings[1].message.find("ThreadPool::submit"), std::string::npos);
  EXPECT_EQ(findings[1].message.find("trySubmit"), std::string::npos);
}

TEST(UtecheckBlocking, GoodFixtureDeferralAndSuppressionAreClean) {
  const auto findings = checkFixture("blocking_good.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(UtecheckInvalidate, BadFixtureFlagsPr9UafReduction) {
  const auto findings = checkFixture("invalidate_bad.cpp");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "invalidate");
  EXPECT_EQ(findings[0].line, 26);  // conn.closing after flushWrites(conn)
  EXPECT_NE(findings[0].message.find("conns_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("flushWrites"), std::string::npos);
}

TEST(UtecheckInvalidate, GoodFixtureRelookupIsClean) {
  const auto findings = checkFixture("invalidate_good.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(UtecheckLockOrder, BadFixtureFlagsAbbaCycle) {
  const auto findings = checkFixture("lockorder_bad.cpp");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "lockorder");
  EXPECT_NE(findings[0].message.find("index_mu_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("stats_mu_"), std::string::npos);
}

TEST(UtecheckLockOrder, GoodFixtureConsistentOrderIsClean) {
  const auto findings = checkFixture("lockorder_good.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(UtecheckSuppression, ReasonlessAllowIsFlaggedAndDoesNotSuppress) {
  const auto findings = checkFixture("suppress_bad.cpp");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  EXPECT_EQ(countWithRule(findings, "bad-suppression"), 1);
  EXPECT_EQ(countWithRule(findings, "blocking"), 1);
}

TEST(UtecheckRules, ListNamesExactlyTheTwelveRules) {
  std::set<std::string> names;
  for (const std::string& r : ute::check::ruleList()) names.insert(r.substr(0, r.find(' ')));
  const std::set<std::string> expected = {
      "blocking",       "invalidate",        "lockorder",
      "raw-io",         "io-context",        "raw-mutex",
      "ts-escape",      "bench-determinism", "codec-containment",
      "fed-socket-containment", "reactor-containment", "bad-suppression"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(ute::check::ruleList().size(), expected.size());
}

TEST(UtecheckInvariants, BadFixtureFlagsEveryMarkedLine) {
  const std::string text = readFixture("containment_bad.cpp");
  const auto findings = checkAs("src/fed/containment_bad.cpp", text);
  EXPECT_EQ(lineRules(findings), markedLines(text, "expect:")) << describe(findings);
  // Every rule except the bench-only one fires under src/fed/.
  for (const char* rule : {"raw-io", "io-context", "raw-mutex", "ts-escape", "codec-containment",
                           "fed-socket-containment", "reactor-containment"})
    EXPECT_GT(countWithRule(findings, rule), 0) << rule;
}

TEST(UtecheckInvariants, BadFixtureUnderBenchIsScopedToBenchRules) {
  const std::string text = readFixture("containment_bad.cpp");
  const auto findings = checkAs("bench/containment_bad.cpp", text);
  std::vector<Finding> bench;
  for (const Finding& f : findings) {
    if (f.rule == "bench-determinism") bench.push_back(f);
    // raw-io and io-context cover src/ only; federation and reactor
    // containment do not reach bench/.
    for (const char* rule : {"raw-io", "io-context", "fed-socket-containment", "reactor-containment"})
      EXPECT_NE(f.rule, rule) << describe(findings);
  }
  EXPECT_EQ(lineRules(bench), markedLines(text, "expect-bench:")) << describe(findings);
  EXPECT_GT(countWithRule(findings, "raw-mutex"), 0) << describe(findings);
}

TEST(UtecheckInvariants, GoodFixtureIsCleanEverywhere) {
  const std::string text = readFixture("containment_good.cpp");
  for (const char* path : {"src/fed/containment_good.cpp", "bench/containment_good.cpp"}) {
    const auto findings = checkAs(path, text);
    EXPECT_TRUE(findings.empty()) << path << "\n" << describe(findings);
  }
}

TEST(UtecheckInvariants, QualifiedPosixCallsAreFlagged) {
  // `::f(` and `std::f(` name the same C function as `f(`.
  const struct {
    const char* path;
    const char* code;
    const char* rule;
  } cases[] = {
      {"src/fed/x.cpp", "int f() { return ::socket(2, 1, 0); }", "fed-socket-containment"},
      {"src/fed/x.cpp", "void f(int s) { ::connect(s, nullptr, 0); }", "fed-socket-containment"},
      {"src/trace/x.cpp", "int f() { return ::open(\"p\", 0); }", "raw-io"},
      {"src/trace/x.cpp", "void f() { std::fopen(\"p\", \"r\"); }", "raw-io"},
      {"src/stream/x.cpp", "void f(int e) { ::epoll_wait(e, nullptr, 1, 0); }",
       "reactor-containment"},
  };
  for (const auto& c : cases) {
    const auto findings = checkAs(c.path, c.code);
    ASSERT_EQ(findings.size(), 1u) << c.code << "\n" << describe(findings);
    EXPECT_EQ(findings[0].rule, c.rule) << c.code;
  }
  // A call qualified by any other class or namespace is a different function.
  EXPECT_TRUE(checkAs("src/trace/x.cpp", "void f() { Archive::open(\"p\"); }").empty());
  EXPECT_TRUE(checkAs("src/fed/x.cpp", "void f() { net::Pool<int>::connect(1); }").empty());
}

TEST(UtecheckInvariants, PathScopes) {
  const std::string socketCall = "int f() { return ::socket(2, 1, 0); }";
  EXPECT_EQ(checkAs("src/fed/x.cpp", socketCall).size(), 1u);
  EXPECT_EQ(checkAs("tools/uterouter.cpp", socketCall).size(), 1u);
  EXPECT_TRUE(checkAs("src/server/tcp.cpp", socketCall).empty());

  const std::string rawMutex = "std::mutex m;";
  for (const char* path : {"src/server/x.cpp", "tools/x.cpp", "bench/x.cpp", "src/support/x.h"})
    EXPECT_EQ(checkAs(path, rawMutex).size(), 1u) << path;
  EXPECT_TRUE(checkAs("src/support/thread_annotations.h", rawMutex).empty());

  const std::string fcntlCall = "void f(int fd) { fcntl(fd, 4, 0); }";
  for (const char* path : {"src/server/conn.cpp", "src/stream/x.cpp", "tools/x.cpp"})
    EXPECT_EQ(checkAs(path, fcntlCall).size(), 1u) << path;
  // bench/ drives its own client harness and is outside the rule.
  for (const char* path :
       {"src/server/reactor.cpp", "src/server/reactor.h", "src/server/tcp.cpp", "bench/x.cpp"})
    EXPECT_TRUE(checkAs(path, fcntlCall).empty()) << path;

  // Nothing outside src/, tools/ and bench/ is in any invariant's scope.
  EXPECT_TRUE(checkAs("tests/x.cpp", rawMutex + socketCall + fcntlCall).empty());
}

TEST(UtecheckInvariants, JustifiedAllowSuppressesReasonlessDoesNot) {
  const std::string call = "  FILE* f = fopen(\"p\", \"r\");\n";
  EXPECT_EQ(countWithRule(checkAs("src/trace/x.cpp", call), "raw-io"), 1);
  const auto waived =
      checkAs("src/trace/x.cpp", "  // utecheck: allow(raw-io) — test: waived\n" + call);
  EXPECT_TRUE(waived.empty()) << describe(waived);
  const auto bare = checkAs("src/trace/x.cpp", "  // utecheck: allow(raw-io)\n" + call);
  EXPECT_EQ(countWithRule(bare, "raw-io"), 1) << describe(bare);
  EXPECT_EQ(countWithRule(bare, "bad-suppression"), 1) << describe(bare);
}

// Runs a command, captures stdout to a temp file, and returns
// {exit status, finding-line count} where finding lines look like
// "path:line: [rule] ...".
struct RunResult {
  int status = -1;
  int findingLines = 0;
};

RunResult runUtecheck(const std::string& args) {
  const std::string outPath =
      testing::TempDir() + "/utecheck_out_" + std::to_string(::getpid()) + ".txt";
  const std::string cmd =
      std::string(UTE_TOOLS_DIR) + "/utecheck " + args + " > " + outPath + " 2>&1";
  const int raw = std::system(cmd.c_str());
  RunResult r;
  r.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  std::ifstream in(outPath);
  for (std::string line; std::getline(in, line);)
    if (line.find(": [") != std::string::npos) ++r.findingLines;
  std::remove(outPath.c_str());
  return r;
}

TEST(UtecheckSmoke, RealTreeIsCleanAndExitsZero) {
  // The whole tree (src/, tools/ and bench/) must be finding-free under
  // every rule, the project invariants included: each true positive in
  // this repo is either fixed or carries a justified allow().
  const auto r = runUtecheck("--root " UTE_SOURCE_DIR);
  EXPECT_EQ(r.status, 0);
  EXPECT_EQ(r.findingLines, 0);
}

TEST(UtecheckSmoke, ExitStatusEqualsViolationCount) {
  const std::string fx = UTE_FIXTURE_DIR;
  // One violation -> exit 1.
  auto r = runUtecheck(fx + "/invalidate_bad.cpp");
  EXPECT_EQ(r.status, 1);
  EXPECT_EQ(r.findingLines, 1);
  // Two violations in one file -> exit 2.
  r = runUtecheck(fx + "/blocking_bad.cpp");
  EXPECT_EQ(r.status, 2);
  EXPECT_EQ(r.findingLines, 2);
  r = runUtecheck(fx + "/suppress_bad.cpp");
  EXPECT_EQ(r.status, 2);
  EXPECT_EQ(r.findingLines, 2);
  // Aggregation across files: 2 + 1 + 1 + 2 = 6.
  r = runUtecheck(fx + "/blocking_bad.cpp " + fx + "/invalidate_bad.cpp " + fx +
                  "/lockorder_bad.cpp " + fx + "/suppress_bad.cpp");
  EXPECT_EQ(r.status, 6);
  EXPECT_EQ(r.findingLines, 6);
}

TEST(UtecheckSmoke, ListRulesExitsZero) {
  const auto r = runUtecheck("--list-rules");
  EXPECT_EQ(r.status, 0);
}

}  // namespace
