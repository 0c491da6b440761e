// Fixture suite for utecheck (tools/analyze): one known-good and one
// known-bad fixture per rule, a bad-suppression case, and a
// run-on-the-real-tree smoke test that also asserts the binary's exit
// status equals the violation count.
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

TEST(UtecheckRules, ListCoversAllFourRules) {
  const auto rules = ute::check::ruleList();
  ASSERT_EQ(rules.size(), 4u);
  std::string joined;
  for (const auto& r : rules) joined += r + "\n";
  for (const char* name : {"blocking", "invalidate", "lockorder", "bad-suppression"})
    EXPECT_NE(joined.find(name), std::string::npos) << joined;
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
  // The whole tree (src/ + tools/) must be finding-free: every true
  // positive in this repo is either fixed or carries a justified allow().
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
