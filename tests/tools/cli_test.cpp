// End-to-end tests of the command-line utilities, exercising the same
// binaries a user runs: utetrace -> uteconvert -> utemerge (slogmerge) ->
// utestats / uteview / utedump. The tools directory is injected by CMake
// as UTE_TOOLS_DIR.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "workloads/pipeline.h"

#include <unistd.h>

#ifndef UTE_TOOLS_DIR
#error "UTE_TOOLS_DIR must be defined by the build"
#endif

namespace ute {
namespace {

namespace fs = std::filesystem;

std::string tool(const std::string& name) {
  return std::string(UTE_TOOLS_DIR) + "/" + name;
}

/// Runs a command, returning {exit code, captured stdout+stderr}.
std::pair<int, std::string> run(const std::string& command) {
  const std::string outFile =
      (fs::temp_directory_path() /
       (std::to_string(getpid()) + ".ute_cli_out.txt"))
          .string();
  const int rc = std::system((command + " > " + outFile + " 2>&1").c_str());
  std::ifstream in(outFile);
  std::stringstream ss;
  ss << in.rdbuf();
  return {rc == -1 ? -1 : WEXITSTATUS(rc), ss.str()};
}

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(makeScratchDir("cli_test"));
    const auto [rc, out] = run(tool("utetrace") + " --workload test "
                               "--iterations 25 --dir " + *dir_ +
                               " --name run");
    ASSERT_EQ(rc, 0) << out;
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  static std::string* dir_;
};

std::string* CliTest::dir_ = nullptr;

TEST_F(CliTest, UtetraceProducesPerNodeFilesAndProfile) {
  EXPECT_TRUE(fs::exists(*dir_ + "/run.0.utr"));
  EXPECT_TRUE(fs::exists(*dir_ + "/run.1.utr"));
  EXPECT_TRUE(fs::exists(*dir_ + "/profile.ute"));
}

TEST_F(CliTest, FullPipelineThroughTheTools) {
  auto [rc, out] = run(tool("uteconvert") + " --out " + *dir_ + "/run " +
                       *dir_ + "/run.0.utr " + *dir_ + "/run.1.utr");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("sec/event"), std::string::npos);
  EXPECT_TRUE(fs::exists(*dir_ + "/run.0.uti"));
  EXPECT_TRUE(fs::exists(*dir_ + "/run.1.uti"));

  std::tie(rc, out) = run(tool("utemerge") + " --out " + *dir_ +
                          "/run.merged.uti --slog " + *dir_ +
                          "/run.slog --profile " + *dir_ + "/profile.ute " +
                          *dir_ + "/run.0.uti " + *dir_ + "/run.1.uti");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("clock ratio"), std::string::npos);
  EXPECT_NE(out.find("slogmerge"), std::string::npos);
  EXPECT_TRUE(fs::exists(*dir_ + "/run.merged.uti"));
  EXPECT_TRUE(fs::exists(*dir_ + "/run.slog"));

  // Statistics: the pre-defined tables.
  std::tie(rc, out) = run(tool("utestats") + " --input " + *dir_ +
                          "/run.merged.uti --profile " + *dir_ +
                          "/profile.ute");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("interesting_by_node_bin"), std::string::npos);
  EXPECT_NE(out.find("bytes_sent_by_task"), std::string::npos);

  // Views: ASCII + SVG for each kind.
  for (const std::string view :
       {"thread", "cpu", "thread-cpu", "cpu-thread", "state"}) {
    std::tie(rc, out) = run(tool("uteview") + " --input " + *dir_ +
                            "/run.merged.uti --profile " + *dir_ +
                            "/profile.ute --view " + view + " --svg " +
                            *dir_ + "/" + view + ".svg");
    ASSERT_EQ(rc, 0) << view << ": " << out;
    EXPECT_NE(out.find("|"), std::string::npos) << view;
    EXPECT_TRUE(fs::exists(*dir_ + "/" + view + ".svg")) << view;
  }

  // SLOG preview + frame display.
  std::tie(rc, out) = run(tool("uteview") + " --slog " + *dir_ +
                          "/run.slog --preview");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("Running"), std::string::npos);

  std::tie(rc, out) = run(tool("uteview") + " --slog " + *dir_ +
                          "/run.slog --frame-at 0.005");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("frame"), std::string::npos);

  // Dumps of every format.
  std::tie(rc, out) = run(tool("utedump") + " --raw " + *dir_ +
                          "/run.0.utr --limit 20");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("ThreadDispatch"), std::string::npos);

  std::tie(rc, out) = run(tool("utedump") + " --profile " + *dir_ +
                          "/profile.ute");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("MPI_Send/complete"), std::string::npos);

  std::tie(rc, out) = run(tool("utedump") + " --interval " + *dir_ +
                          "/run.merged.uti --profile " + *dir_ +
                          "/profile.ute --limit 10");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("merged"), std::string::npos);
  EXPECT_NE(out.find("marker"), std::string::npos);

  std::tie(rc, out) = run(tool("utedump") + " --slog " + *dir_ +
                          "/run.slog");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("states"), std::string::npos);

  // HTML report combining everything.
  std::tie(rc, out) = run(tool("utereport") + " --input " + *dir_ +
                          "/run.merged.uti --slog " + *dir_ +
                          "/run.slog --profile " + *dir_ +
                          "/profile.ute --out " + *dir_ + "/report.html");
  ASSERT_EQ(rc, 0) << out;
  std::ifstream report(*dir_ + "/report.html");
  std::stringstream html;
  html << report.rdbuf();
  EXPECT_NE(html.str().find("<svg"), std::string::npos);
  EXPECT_NE(html.str().find("Thread activity"), std::string::npos);
  EXPECT_NE(html.str().find("interesting_by_node_bin"), std::string::npos);
}

TEST_F(CliTest, StatsUserProgramViaExpr) {
  // Relies on FullPipelineThroughTheTools having produced the merged
  // file; regenerate independently to stay order-independent.
  run(tool("uteconvert") + " --out " + *dir_ + "/e " + *dir_ +
      "/run.0.utr " + *dir_ + "/run.1.utr");
  run(tool("utemerge") + " --out " + *dir_ + "/e.merged.uti --profile " +
      *dir_ + "/profile.ute " + *dir_ + "/e.0.uti " + *dir_ + "/e.1.uti");
  const auto [rc, out] =
      run(tool("utestats") + " --input " + *dir_ + "/e.merged.uti "
          "--profile " + *dir_ + "/profile.ute "
          "--expr 'table name=sample condition=(start < 2) "
          "x=(\"node\", node) y=(\"avg(duration)\", dura, avg)'");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("== table sample =="), std::string::npos);
  EXPECT_NE(out.find("avg(duration)"), std::string::npos);
}

TEST_F(CliTest, MergeThreadCategorySelection) {
  run(tool("uteconvert") + " --out " + *dir_ + "/t " + *dir_ +
      "/run.0.utr " + *dir_ + "/run.1.utr");
  const auto [rc, out] =
      run(tool("utemerge") + " --out " + *dir_ + "/t.merged.uti "
          "--profile " + *dir_ + "/profile.ute --threads mpi " +
          *dir_ + "/t.0.uti " + *dir_ + "/t.1.uti");
  ASSERT_EQ(rc, 0) << out;
  const auto [rc2, dump] = run(tool("utedump") + " --interval " + *dir_ +
                               "/t.merged.uti --profile " + *dir_ +
                               "/profile.ute --limit 0");
  ASSERT_EQ(rc2, 0) << dump;
  EXPECT_NE(dump.find("type=MPI"), std::string::npos);
  EXPECT_EQ(dump.find("type=user"), std::string::npos);
}

TEST_F(CliTest, ServeAndQueryRoundTrip) {
  // Build a SLOG of our own so this test is order-independent.
  run(tool("uteconvert") + " --out " + *dir_ + "/s " + *dir_ +
      "/run.0.utr " + *dir_ + "/run.1.utr");
  const auto [mrc, mout] =
      run(tool("utemerge") + " --out " + *dir_ + "/s.merged.uti --slog " +
          *dir_ + "/s.slog --profile " + *dir_ + "/profile.ute " + *dir_ +
          "/s.0.uti " + *dir_ + "/s.1.uti");
  ASSERT_EQ(mrc, 0) << mout;

  // Launch the server in the background on an ephemeral port; it tells
  // us the port through --port-file.
  const std::string portFile = *dir_ + "/uteserve.port";
  const std::string logFile = *dir_ + "/uteserve.log";
  ASSERT_EQ(std::system((tool("uteserve") + " " + *dir_ + "/s.slog "
                         "--cache-mb 16 --workers 2 --port-file " + portFile +
                         " > " + logFile + " 2>&1 &")
                            .c_str()),
            0);
  std::string port;
  for (int i = 0; i < 200 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::ifstream in(portFile);
    std::getline(in, port);
  }
  ASSERT_FALSE(port.empty()) << "server never wrote its port file";

  const std::string query = tool("utequery") + " --port " + port + " ";
  auto [rc, out] = run(query + "info");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("s.slog"), std::string::npos);
  EXPECT_NE(out.find("frames"), std::string::npos);

  std::tie(rc, out) = run(query + "states");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("Running"), std::string::npos);

  std::tie(rc, out) = run(query + "summary 0 1");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("ms"), std::string::npos);

  std::tie(rc, out) = run(query + "window 0 0.01");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("intervals"), std::string::npos);

  std::tie(rc, out) = run(query + "stats");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("hit rate"), std::string::npos);

  // Remote shutdown; the server process must exit on its own.
  std::tie(rc, out) = run(query + "shutdown");
  EXPECT_EQ(rc, 0) << out;
  std::string log;
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::ifstream in(logFile);
    std::stringstream ss;
    ss << in.rdbuf();
    log = ss.str();
    if (log.find("served") != std::string::npos) break;
  }
  EXPECT_NE(log.find("shutdown requested"), std::string::npos) << log;
  EXPECT_NE(log.find("served"), std::string::npos) << log;
}

/// Polls `portFile` (written by a server's --port-file) for up to 10 s;
/// empty if it never appeared.
std::string waitForPort(const std::string& portFile) {
  std::string port;
  for (int i = 0; i < 200 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::ifstream in(portFile);
    std::getline(in, port);
  }
  return port;
}

/// Polls a background tool's log for up to 10 s until it contains
/// `needle`; returns the log as last read.
std::string waitForLog(const std::string& logFile, const std::string& needle) {
  std::string log;
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::ifstream in(logFile);
    std::stringstream ss;
    ss << in.rdbuf();
    log = ss.str();
    if (log.find(needle) != std::string::npos) break;
  }
  return log;
}

TEST_F(CliTest, RouterFrontsAServerAndBothShutDown) {
  run(tool("uteconvert") + " --out " + *dir_ + "/rt " + *dir_ +
      "/run.0.utr " + *dir_ + "/run.1.utr");
  const auto [mrc, mout] =
      run(tool("utemerge") + " --out " + *dir_ + "/rt.merged.uti --slog " +
          *dir_ + "/rt.slog --profile " + *dir_ + "/profile.ute " + *dir_ +
          "/rt.0.uti " + *dir_ + "/rt.1.uti");
  ASSERT_EQ(mrc, 0) << mout;

  const std::string serveLog = *dir_ + "/rt.serve.log";
  ASSERT_EQ(std::system((tool("uteserve") + " " + *dir_ + "/rt.slog "
                         "--workers 2 --port-file " + *dir_ +
                         "/rt.serve.port > " + serveLog + " 2>&1 &")
                            .c_str()),
            0);
  const std::string port = waitForPort(*dir_ + "/rt.serve.port");
  ASSERT_FALSE(port.empty()) << "uteserve never wrote its port file";

  const std::string conf = *dir_ + "/rt.backends.conf";
  std::ofstream(conf) << "b1 127.0.0.1:" << port << "\n";
  const std::string routerLog = *dir_ + "/rt.router.log";
  ASSERT_EQ(std::system((tool("uterouter") + " " + conf +
                         " --workers 2 --port-file " + *dir_ +
                         "/rt.router.port > " + routerLog + " 2>&1 &")
                            .c_str()),
            0);
  const std::string routerPort = waitForPort(*dir_ + "/rt.router.port");
  ASSERT_FALSE(routerPort.empty()) << "uterouter never wrote its port file";

  // Global trace ids are 1-based.
  const std::string viaRouter =
      tool("utequery") + " --router 127.0.0.1:" + routerPort + " ";
  auto [rc, out] = run(viaRouter + "--trace 1 info");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("rt.slog"), std::string::npos) << out;

  // Shutdown through the router stops only the router.
  std::tie(rc, out) = run(viaRouter + "shutdown");
  EXPECT_EQ(rc, 0) << out;
  std::string log = waitForLog(routerLog, "hot-set cache");
  EXPECT_NE(log.find("shutdown requested"), std::string::npos) << log;
  EXPECT_NE(log.find("hot-set cache"), std::string::npos) << log;

  std::tie(rc, out) = run(tool("utequery") + " --port " + port + " shutdown");
  EXPECT_EQ(rc, 0) << out;
  log = waitForLog(serveLog, "served");
  EXPECT_NE(log.find("shutdown requested"), std::string::npos) << log;
  EXPECT_NE(log.find("served"), std::string::npos) << log;
}

TEST_F(CliTest, MetricsToolComputesPrintsAndRoundTripsUtm) {
  // Build a SLOG of our own so this test is order-independent.
  run(tool("uteconvert") + " --out " + *dir_ + "/m " + *dir_ +
      "/run.0.utr " + *dir_ + "/run.1.utr");
  const auto [mrc, mout] =
      run(tool("utemerge") + " --out " + *dir_ + "/m.merged.uti --slog " +
          *dir_ + "/m.slog --profile " + *dir_ + "/profile.ute " + *dir_ +
          "/m.0.uti " + *dir_ + "/m.1.uti");
  ASSERT_EQ(mrc, 0) << mout;

  // Summary + .utm output.
  auto [rc, out] = run(tool("utemetrics") + " --slog " + *dir_ +
                       "/m.slog --bins 60 --out " + *dir_ + "/m.utm");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("bins of"), std::string::npos);
  EXPECT_NE(out.find("task 0:"), std::string::npos);
  EXPECT_NE(out.find("peak comm fraction"), std::string::npos);
  EXPECT_TRUE(fs::exists(*dir_ + "/m.utm"));

  // Reading back the .utm reports the same summary as recomputing.
  const auto fromSlog = run(tool("utemetrics") + " --slog " + *dir_ +
                            "/m.slog --bins 60");
  const auto fromUtm = run(tool("utemetrics") + " --utm " + *dir_ +
                           "/m.utm");
  EXPECT_EQ(fromSlog.first, 0);
  EXPECT_EQ(fromUtm.first, 0);
  EXPECT_EQ(fromSlog.second, fromUtm.second);

  // --jobs 1 and --jobs 4 write byte-identical .utm files.
  run(tool("utemetrics") + " --slog " + *dir_ + "/m.slog --bins 60 "
      "--jobs 1 --out " + *dir_ + "/m.j1.utm");
  run(tool("utemetrics") + " --slog " + *dir_ + "/m.slog --bins 60 "
      "--jobs 4 --out " + *dir_ + "/m.j4.utm");
  EXPECT_EQ(run("cmp " + *dir_ + "/m.j1.utm " + *dir_ + "/m.j4.utm").first,
            0)
      << ".utm differs between --jobs 1 and --jobs 4";

  // The full TSV carries one row per (bin, task) plus a header.
  std::tie(rc, out) = run(tool("utemetrics") + " --slog " + *dir_ +
                          "/m.slog --bins 10 --tsv");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("busy_ns"), std::string::npos);
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n';
  EXPECT_EQ(lines, 1u + 10u * 4u);  // header + bins x tasks

  std::tie(rc, out) = run(tool("utemetrics") + " --slog " + *dir_ +
                          "/m.slog --bins 10 --derived");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("comm_fraction"), std::string::npos);

  // uteview renders heatmaps from the SLOG and from the .utm file.
  std::tie(rc, out) = run(tool("uteview") + " --slog " + *dir_ +
                          "/m.slog --metrics mpi --bins 60 --svg " + *dir_ +
                          "/m.heat.svg");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("metric mpi"), std::string::npos);
  EXPECT_TRUE(fs::exists(*dir_ + "/m.heat.svg"));

  std::tie(rc, out) = run(tool("uteview") + " --utm " + *dir_ +
                          "/m.utm --metrics busy");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("metric busy"), std::string::npos);

  std::tie(rc, out) = run(tool("uteview") + " --utm " + *dir_ +
                          "/m.utm --metrics bogus");
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.find("unknown --metrics kind"), std::string::npos);
}

TEST_F(CliTest, MetricsOverTheServer) {
  run(tool("uteconvert") + " --out " + *dir_ + "/ms " + *dir_ +
      "/run.0.utr " + *dir_ + "/run.1.utr");
  const auto [mrc, mout] =
      run(tool("utemerge") + " --out " + *dir_ + "/ms.merged.uti --slog " +
          *dir_ + "/ms.slog --profile " + *dir_ + "/profile.ute " + *dir_ +
          "/ms.0.uti " + *dir_ + "/ms.1.uti");
  ASSERT_EQ(mrc, 0) << mout;

  const std::string portFile = *dir_ + "/utemetrics.port";
  ASSERT_EQ(std::system((tool("uteserve") + " " + *dir_ + "/ms.slog "
                         "--workers 2 --port-file " + portFile +
                         " > /dev/null 2>&1 &")
                            .c_str()),
            0);
  std::string port;
  for (int i = 0; i < 200 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::ifstream in(portFile);
    std::getline(in, port);
  }
  ASSERT_FALSE(port.empty()) << "server never wrote its port file";

  // utequery prints the per-task totals of the GetMetrics reply.
  auto [rc, out] = run(tool("utequery") + " --port " + port +
                       " metrics --bins 60");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("60 bins"), std::string::npos);
  EXPECT_NE(out.find("task 0:"), std::string::npos);

  // uteview renders a heatmap straight from the server reply.
  std::tie(rc, out) = run(tool("uteview") + " --connect 127.0.0.1:" + port +
                          " --metrics busy --bins 60");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("metric busy"), std::string::npos);
  EXPECT_NE(out.find("task 0"), std::string::npos);

  run(tool("utequery") + " --port " + port + " shutdown");
}

TEST_F(CliTest, PipelineToolMatchesStagedToolsAndJobsAreDeterministic) {
  // utepipeline must equal running uteconvert + utemerge by hand, and
  // --jobs 4 must be byte-identical to --jobs 1.
  const std::string raws = *dir_ + "/run.0.utr " + *dir_ + "/run.1.utr";
  auto [rc, out] = run(tool("utepipeline") + " --out " + *dir_ +
                       "/p1 --jobs 1 --profile " + *dir_ + "/profile.ute " +
                       raws);
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("records/s"), std::string::npos);
  EXPECT_TRUE(fs::exists(*dir_ + "/p1.merged.uti"));
  EXPECT_TRUE(fs::exists(*dir_ + "/p1.slog"));

  std::tie(rc, out) = run(tool("utepipeline") + " --out " + *dir_ +
                          "/p4 --jobs 4 --profile " + *dir_ +
                          "/profile.ute " + raws);
  ASSERT_EQ(rc, 0) << out;

  run(tool("uteconvert") + " --out " + *dir_ + "/ps --jobs 1 " + raws);
  std::tie(rc, out) =
      run(tool("utemerge") + " --out " + *dir_ + "/ps.merged.uti --slog " +
          *dir_ + "/ps.slog --profile " + *dir_ + "/profile.ute " + *dir_ +
          "/ps.0.uti " + *dir_ + "/ps.1.uti");
  ASSERT_EQ(rc, 0) << out;

  for (const char* suffix : {".0.uti", ".1.uti", ".merged.uti", ".slog"}) {
    const auto a = run("cmp " + *dir_ + "/p1" + suffix + " " + *dir_ +
                       "/p4" + suffix);
    EXPECT_EQ(a.first, 0) << "--jobs 1 vs 4 differ at " << suffix;
    const auto b = run("cmp " + *dir_ + "/p1" + suffix + " " + *dir_ +
                       "/ps" + suffix);
    EXPECT_EQ(b.first, 0) << "utepipeline vs staged tools differ at "
                          << suffix;
  }
}

TEST_F(CliTest, CrossEncodingQueriesAreByteIdentical) {
  // The v2 acceptance gate: the frame encoding may change bytes on disk,
  // never results. The same inputs merged to a row v1 SLOG and a
  // columnar v2 SLOG must yield byte-identical utemetrics output and
  // byte-identical utequery answers.
  run(tool("uteconvert") + " --out " + *dir_ + "/x " + *dir_ +
      "/run.0.utr " + *dir_ + "/run.1.utr");
  const std::string inputs = *dir_ + "/x.0.uti " + *dir_ + "/x.1.uti";
  auto [rc, out] =
      run(tool("utemerge") + " --out " + *dir_ + "/xv1.merged.uti --slog " +
          *dir_ + "/xv1.slog --slog-v1 --profile " + *dir_ +
          "/profile.ute " + inputs);
  ASSERT_EQ(rc, 0) << out;
  std::tie(rc, out) =
      run(tool("utemerge") + " --out " + *dir_ + "/xv2.merged.uti --slog " +
          *dir_ + "/xv2.slog --profile " + *dir_ + "/profile.ute " + inputs);
  ASSERT_EQ(rc, 0) << out;

  // utedump --frame-stats names the encodings; v2 must be the smaller
  // file (columnar compression on real merged records).
  std::tie(rc, out) = run(tool("utedump") + " --slog " + *dir_ +
                          "/xv1.slog --frame-stats");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("row"), std::string::npos);
  EXPECT_NE(out.find("bytes/record"), std::string::npos);
  std::tie(rc, out) = run(tool("utedump") + " --slog " + *dir_ +
                          "/xv2.slog --frame-stats");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("columnar"), std::string::npos);
  EXPECT_LT(fs::file_size(*dir_ + "/xv2.slog"),
            fs::file_size(*dir_ + "/xv1.slog"));

  // utemetrics: .utm byte-identity across encodings, enforced by cmp.
  run(tool("utemetrics") + " --slog " + *dir_ + "/xv1.slog --bins 60 "
      "--out " + *dir_ + "/xv1.utm");
  run(tool("utemetrics") + " --slog " + *dir_ + "/xv2.slog --bins 60 "
      "--out " + *dir_ + "/xv2.utm");
  EXPECT_EQ(
      run("cmp " + *dir_ + "/xv1.utm " + *dir_ + "/xv2.utm").first, 0)
      << ".utm differs between v1 and v2 SLOG inputs";

  // uteview reads both encodings to the same pixels.
  const auto previewV1 = run(tool("uteview") + " --slog " + *dir_ +
                             "/xv1.slog --preview");
  const auto previewV2 = run(tool("uteview") + " --slog " + *dir_ +
                             "/xv2.slog --preview");
  ASSERT_EQ(previewV1.first, 0) << previewV1.second;
  EXPECT_EQ(previewV1.second, previewV2.second);
  const auto frameV1 = run(tool("uteview") + " --slog " + *dir_ +
                           "/xv1.slog --frame-at 0.005");
  const auto frameV2 = run(tool("uteview") + " --slog " + *dir_ +
                           "/xv2.slog --frame-at 0.005");
  ASSERT_EQ(frameV1.first, 0) << frameV1.second;
  EXPECT_EQ(frameV1.second, frameV2.second);

  // utequery against a server holding each file: identical answers,
  // enforced by cmp on the captured outputs.
  for (const char* ver : {"xv1", "xv2"}) {
    const std::string portFile = *dir_ + "/" + ver + ".port";
    ASSERT_EQ(std::system((tool("uteserve") + " " + *dir_ + "/" + ver +
                           ".slog --workers 2 --port-file " + portFile +
                           " > /dev/null 2>&1 &")
                              .c_str()),
              0);
    std::string port;
    for (int i = 0; i < 200 && port.empty(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      std::ifstream in(portFile);
      std::getline(in, port);
    }
    ASSERT_FALSE(port.empty()) << "server never wrote its port file";
    const std::string query = tool("utequery") + " --port " + port + " ";
    const std::string answers = *dir_ + "/" + ver + ".answers.txt";
    ASSERT_EQ(std::system(("( " + query + "states && " + query +
                           "summary 0 1 && " + query + "window 0 0.01 && " +
                           query + "metrics --bins 60 ) > " + answers +
                           " 2>&1")
                              .c_str()),
              0);
    run(query + "shutdown");
  }
  const auto cmp = run("cmp " + *dir_ + "/xv1.answers.txt " + *dir_ +
                       "/xv2.answers.txt");
  EXPECT_EQ(cmp.first, 0)
      << "utequery answers differ between v1 and v2 files: " << cmp.second;
}

TEST_F(CliTest, StreamedRunIsByteIdenticalToBatchPipeline) {
  // The streaming ingest acceptance gate (docs/STREAMING.md): a 4-node
  // golden trace pushed through utestream's TCP ingest produces the same
  // SLOG, merged interval file and .utm metrics — byte for byte — as the
  // batch utepipeline + utemetrics chain.
  auto [rc, out] = run(tool("utetrace") + " --workload sppm --timesteps 4 "
                       "--dir " + *dir_ + " --name golden");
  ASSERT_EQ(rc, 0) << out;
  for (int n = 0; n < 4; ++n) {
    ASSERT_TRUE(fs::exists(*dir_ + "/golden." + std::to_string(n) + ".utr"));
  }
  const std::string raws = *dir_ + "/golden.0.utr " + *dir_ +
                           "/golden.1.utr " + *dir_ + "/golden.2.utr " +
                           *dir_ + "/golden.3.utr";

  std::tie(rc, out) = run(tool("utepipeline") + " --out " + *dir_ +
                          "/gold --profile " + *dir_ + "/profile.ute " +
                          raws);
  ASSERT_EQ(rc, 0) << out;
  std::tie(rc, out) = run(tool("utemetrics") + " --slog " + *dir_ +
                          "/gold.slog --out " + *dir_ + "/gold.utm");
  ASSERT_EQ(rc, 0) << out;

  std::tie(rc, out) = run(tool("utestream") + " --out " + *dir_ +
                          "/live --profile " + *dir_ + "/profile.ute " +
                          raws);
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("merged"), std::string::npos);

  for (const char* pair : {"slog", "merged.uti", "utm"}) {
    const auto cmp = run("cmp " + *dir_ + "/gold." + pair + " " + *dir_ +
                         "/live." + pair);
    EXPECT_EQ(cmp.first, 0) << "streamed ." << pair
                            << " differs from batch: " << cmp.second;
  }
}

TEST_F(CliTest, UtetailFollowsAFileIntoAListeningUtestream) {
  // utetail --once against the already-complete two-node fixture, into a
  // `utestream --listen` ingest: the decoupled producer path.
  const std::string portFile = *dir_ + "/ingest.port";
  const std::string logFile = *dir_ + "/utestream.log";
  ASSERT_EQ(std::system((tool("utestream") + " --out " + *dir_ +
                         "/tailed --listen --nodes 0,1 --profile " + *dir_ +
                         "/profile.ute --ingest-port-file " + portFile +
                         " > " + logFile + " 2>&1 &")
                            .c_str()),
            0);
  std::string port;
  for (int i = 0; i < 200 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::ifstream in(portFile);
    std::getline(in, port);
  }
  ASSERT_FALSE(port.empty()) << "utestream never wrote its ingest port";

  for (int n = 0; n < 2; ++n) {
    const auto [rc, out] =
        run(tool("utetail") + " " + *dir_ + "/run." + std::to_string(n) +
            ".utr --connect 127.0.0.1:" + port + " --once");
    ASSERT_EQ(rc, 0) << out;
    EXPECT_NE(out.find("streamed"), std::string::npos);
  }

  // The listener finishes once both nodes said bye.
  std::string log;
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::ifstream in(logFile);
    std::stringstream ss;
    ss << in.rdbuf();
    log = ss.str();
    if (log.find("wrote") != std::string::npos) break;
  }
  EXPECT_NE(log.find("merged"), std::string::npos) << log;
  EXPECT_TRUE(fs::exists(*dir_ + "/tailed.slog"));
  EXPECT_TRUE(fs::exists(*dir_ + "/tailed.utm"));
}

TEST_F(CliTest, ToolsFailCleanlyOnBadInput) {
  auto [rc, out] = run(tool("uteconvert") + " /no/such/file.utr");
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("uteconvert:"), std::string::npos);

  std::tie(rc, out) = run(tool("utemerge") + " --out /tmp/x.uti "
                          "/no/such/file.uti");
  EXPECT_NE(rc, 0);

  std::tie(rc, out) = run(tool("uteview") + " --input /no/such.uti");
  EXPECT_NE(rc, 0);

  std::tie(rc, out) = run(tool("utetrace") + " --workload bogus");
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.find("unknown workload"), std::string::npos);

  // An undeclared option is named, not read as a flag and its value as
  // a second SLOG path.
  std::tie(rc, out) = run(tool("uteserve") + " X.slog --shards 8");
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("unknown option --shards"), std::string::npos) << out;

  // The shared chain flags reject an unknown clock fit before any input
  // is opened.
  for (const std::string& t :
       {tool("utemerge") + " --out /tmp/x.uti --method bogus /no/such.uti",
        tool("utepipeline") + " --out /tmp/x --method bogus /no/such.utr",
        tool("utestream") + " --out /tmp/x --method bogus /no/such.utr"}) {
    std::tie(rc, out) = run(t);
    EXPECT_EQ(rc, 2) << t;
    EXPECT_NE(out.find("unknown --method 'bogus'"), std::string::npos) << t;
  }
}

}  // namespace
}  // namespace ute
