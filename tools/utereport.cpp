// utereport — renders a self-contained HTML performance report from a
// merged interval file (and optionally its SLOG file for the preview):
// run summary, preview, thread/processor/state views, statistics tables.
//
// Usage:
//   utereport --input MERGED.uti [--slog RUN.slog] [--profile profile.ute]
//             [--title TEXT] [--program STATS_FILE] --out report.html
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>

#include "interval/standard_profile.h"
#include "support/cli.h"
#include "support/file_io.h"
#include "viz/report.h"

int main(int argc, char** argv) {
  using namespace ute;
  try {
    CliParser cli(argc, argv,
                  {"input", "slog", "profile", "title", "program", "out"},
                  {});
    const std::string input = cli.valueOr("input", std::string());
    const std::string out = cli.valueOr("out", std::string("report.html"));
    if (input.empty()) {
      std::fprintf(stderr,
                   "usage: utereport --input MERGED.uti --out report.html\n");
      return 2;
    }
    const Profile profile = loadProfileOrStandard(
        cli.valueOr("profile", std::string(kStandardProfileFileName)));

    ReportOptions options;
    options.title = cli.valueOr("title", std::string("UTE performance report"));
    options.slogPath = cli.valueOr("slog", std::string());
    if (const auto path = cli.value("program")) {
      std::ifstream in(*path);
      if (!in) {
        std::fprintf(stderr, "cannot read program file %s\n", path->c_str());
        return 2;
      }
      std::stringstream ss;
      ss << in.rdbuf();
      options.statsProgram = ss.str();
    }

    writeWholeFile(out, buildHtmlReport(input, profile, options));
    std::printf("wrote %s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "utereport: %s\n", e.what());
    return 1;
  }
}
