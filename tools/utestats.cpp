// utestats — the statistics generation utility (Section 3.2).
//
// Reads an interval file and generates tables specified by a program in
// the declarative table language; with no program it emits the
// pre-defined tables (including Figure 6's per-node time-bin table).
//
// Usage:
//   utestats --input MERGED.uti [MORE.uti ...] [--profile profile.ute]
//            [--program FILE | --expr "table ..."]
//            [--heatmap TABLE:XCOL:YCOL:VCOL] [--svg OUT.svg]
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>

#include "interval/standard_profile.h"
#include "stats/engine.h"
#include "support/cli.h"
#include "support/file_io.h"
#include "support/text.h"
#include "viz/stats_viewer.h"

int main(int argc, char** argv) {
  using namespace ute;
  try {
    CliParser cli(argc, argv,
                  {"input", "profile", "program", "expr", "heatmap", "svg"},
                  {});
    std::vector<std::string> inputs = cli.positional();
    if (const auto input = cli.value("input")) {
      inputs.insert(inputs.begin(), *input);
    }
    if (inputs.empty()) {
      std::fprintf(stderr, "usage: utestats --input MERGED.uti ...\n");
      return 2;
    }
    const Profile profile = loadProfileOrStandard(
        cli.valueOr("profile", std::string(kStandardProfileFileName)));

    std::string program;
    if (const auto path = cli.value("program")) {
      std::ifstream in(*path);
      if (!in) {
        std::fprintf(stderr, "cannot read program file %s\n", path->c_str());
        return 2;
      }
      std::stringstream ss;
      ss << in.rdbuf();
      program = ss.str();
    } else if (const auto expr = cli.value("expr")) {
      program = *expr;
    } else {
      program = predefinedTablesProgram();
    }

    std::vector<std::unique_ptr<IntervalFileReader>> files;
    std::vector<IntervalFileReader*> filePtrs;
    for (const std::string& path : inputs) {
      files.push_back(std::make_unique<IntervalFileReader>(path));
      files.back()->checkProfile(profile);
      filePtrs.push_back(files.back().get());
    }
    StatsEngine engine(profile);
    const std::vector<StatsTable> tables =
        engine.runProgram(program, filePtrs);

    for (const StatsTable& t : tables) {
      std::printf("== table %s ==\n%s\n", t.name.c_str(), t.tsv().c_str());
    }

    if (const auto heatmap = cli.value("heatmap")) {
      // TABLE:XCOL:YCOL:VCOL
      const auto parts = splitString(*heatmap, ':');
      if (parts.size() != 4) {
        std::fprintf(stderr, "--heatmap wants TABLE:XCOL:YCOL:VCOL\n");
        return 2;
      }
      for (const StatsTable& t : tables) {
        if (t.name != parts[0]) continue;
        std::printf("%s", renderStatsHeatmapAscii(t, parts[1], parts[2],
                                                  parts[3])
                              .c_str());
        if (const auto svg = cli.value("svg")) {
          writeWholeFile(*svg, renderStatsHeatmapSvg(t, parts[1], parts[2],
                                                     parts[3]));
          std::printf("wrote %s\n", svg->c_str());
        }
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "utestats: %s\n", e.what());
    return 1;
  }
}
