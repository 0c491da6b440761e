// utecheck — whole-project static analyzer and project-invariant linter
// (docs/STATIC_ANALYSIS.md "utecheck").
//
//   utecheck [--root DIR] [--compile-commands FILE] [--list-rules] [path...]
//
// With explicit paths, analyzes exactly those files. Otherwise globs
// every *.h / *.cpp under <root>/src, <root>/tools and <root>/bench,
// narrowing the .cpp set to the compile-command file list when one is
// given (headers are always included — compile commands do not list
// them). Files under <root> are reported, and matched against the
// path-scoped rules, relative to it.
//
// Output: `path:line: [rule] message`, one finding per line. Exit
// status is the unsuppressed finding count, capped at 125 so it never
// reads as a shell signal status; 126 on usage errors.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "analyze/rules.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--root DIR] [--compile-commands FILE] "
               "[--list-rules] [path...]\n",
               argv0);
  return 126;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string compileCommands;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const std::string& line : ute::check::ruleList()) {
        std::printf("%s\n", line.c_str());
      }
      return 0;
    }
    if (arg == "--root") {
      if (++i >= argc) return usage(argv[0]);
      root = argv[i];
    } else if (arg == "--compile-commands") {
      if (++i >= argc) return usage(argv[0]);
      compileCommands = argv[i];
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  try {
    if (paths.empty()) {
      paths = ute::check::collectSourceFiles(root, compileCommands);
    }
    if (paths.empty()) {
      std::fprintf(stderr, "utecheck: no source files under %s\n",
                   root.c_str());
      return 126;
    }
    const std::vector<ute::check::Finding> findings =
        ute::check::runChecksOnFiles(paths, root);
    for (const ute::check::Finding& f : findings) {
      std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                  f.rule.c_str(), f.message.c_str());
    }
    if (findings.empty()) {
      std::printf("utecheck: clean (%zu files)\n", paths.size());
      return 0;
    }
    std::printf("utecheck: %zu finding(s)\n", findings.size());
    return findings.size() > 125 ? 125 : static_cast<int>(findings.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "utecheck: %s\n", e.what());
    return 126;
  }
}
