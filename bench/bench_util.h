// Shared helpers for the benchmark binaries: each bench first prints the
// paper artifact it reproduces (the table rows / figure series), then
// runs its google-benchmark microbenchmarks. Every BENCH_*.json is
// written through writeBenchFile(), which stamps the environment the
// numbers were measured on ahead of the bench's own keys.
#pragma once

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "support/file_io.h"
#include "workloads/pipeline.h"

// Set by bench/CMakeLists.txt; the fallbacks keep a hand-built bench
// compiling.
#ifndef UTE_BENCH_BUILD_TYPE
#define UTE_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef UTE_BENCH_GIT_SHA
#define UTE_BENCH_GIT_SHA "unknown"
#endif

namespace ute::benchutil {

inline double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

inline std::chrono::steady_clock::time_point now() {
  return std::chrono::steady_clock::now();
}

/// Standard bench main body: print the artifact, then run benchmarks.
inline int runBenchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

/// A bench's correctness check (byte identity against a reference, an
/// agreeing decode): a failure ends the run with status 1 before any
/// BENCH file is written, so a committed file never records a broken run.
inline void require(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "bench check failed: %s\n", what);
  std::exit(1);
}

/// One JSON object whose keys keep the order they were added in. Values
/// are rendered when added; a nested object renders on one line, so a
/// BENCH file reads one row per line.
class JsonObject {
 public:
  JsonObject& add(std::string_view key, std::string_view text) {
    return field(key, quote(text));
  }
  JsonObject& add(std::string_view key, const char* text) {
    return add(key, std::string_view(text));
  }
  JsonObject& add(std::string_view key, bool value) {
    return field(key, value ? "true" : "false");
  }
  template <std::integral T>
  JsonObject& add(std::string_view key, T value) {
    return field(key, std::to_string(value));
  }
  /// A non-finite value (a ratio over a zero time) is written as null.
  JsonObject& add(std::string_view key, double value, int decimals) {
    if (!std::isfinite(value)) return field(key, "null");
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
    return field(key, buf);
  }
  JsonObject& add(std::string_view key, const JsonObject& row) {
    return field(key, row.line());
  }
  JsonObject& add(std::string_view key, const std::vector<JsonObject>& rows) {
    Field& f = fields_.emplace_back(Field{quote(key), "[", {}});
    for (const JsonObject& row : rows) {
      f.rows.push_back(row.line());
      f.value += (f.rows.size() > 1 ? ", " : "") + f.rows.back();
    }
    f.value += "]";
    return *this;
  }
  /// Appends `more`'s keys after this object's.
  JsonObject& extend(const JsonObject& more) {
    fields_.insert(fields_.end(), more.fields_.begin(), more.fields_.end());
    return *this;
  }

  /// `{"key": value, ...}` on one line.
  std::string line() const {
    std::string out = "{";
    for (const Field& f : fields_) {
      out += (out.size() > 1 ? ", " : "") + f.key + ": " + f.value;
    }
    return out + "}";
  }

  /// One key per line, one array row per line.
  std::string block() const {
    std::string out = "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      const Field& f = fields_[i];
      out += "  " + f.key + ": ";
      if (f.rows.empty()) {
        out += f.value;
      } else {
        out += "[\n";
        for (std::size_t r = 0; r < f.rows.size(); ++r) {
          out += "    " + f.rows[r] + (r + 1 < f.rows.size() ? ",\n" : "\n");
        }
        out += "  ]";
      }
      out += i + 1 < fields_.size() ? ",\n" : "\n";
    }
    return out + "}\n";
  }

 private:
  struct Field {
    std::string key;                ///< quoted
    std::string value;              ///< rendered on one line
    std::vector<std::string> rows;  ///< an array's rows, for block()
  };

  JsonObject& field(std::string_view key, std::string value) {
    fields_.push_back(Field{quote(key), std::move(value), {}});
    return *this;
  }

  static std::string quote(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  std::vector<Field> fields_;
};

/// Writes a BENCH file: perfbench's environment keys first (CPU count,
/// compiler, build type, and the commit CMake configured from), then
/// `body`'s keys. Nothing here reads a wall clock, so a re-run on the
/// same tree and host differs only in its timings.
inline void writeBenchFile(const std::string& path, const JsonObject& body) {
  JsonObject env;
  env.add("nproc", static_cast<long>(sysconf(_SC_NPROCESSORS_ONLN)))
      .add("compiler", __VERSION__)
      .add("build_type", UTE_BENCH_BUILD_TYPE)
      .add("git_sha", UTE_BENCH_GIT_SHA);
  JsonObject doc;
  doc.add("env", env).extend(body);
  writeWholeFile(path, doc.block());
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace ute::benchutil
