// Robustness fuzzing: readers must fail loudly (FormatError/UsageError)
// on corrupted input — never crash, hang, or silently return garbage
// that decodes past the end of a buffer.
#include <gtest/gtest.h>

#include <filesystem>

#include <unistd.h>

#include "interval/file_reader.h"
#include "interval/file_writer.h"
#include "interval/standard_profile.h"
#include "slog/slog_reader.h"
#include "slog/slog_writer.h"
#include "support/rng.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace ute {
namespace {

namespace fs = std::filesystem;

std::string tempPath(const std::string& name) {
  // Each TEST in this file runs as its own ctest process; prefixing the
  // pid keeps parallel processes from clobbering each other's fixtures.
  return (fs::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

/// Builds a small but structurally rich interval file.
std::string makeIntervalFile(const std::string& name) {
  IntervalFileOptions options;
  options.profileVersion = kStandardProfileVersion;
  options.fieldSelectionMask = kNodeFileMask;
  options.targetFrameBytes = 1024;
  options.framesPerDirectory = 3;
  std::vector<ThreadEntry> threads = {{0, 1, 2, 0, 0, ThreadType::kMpi}};
  const std::string path = tempPath(name);
  IntervalFileWriter w(path, options, threads);
  w.addMarker(1, "phase");
  for (int i = 0; i < 300; ++i) {
    w.addRecord(encodeRecordBody(
                    makeIntervalType(kRunningState, Bebits::kComplete),
                    static_cast<Tick>(i) * 100, 50, 0, 0, 0)
                    .view());
  }
  w.close();
  return path;
}

/// Attempts a full read of an interval file; success or a typed exception
/// both count as "handled".
bool readIntervalFileSafely(const std::string& path) {
  try {
    IntervalFileReader reader(path);
    auto stream = reader.records();
    RecordView view;
    std::uint64_t guard = 0;
    while (stream.next(view)) {
      if (++guard > 1'000'000) return false;  // runaway
    }
    reader.frameContaining(1000);
    reader.totalElapsed();
    return true;
  } catch (const FormatError&) {
    return true;
  } catch (const UsageError&) {
    return true;
  } catch (const IoError&) {
    return true;
  }
}

TEST(IntervalCorruption, UnknownThreadTypeRejectedAtOpen) {
  // The thread table follows the 72-byte header; an entry's type byte is
  // its 21st. Only kMpi, kUser and kSystem exist.
  auto bytes = readWholeFile(makeIntervalFile("corrupt_type.uti"));
  bytes.at(kIntervalHeaderBytes + kThreadEntryBytes - 1) = 7;
  const std::string path = tempPath("corrupt_type_bad.uti");
  writeWholeFile(path, bytes);
  EXPECT_THROW(IntervalFileReader reader(path), FormatError);
}

class IntervalCorruptionTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalCorruptionTest, SingleByteFlipsNeverCrashTheReader) {
  const std::string clean =
      makeIntervalFile("corrupt_base_" + std::to_string(GetParam()) + ".uti");
  const auto original = readWholeFile(clean);
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    auto bytes = original;
    const std::size_t pos = rng.below(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    const std::string path = tempPath("corrupt_flip.uti");
    writeWholeFile(path, bytes);
    EXPECT_TRUE(readIntervalFileSafely(path))
        << "flip at byte " << pos << " misbehaved";
  }
}

TEST_P(IntervalCorruptionTest, TruncationsNeverCrashTheReader) {
  const std::string clean = makeIntervalFile("corrupt_trunc.uti");
  const auto original = readWholeFile(clean);
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t keep = rng.below(original.size());
    const std::string path = tempPath("corrupt_trunc_cut.uti");
    writeWholeFile(path, std::span(original.data(), keep));
    EXPECT_TRUE(readIntervalFileSafely(path)) << "truncated to " << keep;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalCorruptionTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(RawTraceCorruption, FlipsAndTruncationsHandled) {
  TraceOptions options;
  options.filePrefix = tempPath("corrupt_raw");
  {
    TraceSession session(options, 0, 2);
    for (int i = 0; i < 500; ++i) {
      session.cut(EventType::kUserMarker, kFlagBegin, 0, 0,
                  static_cast<Tick>(i) * 10, payloadUserMarker(1, 0));
    }
    session.close();
  }
  const std::string clean = TraceSession::traceFilePath(options.filePrefix, 0);
  const auto original = readWholeFile(clean);
  Rng rng(7);
  const auto readSafely = [](const std::string& path) {
    try {
      TraceFileReader reader(path);
      std::uint64_t guard = 0;
      while (reader.next()) {
        if (++guard > 1'000'000) return false;
      }
      return true;
    } catch (const FormatError&) {
      return true;
    }
  };
  for (int trial = 0; trial < 60; ++trial) {
    auto bytes = original;
    bytes[rng.below(bytes.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    const std::string path = tempPath("corrupt_raw_flip.utr");
    writeWholeFile(path, bytes);
    EXPECT_TRUE(readSafely(path));
  }
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t keep = rng.below(original.size());
    const std::string path = tempPath("corrupt_raw_trunc.utr");
    writeWholeFile(path, std::span(original.data(), keep));
    EXPECT_TRUE(readSafely(path));
  }
}

TEST(SlogCorruption, FlipsAndTruncationsHandled) {
  // A SLOG produced by the real pipeline writer.
  const Profile profile = makeStandardProfile();
  const std::string path = tempPath("corrupt_base.slog");
  {
    SlogWriter w(path, SlogOptions{.recordsPerFrame = 64}, profile,
                 {{0, 1, 2, 0, 0, ThreadType::kMpi}}, {{1, "phase"}});
    for (int i = 0; i < 300; ++i) {
      ByteWriter extra;
      extra.u64(static_cast<Tick>(i) * 100);  // origStart
      const ByteWriter body = encodeRecordBody(
          makeIntervalType(kRunningState, Bebits::kComplete),
          static_cast<Tick>(i) * 100, 50, 0, 0, 0, extra.view());
      w.addRecord(RecordView::parse(body.view()));
    }
    w.close();
  }
  const auto original = readWholeFile(path);
  Rng rng(11);
  const auto readSafely = [](const std::string& p) {
    try {
      SlogReader reader(p);
      for (std::size_t f = 0; f < reader.frameIndex().size(); ++f) {
        reader.readFrame(f);
      }
      reader.frameIndexFor(500);
      return true;
    } catch (const FormatError&) {
      return true;
    } catch (const UsageError&) {
      return true;
    } catch (const IoError&) {
      return true;
    }
  };
  for (int trial = 0; trial < 60; ++trial) {
    auto bytes = original;
    bytes[rng.below(bytes.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    const std::string p = tempPath("corrupt_flip.slog");
    writeWholeFile(p, bytes);
    EXPECT_TRUE(readSafely(p));
  }
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t keep = rng.below(original.size());
    const std::string p = tempPath("corrupt_trunc.slog");
    writeWholeFile(p, std::span(original.data(), keep));
    EXPECT_TRUE(readSafely(p));
  }
}

}  // namespace
}  // namespace ute
