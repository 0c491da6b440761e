// Corruption hardening for the SLOG read path: frame offsets/sizes and
// table offsets all come from the file, so a truncated or bit-flipped
// file must fail with a typed error (CorruptFileError / FormatError) at
// open or frame-read time — never a crash, hang, or silently decoded
// garbage. This is load-bearing for the query service, which opens
// user-supplied files and keeps running.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "interval/standard_profile.h"
#include "slog/slog_reader.h"
#include "slog/slog_writer.h"
#include "support/file_io.h"
#include "temp_dir.h"

namespace ute {
namespace {

/// Writes a small but multi-frame SLOG file and returns its path.
std::string writeValidSlog(const std::string& name) {
  const std::string path = tempPath(name);
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.recordsPerFrame = 64;
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {});
  for (int i = 0; i < 400; ++i) {
    ByteWriter extra;
    extra.u64(static_cast<Tick>(i) * kMs);  // origStart
    w.addRecord(RecordView::parse(
        encodeRecordBody(makeIntervalType(kRunningState, Bebits::kComplete),
                         static_cast<Tick>(i) * kMs, kMs / 2, 0, 0, 0,
                         extra.view())
            .view()));
  }
  w.close();
  return path;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  return readWholeFile(path);
}

std::uint64_t u64At(const std::vector<std::uint8_t>& bytes,
                    std::size_t pos) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= std::uint64_t{bytes[pos + i]} << (8 * i);
  }
  return v;
}

void putU64At(std::vector<std::uint8_t>& bytes, std::size_t pos,
              std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void putU32At(std::vector<std::uint8_t>& bytes, std::size_t pos,
              std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Header layout (docs/FORMAT.md): 6 u32 (magic, version, states,
// threads, frames, recs/frame) then totalStart, totalEnd, indexOffset,
// stateOffset, previewOffset as u64.
constexpr std::size_t kIndexOffsetPos = 24 + 16;
constexpr std::size_t kStateOffsetPos = 24 + 24;

// Every corruption case must fail identically on the mmap path and the
// stdio fallback — the validation lives above ByteSource, so the two
// paths share it, and this keeps UTE_NO_MMAP deployments honest.
constexpr ByteSource::Mode kModes[] = {ByteSource::Mode::kAuto,
                                       ByteSource::Mode::kStream};

TEST(SlogCorruption, ReaderStaysUsableOnValidFile) {
  const std::string path = writeValidSlog("corrupt_base.slog");
  SlogReader reader(path);
  ASSERT_GE(reader.frameIndex().size(), 4u);
  EXPECT_GT(reader.readFrame(0)->intervals.size(), 0u);
}

/// Fuzz-style sweep: every truncation length must throw a typed error
/// from either the constructor or some readFrame, never crash.
TEST(SlogCorruption, TruncationAlwaysThrowsTypedError) {
  const std::string path = writeValidSlog("corrupt_trunc.slog");
  const std::vector<std::uint8_t> full = slurp(path);
  ASSERT_GT(full.size(), 256u);
  const std::string cut = tempPath("corrupt_trunc_cut.slog");
  // Dense coverage of small prefixes (header/table edges) plus strides
  // through the frame/preview region.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 96; ++n) lengths.push_back(n);
  for (std::size_t n = 96; n < full.size() - 1; n += 37) {
    lengths.push_back(n);
  }
  lengths.push_back(full.size() - 1);  // exactly one preview byte short
  for (const ByteSource::Mode mode : kModes) {
    for (const std::size_t n : lengths) {
      writeWholeFile(cut, std::span(full.data(), n));
      try {
        SlogReader reader(cut, mode);
        // Metadata happened to fit; every frame read must still be safe.
        for (std::size_t f = 0; f < reader.frameIndex().size(); ++f) {
          reader.readFrame(f);
        }
        // Fully intact metadata+frames can only mean we kept everything
        // but preview tail bytes — those are read in the constructor, so
        // reaching here with n < full.size() means validation failed.
        FAIL() << "truncation to " << n << " bytes was not detected (mode "
               << static_cast<int>(mode) << ")";
      } catch (const FormatError&) {
        // CorruptFileError or FormatError: both are acceptable typed
        // failures (CorruptFileError derives from FormatError).
      } catch (const IoError&) {
        // Short read detected at the file layer.
      }
    }
  }
}

TEST(SlogCorruption, FrameOffsetBeyondFileRejectedAtOpen) {
  const std::string path = writeValidSlog("corrupt_offset.slog");
  std::vector<std::uint8_t> bytes = slurp(path);
  const std::uint64_t indexOffset = u64At(bytes, kIndexOffsetPos);
  // First index entry: offset u64 at +0.
  putU64At(bytes, static_cast<std::size_t>(indexOffset),
           bytes.size() + 4096);
  const std::string bad = tempPath("corrupt_offset_bad.slog");
  writeWholeFile(bad, bytes);
  for (const ByteSource::Mode mode : kModes) {
    EXPECT_THROW(SlogReader reader(bad, mode), CorruptFileError);
  }
}

TEST(SlogCorruption, FrameSizeBeyondFileRejectedAtOpen) {
  const std::string path = writeValidSlog("corrupt_size.slog");
  std::vector<std::uint8_t> bytes = slurp(path);
  const std::uint64_t indexOffset = u64At(bytes, kIndexOffsetPos);
  // First index entry: sizeBytes u32 at +8.
  putU32At(bytes, static_cast<std::size_t>(indexOffset) + 8, 0x7fffffff);
  const std::string bad = tempPath("corrupt_size_bad.slog");
  writeWholeFile(bad, bytes);
  for (const ByteSource::Mode mode : kModes) {
    EXPECT_THROW(SlogReader reader(bad, mode), CorruptFileError);
  }
}

TEST(SlogCorruption, StateTableAfterPreviewRejected) {
  const std::string path = writeValidSlog("corrupt_order.slog");
  std::vector<std::uint8_t> bytes = slurp(path);
  // Push stateOffset past previewOffset.
  putU64At(bytes, kStateOffsetPos, u64At(bytes, kStateOffsetPos + 8) + 8);
  const std::string bad = tempPath("corrupt_order_bad.slog");
  writeWholeFile(bad, bytes);
  for (const ByteSource::Mode mode : kModes) {
    EXPECT_THROW(SlogReader reader(bad, mode), CorruptFileError);
  }
}

TEST(SlogCorruption, OversizedPreviewRejectedAtOpen) {
  // The preview head is origin and bin width (u64) then the bin count
  // (u32). One flipped high byte of the count asks for rows of ~4G bins;
  // the reader must refuse before it allocates one.
  const std::string path = writeValidSlog("corrupt_preview.slog");
  std::vector<std::uint8_t> bytes = slurp(path);
  const std::size_t previewOffset =
      static_cast<std::size_t>(u64At(bytes, kStateOffsetPos + 8));
  bytes.at(previewOffset + 16 + 3) ^= 0xff;
  const std::string bad = tempPath("corrupt_preview_bad.slog");
  writeWholeFile(bad, bytes);
  for (const ByteSource::Mode mode : kModes) {
    EXPECT_THROW(SlogReader reader(bad, mode), FormatError);
  }
}

TEST(SlogCorruption, StateCountBeyondStateTableRejectedAtOpen) {
  const std::string path = writeValidSlog("corrupt_states.slog");
  std::vector<std::uint8_t> bytes = slurp(path);
  putU32At(bytes, 8, 0xffffffff);  // header: state count
  const std::string bad = tempPath("corrupt_states_bad.slog");
  writeWholeFile(bad, bytes);
  for (const ByteSource::Mode mode : kModes) {
    EXPECT_THROW(SlogReader reader(bad, mode), CorruptFileError);
  }
}

// The default writer output is v2 (columnar frames, 36-byte index
// entries), so every sweep above already fuzzes the v2 read path. The
// cases below poke the v2-only structures directly.

TEST(SlogCorruption, V2EncodingTagValidatedAtOpen) {
  const std::string path = writeValidSlog("corrupt_enc.slog");
  std::vector<std::uint8_t> bytes = slurp(path);
  const std::uint64_t indexOffset = u64At(bytes, kIndexOffsetPos);
  // First index entry: the encoding tag u32 sits after the 32-byte v1
  // prefix. Any value beyond kColumnar is an unknown encoding.
  putU32At(bytes, static_cast<std::size_t>(indexOffset) + 32, 7);
  const std::string bad = tempPath("corrupt_enc_bad.slog");
  writeWholeFile(bad, bytes);
  for (const ByteSource::Mode mode : kModes) {
    EXPECT_THROW(SlogReader reader(bad, mode), CorruptFileError);
  }
}

TEST(SlogCorruption, V2FramePayloadBitFlipsNeverCrash) {
  const std::string path = writeValidSlog("corrupt_flip.slog");
  const std::vector<std::uint8_t> original = slurp(path);
  // First index entry gives the first frame's payload range.
  const std::uint64_t indexOffset = u64At(original, kIndexOffsetPos);
  const std::size_t payloadStart = static_cast<std::size_t>(
      u64At(original, static_cast<std::size_t>(indexOffset)));
  std::uint32_t payloadSize = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    payloadSize |= std::uint32_t{
        original[static_cast<std::size_t>(indexOffset) + 8 + i]} << (8 * i);
  }
  ASSERT_GT(payloadSize, 0u);
  const std::string bad = tempPath("corrupt_flip_bad.slog");
  // Every byte of the first frame's columnar payload, one flipped bit
  // each (cycling through bit positions keeps the sweep linear): either
  // a typed error or a decoded frame, never a crash or OOB read.
  std::size_t threw = 0;
  for (std::size_t i = 0; i < payloadSize; ++i) {
    std::vector<std::uint8_t> bytes = original;
    bytes[payloadStart + i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    writeWholeFile(bad, bytes);
    try {
      SlogReader reader(bad);
      reader.readFrame(0);
    } catch (const FormatError&) {
      ++threw;
    }
  }
  // The counts and block headers at the front must be validated, so at
  // least some flips are rejected outright.
  EXPECT_GT(threw, 0u);
}

TEST(SlogCorruption, RecordCountLieThrowsInsteadOfGarbage) {
  const std::string path = writeValidSlog("corrupt_records.slog");
  std::vector<std::uint8_t> bytes = slurp(path);
  const std::uint64_t indexOffset = u64At(bytes, kIndexOffsetPos);
  // First index entry: records u32 at +12 — claim far more records than
  // the frame's bytes hold; decoding must hit the ByteReader bound.
  putU32At(bytes, static_cast<std::size_t>(indexOffset) + 12, 1u << 20);
  const std::string bad = tempPath("corrupt_records_bad.slog");
  writeWholeFile(bad, bytes);
  for (const ByteSource::Mode mode : kModes) {
    SlogReader reader(bad, mode);  // index itself is still self-consistent
    EXPECT_THROW(reader.readFrame(0), FormatError);
  }
}

}  // namespace
}  // namespace ute
