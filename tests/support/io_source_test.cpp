// The zero-copy byte-source layer: MappedFile RAII mapping, FrameBuf
// shared ownership, BufferPool recycling, and the ByteSource facade's
// contract that the mmap path and the stdio fallback are byte-identical
// — including across a full golden 4-node pipeline run.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <numeric>

#include "interval/file_reader.h"
#include "slog/slog_reader.h"
#include "support/byte_source.h"
#include "support/errors.h"
#include "support/file_io.h"
#include "support/mapped_file.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"
#include "temp_dir.h"

namespace ute {
namespace {

std::string writeBytes(const std::string& name, std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  std::iota(bytes.begin(), bytes.end(), std::uint8_t{0});
  const std::string path = tempPath(name);
  writeWholeFile(path, bytes);
  return path;
}

TEST(MappedFile, MapsFileBytesExactly) {
  const std::string path = writeBytes("map_exact.bin", 4096 + 17);
  const auto map = MappedFile::tryMap(path);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->size(), 4096u + 17u);
  EXPECT_EQ(map->path(), path);
  const std::vector<std::uint8_t> expected = readWholeFile(path);
  ASSERT_EQ(map->bytes().size(), expected.size());
  EXPECT_EQ(std::memcmp(map->bytes().data(), expected.data(),
                        expected.size()),
            0);
  // Advice is best-effort and must never fail the caller.
  map->advise(MappedFile::Hint::kSequential);
  map->advise(100, 2000, MappedFile::Hint::kWillNeed);
  map->advise(0, map->size(), MappedFile::Hint::kRandom);
}

TEST(MappedFile, MissingFileThrowsIoError) {
  EXPECT_THROW(MappedFile::tryMap(tempPath("map_missing.bin")), IoError);
}

TEST(MappedFile, EmptyFileMapsWithZeroSize) {
  const std::string path = writeBytes("map_empty.bin", 0);
  const auto map = MappedFile::tryMap(path);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->size(), 0u);
  EXPECT_TRUE(map->bytes().empty());
}

TEST(ByteSource, MappedFetchIsZeroCopy) {
  const std::string path = writeBytes("src_zero_copy.bin", 8192);
  ByteSource source(path, ByteSource::Mode::kMmap);
  ASSERT_TRUE(source.mapped());
  const FrameBuf whole = source.whole();
  const FrameBuf part = source.fetch(100, 50);
  // The fetched view points into the mapping itself — no copy was made.
  EXPECT_EQ(part.data(), whole.data() + 100);
  // Copying the handle shares the same bytes.
  const FrameBuf alias = part;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(alias.data(), part.data());
}

TEST(ByteSource, StreamFetchUsesBufferPool) {
  const std::string path = writeBytes("src_pool.bin", 8192);
  ByteSource source(path, ByteSource::Mode::kStream);
  ASSERT_FALSE(source.mapped());
  for (int i = 0; i < 16; ++i) {
    const FrameBuf buf = source.fetch(static_cast<std::uint64_t>(i) * 256,
                                      256);
    ASSERT_EQ(buf.size(), 256u);
    // Dropping `buf` at scope end returns its storage to the pool.
  }
  const BufferPool::Stats stats = source.poolStats();
  EXPECT_GT(stats.reused, 0u) << "pool never recycled a buffer";
  EXPECT_LT(stats.allocated, 16u);
}

TEST(ByteSource, BothModesReturnIdenticalBytes) {
  const std::string path = writeBytes("src_identical.bin", 12345);
  ByteSource mapped(path, ByteSource::Mode::kMmap);
  ByteSource stream(path, ByteSource::Mode::kStream);
  ASSERT_EQ(mapped.size(), stream.size());
  for (const auto& [offset, n] :
       {std::pair<std::uint64_t, std::size_t>{0, 12345},
        {1, 4096},
        {12344, 1},
        {7777, 0}}) {
    const FrameBuf a = mapped.fetch(offset, n);
    const FrameBuf b = stream.fetch(offset, n);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.bytes().begin(), a.bytes().end(),
                           b.bytes().begin()))
        << "fetch(" << offset << ", " << n << ") differs";
  }
}

TEST(ByteSource, OutOfRangeFetchNamesPathAndOffset) {
  const std::string path = writeBytes("src_oob.bin", 100);
  for (const auto mode :
       {ByteSource::Mode::kMmap, ByteSource::Mode::kStream}) {
    ByteSource source(path, mode);
    try {
      source.fetch(90, 20);
      FAIL() << "fetch past end of file did not throw";
    } catch (const FormatError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("90"), std::string::npos) << what;
    }
  }
}

TEST(ByteSource, ReadAtCopiesAndStopsAtEof) {
  const std::string path = writeBytes("src_read_at.bin", 300);
  const std::vector<std::uint8_t> expected = readWholeFile(path);
  for (const auto mode :
       {ByteSource::Mode::kMmap, ByteSource::Mode::kStream}) {
    ByteSource source(path, mode);
    std::vector<std::uint8_t> buf(128);
    EXPECT_EQ(source.readAt(0, buf), 128u);
    EXPECT_EQ(std::memcmp(buf.data(), expected.data(), 128), 0);
    EXPECT_EQ(source.readAt(250, buf), 50u) << "short read at tail";
    EXPECT_EQ(std::memcmp(buf.data(), expected.data() + 250, 50), 0);
    EXPECT_EQ(source.readAt(300, buf), 0u) << "read at EOF";
  }
}

TEST(FrameBuf, KeepsBackingStorageAliveAfterSourceDies) {
  const std::string path = writeBytes("framebuf_alive.bin", 2048);
  const std::vector<std::uint8_t> expected = readWholeFile(path);
  for (const auto mode :
       {ByteSource::Mode::kMmap, ByteSource::Mode::kStream}) {
    FrameBuf held;
    {
      ByteSource source(path, mode);
      held = source.fetch(1000, 48);
    }
    ASSERT_EQ(held.size(), 48u);
    EXPECT_EQ(std::memcmp(held.data(), expected.data() + 1000, 48), 0);
  }
}

TEST(FrameBuf, CopyOfOwnsPrivateBytes) {
  std::vector<std::uint8_t> scratch{1, 2, 3, 4};
  const FrameBuf copy = FrameBuf::copyOf(scratch);
  scratch.assign(4, 0xff);  // mutating the origin must not show through
  EXPECT_EQ(copy.bytes()[0], 1);
  EXPECT_EQ(copy.bytes()[3], 4);
}

TEST(BufferPool, RecyclesUpToItsCap) {
  BufferPool pool(/*maxFree=*/2);
  auto a = pool.acquire(100);
  auto b = pool.acquire(200);
  auto c = pool.acquire(300);
  pool.release(std::move(a));
  pool.release(std::move(b));
  pool.release(std::move(c));  // over the cap; dropped
  auto d = pool.acquire(100);
  auto e = pool.acquire(100);
  auto f = pool.acquire(100);
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.reused, 2u);
  EXPECT_EQ(stats.allocated, 4u);
  (void)d;
  (void)e;
  (void)f;
}

// The whole-pipeline contract: a golden 4-node run read back over mmap
// and over the stdio fallback yields identical bytes and identical
// decoded frames at every layer the readers expose.
TEST(ByteSourceGolden, MmapAndStdioAgreeOnFourNodeTrace) {
  TestProgramOptions workload;
  workload.iterations = 30;
  workload.nodes = 4;
  workload.cpusPerNode = 1;
  PipelineOptions options;
  options.dir = makeScratchDir("io_source_golden");
  options.name = "golden4";
  const PipelineResult run = runPipeline(testProgram(workload), options);

  // Raw byte identity of every artifact through both source modes.
  std::vector<std::string> artifacts = run.rawFiles;
  artifacts.insert(artifacts.end(), run.intervalFiles.begin(),
                   run.intervalFiles.end());
  artifacts.push_back(run.mergedFile);
  artifacts.push_back(run.slogFile);
  for (const std::string& path : artifacts) {
    ByteSource mapped(path, ByteSource::Mode::kMmap);
    ByteSource stream(path, ByteSource::Mode::kStream);
    const FrameBuf a = mapped.whole();
    const FrameBuf b = stream.whole();
    ASSERT_EQ(a.size(), b.size()) << path;
    EXPECT_TRUE(std::equal(a.bytes().begin(), a.bytes().end(),
                           b.bytes().begin()))
        << path << " differs between mmap and stdio";
  }

  // Decoded SLOG frames agree field-for-field.
  SlogReader mappedSlog(run.slogFile, ByteSource::Mode::kMmap);
  SlogReader streamSlog(run.slogFile, ByteSource::Mode::kStream);
  ASSERT_EQ(mappedSlog.frameIndex().size(), streamSlog.frameIndex().size());
  for (std::size_t f = 0; f < mappedSlog.frameIndex().size(); ++f) {
    const SlogFramePtr a = mappedSlog.readFrame(f);
    const SlogFramePtr b = streamSlog.readFrame(f);
    ASSERT_EQ(a->intervals.size(), b->intervals.size()) << "frame " << f;
    ASSERT_EQ(a->arrows.size(), b->arrows.size()) << "frame " << f;
    for (std::size_t i = 0; i < a->intervals.size(); ++i) {
      EXPECT_EQ(a->intervals[i].start, b->intervals[i].start);
      EXPECT_EQ(a->intervals[i].dura, b->intervals[i].dura);
      EXPECT_EQ(a->intervals[i].stateId, b->intervals[i].stateId);
    }
  }

  // Interval record streams agree byte-for-byte across modes.
  IntervalFileReader mappedFile(run.mergedFile, ByteSource::Mode::kMmap);
  IntervalFileReader streamFile(run.mergedFile, ByteSource::Mode::kStream);
  auto sa = mappedFile.records();
  auto sb = streamFile.records();
  RecordView ra, rb;
  std::uint64_t records = 0;
  for (;;) {
    const bool ha = sa.next(ra);
    const bool hb = sb.next(rb);
    ASSERT_EQ(ha, hb) << "streams ended at different records";
    if (!ha) break;
    ASSERT_EQ(ra.body.size(), rb.body.size()) << "record " << records;
    EXPECT_TRUE(std::equal(ra.body.begin(), ra.body.end(),
                           rb.body.begin()))
        << "record " << records;
    ++records;
  }
  // Lockstep above already proves the two modes agree record-for-record;
  // just make sure the walk actually covered a non-trivial stream.
  EXPECT_GE(records, run.merge.recordsOut);
}

}  // namespace
}  // namespace ute
