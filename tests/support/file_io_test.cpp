#include "support/file_io.h"
#include "support/byte_source.h"
#include "temp_dir.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <thread>

namespace ute {
namespace {

TEST(FileIo, WriteThenReadBack) {
  const std::string path = tempPath("ute_fileio_1.bin");
  {
    FileWriter w(path);
    ByteWriter b;
    b.u32(42);
    b.u64(7);
    w.write(b);
    EXPECT_EQ(w.tell(), 12u);
    w.close();
  }
  FileReader r(path);
  EXPECT_EQ(r.size(), 12u);
  const auto data = r.read(12);
  ByteReader b(data);
  EXPECT_EQ(b.u32(), 42u);
  EXPECT_EQ(b.u64(), 7u);
  EXPECT_TRUE(r.atEnd());
}

TEST(FileIo, WriteAtPatchesWithoutMovingCursor) {
  const std::string path = tempPath("ute_fileio_2.bin");
  {
    FileWriter w(path);
    ByteWriter b;
    b.u32(0);
    b.u32(2);
    w.write(b);
    ByteWriter patch;
    patch.u32(1);
    w.writeAt(0, patch.view());
    EXPECT_EQ(w.tell(), 8u);  // cursor restored
    ByteWriter more;
    more.u32(3);
    w.write(more);
    w.close();
  }
  FileReader r(path);
  const auto data = r.read(12);
  ByteReader b(data);
  EXPECT_EQ(b.u32(), 1u);
  EXPECT_EQ(b.u32(), 2u);
  EXPECT_EQ(b.u32(), 3u);
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(FileReader("/nonexistent/definitely/missing"), IoError);
}

TEST(FileIo, ReadPastEndThrows) {
  const std::string path = tempPath("ute_fileio_3.bin");
  writeWholeFile(path, std::string("abc"));
  FileReader r(path);
  EXPECT_THROW(r.read(10), FormatError);
}

TEST(FileIo, SeekAndReadSome) {
  const std::string path = tempPath("ute_fileio_4.bin");
  writeWholeFile(path, std::string("0123456789"));
  FileReader r(path);
  r.seek(5);
  std::uint8_t buf[16];
  EXPECT_EQ(r.readSome(buf), 5u);
  EXPECT_EQ(buf[0], '5');
  EXPECT_EQ(r.readSome(buf), 0u);  // EOF
}

TEST(FileIo, WholeFileHelpers) {
  const std::string path = tempPath("ute_fileio_5.bin");
  writeWholeFile(path, std::string("payload"));
  const auto bytes = readWholeFile(path);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "payload");
}

TEST(FileIo, WriteAfterCloseThrows) {
  const std::string path = tempPath("ute_fileio_6.bin");
  FileWriter w(path);
  w.close();
  ByteWriter b;
  b.u8(1);
  EXPECT_THROW(w.write(b), UsageError);
  const std::span<const std::uint8_t> parts[] = {b.view()};
  EXPECT_THROW(w.write(parts), UsageError);
  EXPECT_THROW(w.writeAt(0, b.view()), UsageError);
  EXPECT_THROW(w.tell(), UsageError);
  w.close();  // closing twice is harmless
}

TEST(FileIo, GatheredWriteSkipsEmptyPartsAndSpansIovMax) {
  const std::string path = tempPath("ute_fileio_gather.bin");
  // More parts than one writev takes (IOV_MAX is 1024 on Linux), every
  // third one empty, of sizes that do not line up with anything.
  std::vector<std::vector<std::uint8_t>> storage;
  std::vector<std::uint8_t> expected;
  for (std::size_t i = 0; i < 2500; ++i) {
    std::vector<std::uint8_t> part(i % 3 == 0 ? 0 : 1 + i % 97);
    for (std::size_t j = 0; j < part.size(); ++j) {
      part[j] = static_cast<std::uint8_t>(i * 31 + j);
    }
    expected.insert(expected.end(), part.begin(), part.end());
    storage.push_back(std::move(part));
  }
  std::vector<std::span<const std::uint8_t>> parts(storage.begin(),
                                                   storage.end());
  FileWriter w(path);
  w.write(parts);
  EXPECT_EQ(w.tell(), expected.size());
  w.write(std::span<const std::span<const std::uint8_t>>{});  // no parts
  EXPECT_EQ(w.tell(), expected.size());
  w.close();
  EXPECT_TRUE(readWholeFile(path) == expected);
}

TEST(FileIo, TellAndWriteAtFollowAGatheredWrite) {
  const std::string path = tempPath("ute_fileio_gather_patch.bin");
  const std::vector<std::uint8_t> a = {1, 2, 3};
  const std::vector<std::uint8_t> b = {4, 5, 6, 7, 8};
  const std::span<const std::uint8_t> parts[] = {a, {}, b};
  FileWriter w(path);
  w.write(parts);
  EXPECT_EQ(w.tell(), 8u);
  const std::vector<std::uint8_t> patch = {0xaa, 0xbb};
  w.writeAt(2, patch);  // straddles the two parts
  EXPECT_EQ(w.tell(), 8u);
  w.write(a);  // lands at the end, not after the patch
  EXPECT_EQ(w.tell(), 11u);
  w.close();
  EXPECT_EQ(readWholeFile(path),
            (std::vector<std::uint8_t>{1, 2, 0xaa, 0xbb, 5, 6, 7, 8, 1, 2, 3}));
}

TEST(FileIo, UnopenableWriterPathIsNamed) {
  const std::string path = tempPath("no_such_dir/out.bin");
  try {
    FileWriter w(path);
    FAIL() << "opened " << path;
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(FileIo, ReadAtLeavesTheCursor) {
  const std::string path = tempPath("ute_fileio_readat.bin");
  writeWholeFile(path, std::string("0123456789"));
  FileReader r(path);
  r.seek(2);
  std::uint8_t buf[4];
  EXPECT_EQ(r.readAt(7, buf), 3u);  // short at end of file
  EXPECT_EQ(buf[0], '7');
  EXPECT_EQ(r.readAt(10, buf), 0u);
  EXPECT_THROW(r.readExactAt(8, buf), FormatError);
  EXPECT_EQ(r.tell(), 2u);
  r.readExact(buf);
  EXPECT_EQ(buf[0], '2');
  EXPECT_EQ(r.tell(), 6u);
}

TEST(FileIo, ConcurrentReadsAtOffsetsNeedNoLock) {
  // readAt keeps no cursor, so one FileReader, and the stream-mode
  // ByteSource on top of one, serve threads reading different offsets.
  const std::string path = tempPath("ute_fileio_threads.bin");
  std::vector<std::uint8_t> expected(40000);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<std::uint8_t>(i * 7 + i / 251);
  }
  writeWholeFile(path, expected);
  const FileReader reader(path);
  const ByteSource source(path, ByteSource::Mode::kStream);
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::uint8_t> buf(333);
      for (std::uint64_t i = 0; i < 200; ++i) {
        const std::uint64_t offset = (t * 7919 + i * 173) % 39000;
        reader.readExactAt(offset, buf);
        if (std::memcmp(buf.data(), &expected[offset], buf.size()) != 0) {
          ++mismatches[t];
        }
        const FrameBuf f = source.fetch(offset, 1000);
        if (std::memcmp(f.data(), &expected[offset], f.size()) != 0) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

}  // namespace
}  // namespace ute
