#include "support/file_io.h"
#include "temp_dir.h"

#include <gtest/gtest.h>

#include <filesystem>

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
}

}  // namespace
}  // namespace ute
