// Binary file I/O with random access, straight on a POSIX descriptor.
//
// Neither class keeps a buffer of its own. Every writer above them
// already assembles what it writes in memory: a trace session its
// blocks, the interval writer a directory with its frames, the SLOG
// writer a whole frame. FileWriter hands those bytes to the kernel in one
// call, gathered when they sit in several places, and back-patches
// directory links with pwrite. FileReader reads with pread at a tracked
// cursor, and readAt() reads at any offset without touching the cursor,
// so one reader may serve concurrent callers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/bytes.h"
#include "support/errors.h"

namespace ute {

/// Write-only binary file. Throws IoError on any failure.
class FileWriter {
 public:
  explicit FileWriter(const std::string& path);
  ~FileWriter();

  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  void write(std::span<const std::uint8_t> data);
  void write(const ByteWriter& w) { write(w.view()); }
  /// Writes `parts` back to back with writev, in as few calls as the
  /// kernel's IOV_MAX allows; empty parts are skipped.
  void write(std::span<const std::span<const std::uint8_t>> parts);

  /// The number of bytes written so far: where the next write() lands.
  std::uint64_t tell() const;

  /// Writes `data` at `offset` without moving the write position — used
  /// for back-patching directory links.
  void writeAt(std::uint64_t offset, std::span<const std::uint8_t> data);

  /// Closes; subsequent writes are a usage error. The destructor also
  /// closes, but calling close() lets errors surface.
  void close();

  const std::string& path() const { return path_; }

 private:
  void requireOpen(const char* op) const;

  std::string path_;
  int fd_ = -1;
  std::uint64_t offset_ = 0;
};

/// Read-only binary file with random access. Throws IoError / FormatError.
class FileReader {
 public:
  explicit FileReader(const std::string& path);
  ~FileReader();

  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  /// Reads exactly data.size() bytes; throws FormatError on short read.
  void readExact(std::span<std::uint8_t> data);
  std::vector<std::uint8_t> read(std::size_t n);

  /// Reads up to data.size() bytes, returning the count (0 at EOF).
  std::size_t readSome(std::span<std::uint8_t> data);

  /// Reads up to out.size() bytes at `offset`, returning the count (0 at
  /// EOF). Leaves the cursor alone, so concurrent calls are safe.
  std::size_t readAt(std::uint64_t offset, std::span<std::uint8_t> out) const;
  /// Reads exactly out.size() bytes at `offset`; throws FormatError on a
  /// short read. Also safe to call concurrently.
  void readExactAt(std::uint64_t offset, std::span<std::uint8_t> out) const;

  std::uint64_t tell() const { return pos_; }
  void seek(std::uint64_t offset);
  std::uint64_t size() const { return size_; }
  bool atEnd() const { return pos_ >= size_; }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::uint64_t pos_ = 0;
};

/// Reads a whole file into memory (for small files such as profiles).
std::vector<std::uint8_t> readWholeFile(const std::string& path);

/// Writes a buffer as the entire contents of a file.
void writeWholeFile(const std::string& path,
                    std::span<const std::uint8_t> data);
void writeWholeFile(const std::string& path, const std::string& text);

}  // namespace ute
