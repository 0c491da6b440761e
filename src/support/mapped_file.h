// Read-only memory-mapped file with RAII unmapping and madvise hints.
//
// The interval and SLOG formats were designed so every tool touches only
// the bytes it needs (directory entries, one frame at a time); mapping
// the file lets those reads be pointer arithmetic instead of
// seek+read+copy. MappedFile is the low-level primitive: it maps the
// whole file PROT_READ and hands out std::span views. ByteSource
// (support/byte_source.h) layers the graceful pread fallback and the
// shared-buffer semantics the readers consume; most code should use it
// rather than MappedFile directly.
//
// A MappedFile is immutable after construction, so concurrent readers
// need no synchronization — this is what makes SlogReader::readFrame and
// the trace-query service lock-free on the hot read path.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace ute {

class MappedFile {
 public:
  /// Page-cache advice forwarded to madvise(2); a no-op on failure (the
  /// hints are performance-only and never affect correctness).
  enum class Hint {
    kNormal,
    kSequential,  ///< aggressive readahead (full scans)
    kRandom,      ///< disable readahead (frame-at-a-time access)
    kWillNeed,    ///< fault pages in ahead of use (prefetch)
  };

  /// Maps `path` read-only, or returns nullptr when the file cannot be
  /// mapped (mmap unsupported by the filesystem, out of address space) —
  /// the caller then falls back to pread. Throws IoError when the file
  /// cannot even be opened or stat'ed, so "file does not exist" reports
  /// identically on both paths.
  static std::shared_ptr<const MappedFile> tryMap(const std::string& path);

  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::span<const std::uint8_t> bytes() const {
    return {static_cast<const std::uint8_t*>(addr_), size_};
  }
  std::uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Advice for the whole mapping.
  void advise(Hint hint) const;
  /// Advice for a byte range (rounded outward to page boundaries).
  void advise(std::uint64_t offset, std::uint64_t length, Hint hint) const;

 private:
  MappedFile(std::string path, void* addr, std::size_t size)
      : path_(std::move(path)), addr_(addr), size_(size) {}

  std::string path_;
  void* addr_ = nullptr;  ///< nullptr only for empty files
  std::size_t size_ = 0;
};

}  // namespace ute
