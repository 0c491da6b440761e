// The unified zero-copy input layer every reader sits on.
//
// Three pieces, from the bottom up:
//
//   FrameBuf    — an immutable, cheaply shareable view of a byte range
//                 plus whatever owns those bytes (a MappedFile, a pooled
//                 buffer, a heap vector). Copying a FrameBuf never copies
//                 the bytes; the last copy to die releases the owner.
//   BufferPool  — recycles read buffers for the non-mmap path, so a
//                 streaming scan reuses a handful of allocations instead
//                 of mallocing one per frame.
//   ByteSource  — a read-only file exposed as bounds-checked fetch()es.
//                 Backed by an mmap (fetch = pointer arithmetic, zero
//                 copies, no locks) with a graceful pread fallback
//                 (fetch = one pooled pread, no lock either). Thread-safe
//                 on both paths, so one ByteSource serves any number of
//                 concurrent readers — this is what removed the
//                 per-worker file-handle pools from the server and the
//                 metrics engine.
//
// Ownership rule: a FrameBuf keeps its backing storage (including the
// whole mapping) alive, so holding frames of a closed/destroyed reader
// is safe; conversely, holding many FrameBufs of a huge non-mapped file
// pins their buffers — callers that retain frames long-term (the server
// cache) decode them into their own structures instead.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "support/bytes.h"
#include "support/mapped_file.h"
#include "support/thread_annotations.h"

namespace ute {

class FileReader;

/// Immutable shared view of a byte range; see file comment.
class FrameBuf {
 public:
  FrameBuf() = default;
  FrameBuf(std::shared_ptr<const void> owner,
           std::span<const std::uint8_t> bytes)
      : owner_(std::move(owner)), bytes_(bytes) {}

  std::span<const std::uint8_t> bytes() const { return bytes_; }
  const std::uint8_t* data() const { return bytes_.data(); }
  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }

  /// A bounds-checked decoder over the bytes (does not extend lifetime —
  /// keep the FrameBuf alive while reading).
  ByteReader reader() const { return ByteReader(bytes_); }

  /// A FrameBuf that owns a private copy of `bytes` (tests, small tables).
  static FrameBuf copyOf(std::span<const std::uint8_t> bytes);

 private:
  std::shared_ptr<const void> owner_;
  std::span<const std::uint8_t> bytes_;
};

/// Thread-safe free list of byte buffers for the non-mmap read path.
class BufferPool {
 public:
  /// `maxFree` bounds how many idle buffers the pool retains.
  explicit BufferPool(std::size_t maxFree = 8) : maxFree_(maxFree) {}

  /// A buffer with size() == n (capacity reused from a released buffer
  /// when one is available).
  std::vector<std::uint8_t> acquire(std::size_t n) UTE_EXCLUDES(mu_);
  void release(std::vector<std::uint8_t> buf) UTE_EXCLUDES(mu_);

  struct Stats {
    std::uint64_t reused = 0;     ///< acquires served from the free list
    std::uint64_t allocated = 0;  ///< acquires that had to allocate
  };
  Stats stats() const UTE_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<std::vector<std::uint8_t>> free_ UTE_GUARDED_BY(mu_);
  std::size_t maxFree_;
  Stats stats_ UTE_GUARDED_BY(mu_);
};

/// Read-only random-access byte source; see file comment.
class ByteSource {
 public:
  enum class Mode {
    kAuto,    ///< mmap, falling back to pread (honors UTE_NO_MMAP=1)
    kMmap,    ///< mmap or throw IoError
    kStream,  ///< pread + BufferPool (the fallback path, forced)
  };

  explicit ByteSource(const std::string& path, Mode mode = Mode::kAuto);
  ~ByteSource();

  ByteSource(const ByteSource&) = delete;
  ByteSource& operator=(const ByteSource&) = delete;

  std::uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }
  bool mapped() const { return map_ != nullptr; }

  /// The bytes [offset, offset+n). Zero-copy when mapped (the FrameBuf
  /// pins the mapping); one pooled read otherwise. Throws FormatError
  /// with path+offset context when the range exceeds the file.
  FrameBuf fetch(std::uint64_t offset, std::size_t n) const;

  /// The whole file (zero-copy when mapped).
  FrameBuf whole() const { return fetch(0, static_cast<std::size_t>(size_)); }

  /// Copies up to out.size() bytes at `offset` into `out`, returning the
  /// count actually read (0 at end of file) — the streaming-reader
  /// refill primitive. Never throws on short reads.
  std::size_t readAt(std::uint64_t offset, std::span<std::uint8_t> out) const;

  /// Page-cache advice; a no-op on the pread path.
  void advise(MappedFile::Hint hint) const;
  void advise(std::uint64_t offset, std::uint64_t length,
              MappedFile::Hint hint) const;

  /// Buffer-reuse counters of the fallback path (zeros when mapped).
  BufferPool::Stats poolStats() const;

 private:
  void requireWithin(std::uint64_t offset, std::size_t n) const;

  std::string path_;
  std::uint64_t size_ = 0;
  std::shared_ptr<const MappedFile> map_;  ///< null on the pread path
  /// Fallback state: a reader whose readAt() needs no lock, and pooled
  /// buffers.
  std::unique_ptr<const FileReader> file_;
  std::shared_ptr<BufferPool> pool_;
};

}  // namespace ute
