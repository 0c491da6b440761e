#include "support/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <climits>
#include <cstring>
#include <limits>

namespace ute {

namespace {

[[noreturn]] void throwErrno(const std::string& op, const std::string& path) {
  throw IoError(op + " failed" + ioContext(path) + ": " +
                std::strerror(errno));
}

/// pread/pwrite take an off_t; a (corrupt) 64-bit offset above its range
/// would otherwise wrap negative instead of failing loudly.
off_t toOffset(std::uint64_t offset, const std::string& path) {
  if (offset > static_cast<std::uint64_t>(std::numeric_limits<off_t>::max())) {
    throw IoError("seek offset " + std::to_string(offset) +
                  " exceeds the platform file-offset range" +
                  ioContext(path, offset));
  }
  return static_cast<off_t>(offset);
}

/// The most iovecs one writev accepts.
constexpr std::size_t kMaxIov = IOV_MAX;

}  // namespace

FileWriter::FileWriter(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd_ < 0) throwErrno("open for write", path);
}

FileWriter::~FileWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void FileWriter::requireOpen(const char* op) const {
  if (fd_ < 0) {
    throw UsageError(std::string("FileWriter: ") + op + " after close");
  }
}

void FileWriter::write(std::span<const std::uint8_t> data) {
  const std::span<const std::uint8_t> parts[] = {data};
  write(parts);
}

void FileWriter::write(std::span<const std::span<const std::uint8_t>> parts) {
  requireOpen("write");
  std::array<iovec, kMaxIov> iov{};
  auto next = parts.begin();
  while (next != parts.end()) {
    std::size_t count = 0;
    for (; next != parts.end() && count < kMaxIov; ++next) {
      if (next->empty()) continue;
      // writev only reads through iov_base.
      iov[count++] = {const_cast<std::uint8_t*>(next->data()), next->size()};
    }
    iovec* pending = iov.data();
    while (count > 0) {
      const ssize_t n = ::writev(fd_, pending, static_cast<int>(count));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        if (n == 0) errno = EIO;
        throwErrno("write", path_);
      }
      offset_ += static_cast<std::uint64_t>(n);
      // Drop what the kernel took; a partial write resumes mid-part.
      auto left = static_cast<std::size_t>(n);
      while (count > 0 && left >= pending->iov_len) {
        left -= pending->iov_len;
        ++pending;
        --count;
      }
      if (count > 0) {
        pending->iov_base =
            static_cast<std::uint8_t*>(pending->iov_base) + left;
        pending->iov_len -= left;
      }
    }
  }
}

std::uint64_t FileWriter::tell() const {
  requireOpen("tell");
  return offset_;
}

void FileWriter::writeAt(std::uint64_t offset,
                         std::span<const std::uint8_t> data) {
  requireOpen("write");
  while (!data.empty()) {
    const ssize_t n =
        ::pwrite(fd_, data.data(), data.size(), toOffset(offset, path_));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = EIO;
      throwErrno("write", path_);
    }
    offset += static_cast<std::uint64_t>(n);
    data = data.subspan(static_cast<std::size_t>(n));
  }
}

void FileWriter::close() {
  if (fd_ < 0) return;
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) throwErrno("close", path_);
}

FileReader::FileReader(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) throwErrno("open for read", path);
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    const int err = errno;
    ::close(fd_);
    errno = err;
    throwErrno("stat", path);
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
}

FileReader::~FileReader() {
  if (fd_ >= 0) ::close(fd_);
}

void FileReader::readExact(std::span<std::uint8_t> data) {
  readExactAt(pos_, data);
  pos_ += data.size();
}

std::vector<std::uint8_t> FileReader::read(std::size_t n) {
  // Guard before allocating: corrupted headers can claim absurd sizes.
  if (pos_ > size_ || n > size_ - pos_) {
    throw FormatError("read of " + std::to_string(n) +
                      " bytes exceeds file size " + std::to_string(size_) +
                      ioContext(path_, pos_));
  }
  std::vector<std::uint8_t> out(n);
  readExact(out);
  return out;
}

std::size_t FileReader::readSome(std::span<std::uint8_t> data) {
  const std::size_t got = readAt(pos_, data);
  pos_ += got;
  return got;
}

std::size_t FileReader::readAt(std::uint64_t offset,
                               std::span<std::uint8_t> out) const {
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + got, out.size() - got,
                              toOffset(offset + got, path_));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throwErrno("read", path_);
    if (n == 0) break;  // end of file
    got += static_cast<std::size_t>(n);
  }
  return got;
}

void FileReader::readExactAt(std::uint64_t offset,
                             std::span<std::uint8_t> out) const {
  if (readAt(offset, out) != out.size()) {
    throw FormatError("unexpected end of file" + ioContext(path_, offset));
  }
}

void FileReader::seek(std::uint64_t offset) { pos_ = offset; }

std::vector<std::uint8_t> readWholeFile(const std::string& path) {
  FileReader r(path);
  return r.read(static_cast<std::size_t>(r.size()));
}

void writeWholeFile(const std::string& path,
                    std::span<const std::uint8_t> data) {
  FileWriter w(path);
  w.write(data);
  w.close();
}

void writeWholeFile(const std::string& path, const std::string& text) {
  writeWholeFile(path,
                 std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                           text.size()));
}

}  // namespace ute
