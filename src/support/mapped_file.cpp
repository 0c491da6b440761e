#include "support/mapped_file.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/errors.h"

namespace ute {

namespace {

int adviceOf(MappedFile::Hint hint) {
  switch (hint) {
    case MappedFile::Hint::kSequential: return MADV_SEQUENTIAL;
    case MappedFile::Hint::kRandom: return MADV_RANDOM;
    case MappedFile::Hint::kWillNeed: return MADV_WILLNEED;
    case MappedFile::Hint::kNormal: break;
  }
  return MADV_NORMAL;
}

}  // namespace

std::shared_ptr<const MappedFile> MappedFile::tryMap(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw IoError("open for read failed" + ioContext(path) + ": " +
                  std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw IoError("stat failed" + ioContext(path) + ": " +
                  std::strerror(err));
  }
  const auto size = static_cast<std::size_t>(st.st_size);

  void* addr = nullptr;
  if (size > 0) {
    addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      // Not an error: pipes, some network filesystems and exhausted
      // address space all land here; the caller falls back to pread.
      ::close(fd);
      return nullptr;
    }
  }
  // The mapping keeps the file alive; the descriptor is no longer needed.
  ::close(fd);
  return std::shared_ptr<const MappedFile>(
      new MappedFile(path, addr, size));
}

MappedFile::~MappedFile() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
}

void MappedFile::advise(Hint hint) const { advise(0, size_, hint); }

void MappedFile::advise(std::uint64_t offset, std::uint64_t length,
                        Hint hint) const {
  if (addr_ == nullptr || length == 0 || offset >= size_) return;
  length = std::min<std::uint64_t>(length, size_ - offset);
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t lo = offset / page * page;
  const std::uint64_t hi = offset + length;
  // Advisory only; ignore failures.
  ::madvise(static_cast<char*>(addr_) + lo, static_cast<std::size_t>(hi - lo),
            adviceOf(hint));
}

}  // namespace ute
