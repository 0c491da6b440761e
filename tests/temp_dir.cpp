#include "temp_dir.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <vector>

#include <unistd.h>

namespace ute {
namespace {

class ProcessTempDir {
 public:
  ProcessTempDir() {
    const std::string pattern =
        (std::filesystem::temp_directory_path() / "ute-test.XXXXXX").string();
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      std::perror("mkdtemp");
      std::abort();
    }
    path_ = buf.data();
    setenv("TMPDIR", path_.c_str(), 1);
  }

  ~ProcessTempDir() {
    // A forked child that exits normally must not remove its parent's
    // files.
    if (getpid() != owner_) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  pid_t owner_ = getpid();
};

ProcessTempDir& processTempDir() {
  static ProcessTempDir dir;
  return dir;
}

// Made during static initialization, so TMPDIR names it before main.
const ProcessTempDir& gMadeBeforeMain = processTempDir();

}  // namespace

std::string tempPath(const std::string& name) {
  return processTempDir().path() + "/" + name;
}

}  // namespace ute
