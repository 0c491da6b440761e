// Scratch files for the test binaries.
//
// Every test binary links temp_dir.cpp. Before main it makes one
// directory for the process under the system temp directory and points
// TMPDIR at it, so tempPath(), makeScratchDir() and any other
// std::filesystem::temp_directory_path() user in the process (or in a
// tool it runs) write inside it. The process that made it removes it,
// with everything in it, when it exits.
#pragma once

#include <string>

namespace ute {

/// `name` inside this test process's scratch directory.
std::string tempPath(const std::string& name);

}  // namespace ute
