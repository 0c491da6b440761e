#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "common.h"
#include "spans.h"

namespace perfbench {

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<unsigned char> fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  const std::vector<SpanRecord> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "{\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"aggregated_child_ns\": %lld, "
                 "\"aggregated_child_calls\": %llu}%s\n",
                 s.id, s.parent, s.name.c_str(),
                 static_cast<long long>(s.startNs),
                 static_cast<long long>(s.endNs),
                 static_cast<long long>(s.aggregatedChildNs),
                 static_cast<unsigned long long>(s.aggregatedChildCalls),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
