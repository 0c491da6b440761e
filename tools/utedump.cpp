// utedump — human-readable dumps of every file format in the framework:
// raw trace files, description profiles, interval files (header, thread
// table, frame directories, records), and SLOG files.
//
// Usage:
//   utedump --raw FILE.utr [--limit N]
//   utedump --profile profile.ute
//   utedump --interval FILE.uti [--limit N] [--profile profile.ute]
//   utedump --slog FILE.slog [--frame-stats]
#include <cstdio>
#include <exception>

#include "interval/file_reader.h"
#include "interval/standard_profile.h"
#include "slog/slog_codec.h"
#include "slog/slog_reader.h"
#include "support/cli.h"
#include "support/text.h"
#include "trace/reader.h"

namespace {

using namespace ute;

void dumpRaw(const std::string& path, std::uint64_t limit) {
  TraceFileReader reader(path);
  std::printf("raw trace %s: node %d, %d cpus\n", path.c_str(), reader.node(),
              reader.cpuCount());
  while (const auto ev = reader.next()) {
    if (reader.eventsRead() > limit) break;
    std::printf("  t=%12llu cpu=%d ltid=%3d %-16s flags=%u payload=%zuB\n",
                static_cast<unsigned long long>(ev->localTs), ev->cpu,
                ev->ltid, eventTypeName(ev->type).c_str(), ev->flags,
                ev->payload.size());
  }
  std::printf("  (%s events%s)\n", withCommas(reader.eventsRead()).c_str(),
              reader.eventsRead() > limit ? ", truncated" : "");
}

void dumpProfile(const std::string& path) {
  const Profile profile = Profile::readFile(path);
  std::printf("%s", profile.describe().c_str());
}

void dumpInterval(const std::string& path, const Profile& profile,
                  std::uint64_t limit) {
  IntervalFileReader reader(path);
  const IntervalFileHeader& h = reader.header();
  std::printf(
      "interval file %s: profile v%u, %s, mask=0x%llx, %u threads, "
      "%u markers, %s records, time [%.6f, %.6f] s\n",
      path.c_str(), h.profileVersion, h.merged() ? "merged" : "per-node",
      static_cast<unsigned long long>(h.fieldSelectionMask), h.threadCount,
      h.markerCount, withCommas(h.totalRecords).c_str(),
      static_cast<double>(h.minStart) / 1e9,
      static_cast<double>(h.maxEnd) / 1e9);
  for (const ThreadEntry& t : reader.threads()) {
    std::printf("  thread: node=%d ltid=%d task=%d pid=%d stid=%d type=%s\n",
                t.node, t.ltid, t.task, t.pid, t.systemTid,
                threadTypeName(t.type).c_str());
  }
  for (const auto& [id, name] : reader.markers()) {
    std::printf("  marker %u = \"%s\"\n", id, name.c_str());
  }
  std::size_t dirIdx = 0;
  for (FrameDirectory dir = reader.firstDirectory(); !dir.frames.empty();
       dir = reader.readDirectory(dir.nextOffset)) {
    std::printf("  directory %zu @%llu: %zu frames (prev=%llu next=%llu)\n",
                dirIdx++, static_cast<unsigned long long>(dir.offset),
                dir.frames.size(),
                static_cast<unsigned long long>(dir.prevOffset),
                static_cast<unsigned long long>(dir.nextOffset));
    if (dir.nextOffset == 0) break;
  }
  std::uint64_t shown = 0;
  auto stream = reader.records();
  RecordView rec;
  while (stream.next(rec) && shown < limit) {
    ++shown;
    const RecordSpec* spec = profile.find(rec.intervalType);
    const std::string name =
        spec != nullptr ? profile.recordName(*spec)
                        : "type" + std::to_string(rec.intervalType);
    std::printf(
        "  [%s/%s] start=%.6f dura=%.6f node=%d cpu=%d thread=%d",
        name.c_str(), bebitsName(rec.bebits()).c_str(),
        static_cast<double>(rec.start) / 1e9,
        static_cast<double>(rec.dura) / 1e9, rec.node, rec.cpu, rec.thread);
    if (spec != nullptr) {
      forEachField(*spec, h.fieldSelectionMask, rec.body,
                   [&](const FieldSpec& f, std::span<const std::uint8_t> data,
                       std::uint32_t count) {
                     const std::string& fname = profile.fieldName(f);
                     if (fname == kFieldType || fname == kFieldStart ||
                         fname == kFieldDura || fname == kFieldCpu ||
                         fname == kFieldNode || fname == kFieldThread) {
                       return true;
                     }
                     if (!f.isVector && count == 1) {
                       std::printf(" %s=%lld", fname.c_str(),
                                   static_cast<long long>(
                                       decodeScalar(f.type, data)));
                     }
                     return true;
                   });
    }
    std::printf("\n");
  }
  if (h.totalRecords > shown) std::printf("  ... (%s more records)\n",
      withCommas(h.totalRecords - shown).c_str());
}

void dumpSlog(const std::string& path) {
  SlogReader slog(path);
  std::printf(
      "slog %s: v%u, [%.6f, %.6f] s, %zu states, %zu threads, %zu frames\n",
      path.c_str(), slog.formatVersion(),
      static_cast<double>(slog.totalStart()) / 1e9,
      static_cast<double>(slog.totalEnd()) / 1e9, slog.states().size(),
      slog.threads().size(), slog.frameIndex().size());
  for (const SlogStateDef& s : slog.states()) {
    std::printf("  state %u rgb=#%06x %s\n", s.id, s.rgb, s.name.c_str());
  }
  for (std::size_t i = 0; i < slog.frameIndex().size(); ++i) {
    const SlogFrameIndexEntry& e = slog.frameIndex()[i];
    std::printf("  frame %zu @%llu: %u records, [%.6f, %.6f] s\n", i,
                static_cast<unsigned long long>(e.offset), e.records,
                static_cast<double>(e.timeStart) / 1e9,
                static_cast<double>(e.timeEnd) / 1e9);
  }
}

/// --frame-stats: the encoded-size view of a SLOG file — per-frame
/// payload bytes, record count, bytes/record, and encoding, with file
/// totals. The quickest way to eyeball v1 vs v2 on a real trace.
void dumpFrameStats(const std::string& path) {
  SlogReader slog(path);
  std::printf("slog %s: v%u, %zu frames\n", path.c_str(),
              slog.formatVersion(), slog.frameIndex().size());
  std::printf("  %-7s %-10s %-8s %-12s %s\n", "frame", "bytes", "records",
              "bytes/rec", "encoding");
  std::uint64_t totalBytes = 0;
  std::uint64_t totalRecords = 0;
  for (std::size_t i = 0; i < slog.frameIndex().size(); ++i) {
    const SlogFrameIndexEntry& e = slog.frameIndex()[i];
    totalBytes += e.sizeBytes;
    totalRecords += e.records;
    std::printf("  %-7zu %-10u %-8u %-12.2f %s\n", i, e.sizeBytes, e.records,
                e.records == 0 ? 0.0
                               : static_cast<double>(e.sizeBytes) /
                                     static_cast<double>(e.records),
                frameEncodingName(static_cast<FrameEncoding>(e.encoding)));
  }
  std::printf("  total: %s frame bytes, %s records, %.2f bytes/record\n",
              withCommas(totalBytes).c_str(),
              withCommas(totalRecords).c_str(),
              totalRecords == 0 ? 0.0
                                : static_cast<double>(totalBytes) /
                                      static_cast<double>(totalRecords));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ute;
  try {
    CliParser cli(argc, argv, {"raw", "profile", "interval", "slog", "limit"},
                  {"frame-stats"});
    const std::uint64_t limit = cli.valueOr("limit", std::uint64_t{50});
    if (const auto raw = cli.value("raw")) {
      dumpRaw(*raw, limit);
    } else if (const auto interval = cli.value("interval")) {
      const Profile profile = loadProfileOrStandard(
          cli.valueOr("profile", std::string(kStandardProfileFileName)));
      dumpInterval(*interval, profile, limit);
    } else if (const auto slogPath = cli.value("slog")) {
      if (cli.hasFlag("frame-stats")) {
        dumpFrameStats(*slogPath);
      } else {
        dumpSlog(*slogPath);
      }
    } else if (const auto profilePath = cli.value("profile")) {
      dumpProfile(*profilePath);
    } else {
      std::fprintf(stderr,
                   "usage: utedump --raw|--interval|--slog|--profile FILE\n");
      return 2;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "utedump: %s\n", e.what());
    return 1;
  }
}
