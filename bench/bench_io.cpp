// I/O layer benchmarks for the zero-copy byte-source work: cold and warm
// frame reads plus a whole-file scan sweep across the three read
// strategies (mmap, plain pread readAt, pread fetch through the
// BufferPool; the JSON keys still call the pread path "stdio"), written
// to BENCH_io.json. A decode row times readFrame per frame on a SLOG
// shaped like perfbench batch-wide's (64 nodes, default 4,096-record
// frames) and checks that every frame of its v2 file decodes equal to
// the same frame of its v1 file. Also counts heap allocations on
// the warm server frame path — the zero-copy contract says a cache hit
// hands out the shared decoded frame without allocating anything — and
// checks that the mmap full scan is at least as fast as the pread
// baseline. Then google-benchmark microbenchmarks of the same paths.
// perfbench reports the frame-read p50 (`slog.frame_read_p50_ms`); the
// encoding and read-strategy sweeps are only here.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <span>
#include <vector>

#include "bench_util.h"
#include "server/trace_service.h"
#include "slog/slog_reader.h"
#include "support/byte_source.h"
#include "support/text.h"
#include "workloads/workloads.h"

// Global allocation counters so the warm-path probe can assert "zero
// allocations per request" instead of guessing. Counting is switched on
// only around the measured loop, so fixture setup stays free.
namespace {
std::atomic<bool> gCountAllocs{false};
std::atomic<std::uint64_t> gAllocCalls{0};
std::atomic<std::uint64_t> gAllocBytes{0};
}  // namespace

void* operator new(std::size_t n) {
  if (gCountAllocs.load(std::memory_order_relaxed)) {
    gAllocCalls.fetch_add(1, std::memory_order_relaxed);
    gAllocBytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

// GCC flags free() here because it cannot see that the replacement
// operator new above allocates with malloc; the pairing is correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace ute;

std::string gSlog;      // columnar v2 (the default encoding)
std::string gSlogV1;    // the same trace written row-major v1
std::uint64_t gSlogBytes = 0;

double mbPerSec(std::uint64_t bytes, double seconds) {
  return seconds == 0 ? 0 : static_cast<double>(bytes) / 1e6 / seconds;
}

/// Reads every frame once; returns the decoded interval count (a simple
/// checksum keeping the work honest).
std::uint64_t readAllFrames(const SlogReader& reader) {
  std::uint64_t intervals = 0;
  for (std::size_t f = 0; f < reader.frameIndex().size(); ++f) {
    intervals += reader.readFrame(f)->intervals.size();
  }
  return intervals;
}

/// Full decode counting every record (intervals + arrows) — the unit the
/// encoding sweep's records/s figure is in.
std::uint64_t decodeAllRecords(const SlogReader& reader) {
  std::uint64_t records = 0;
  for (std::size_t f = 0; f < reader.frameIndex().size(); ++f) {
    const SlogFramePtr frame = reader.readFrame(f);
    records += frame->intervals.size() + frame->arrows.size();
  }
  return records;
}

/// Sum of the index's encoded frame payload sizes (header, thread table,
/// index, state table and preview excluded — the part the encoding
/// actually changes).
std::uint64_t totalFrameBytes(const SlogReader& reader) {
  std::uint64_t bytes = 0;
  for (const SlogFrameIndexEntry& e : reader.frameIndex()) {
    bytes += e.sizeBytes;
  }
  return bytes;
}

/// XOR-folds the whole file through the given scan strategy. The source
/// is constructed by the caller and reused across scans, the way every
/// real reader holds one ByteSource for its lifetime — so the mmap path
/// pays its page faults once, not per scan.
enum class Scan { kMmap, kStdio, kPool };

std::uint64_t fold(std::span<const std::uint8_t> bytes, std::uint64_t acc) {
  // Word-wise so the scan runs at memory speed; a byte loop would hide
  // the copy cost the strategies differ in.
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    acc ^= w;
  }
  for (; i < bytes.size(); ++i) acc ^= bytes[i];
  return acc;
}

std::uint64_t fullScan(Scan scan, const ByteSource& source) {
  constexpr std::size_t kChunk = 256 * 1024;
  std::uint64_t acc = 0;
  switch (scan) {
    case Scan::kMmap: {
      acc = fold(source.whole().bytes(), acc);
      break;
    }
    case Scan::kStdio: {
      // Baseline: one reused buffer, plain copying reads.
      std::vector<std::uint8_t> buf(kChunk);
      std::uint64_t offset = 0;
      for (;;) {
        const std::size_t got = source.readAt(offset, buf);
        if (got == 0) break;
        acc = fold(std::span(buf.data(), got), acc);
        offset += got;
      }
      break;
    }
    case Scan::kPool: {
      // fetch() path: every chunk is a pooled FrameBuf, the way frame
      // reads travel on the non-mmap path.
      for (std::uint64_t offset = 0; offset < source.size();
           offset += kChunk) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kChunk, source.size() - offset));
        acc = fold(source.fetch(offset, n).bytes(), acc);
      }
      break;
    }
  }
  return acc;
}

ByteSource::Mode scanMode(Scan scan) {
  return scan == Scan::kMmap ? ByteSource::Mode::kMmap
                             : ByteSource::Mode::kStream;
}

/// True when every frame of `a` decodes equal to the same frame of `b`.
bool framesIdentical(const SlogReader& a, const SlogReader& b) {
  if (a.frameIndex().size() != b.frameIndex().size()) return false;
  for (std::size_t f = 0; f < a.frameIndex().size(); ++f) {
    const SlogFramePtr x = a.readFrame(f);
    const SlogFramePtr y = b.readFrame(f);
    if (!benchutil::sameIntervals(x->intervals, y->intervals) ||
        !benchutil::sameArrows(x->arrows, y->arrows)) {
      return false;
    }
  }
  return true;
}

/// The decode row: readFrame's cost per frame on a batch-wide-shaped
/// trace, the median of kPasses passes over every frame.
struct DecodeRow {
  std::size_t frames = 0;
  std::uint64_t intervals = 0;
  std::uint64_t arrows = 0;
  std::uint64_t payloadBytes = 0;
  double usPerFrame = 0;
  bool identical = false;
};

DecodeRow measureDecode() {
  TestProgramOptions workload;
  workload.iterations = 300;
  workload.tasks = 64;
  workload.nodes = 64;
  workload.seed = 1;
  PipelineOptions options;
  // The 64-node run's raw and interval files take over 100 MB.
  const benchutil::ScratchDir scratch("bench_io_decode");
  options.dir = scratch.path();
  options.name = "wide";
  const std::string v2 = runPipeline(testProgram(workload), options).slogFile;
  PipelineOptions v1Options = options;
  v1Options.name = "wide_v1";
  v1Options.slog.formatVersion = 1;
  const std::string v1 = runPipeline(testProgram(workload), v1Options).slogFile;

  const SlogReader reader(v2);
  DecodeRow row;
  row.frames = reader.frameIndex().size();
  row.payloadBytes = totalFrameBytes(reader);
  for (std::size_t f = 0; f < row.frames; ++f) {
    const SlogFramePtr frame = reader.readFrame(f);  // page cache warm-up
    row.intervals += frame->intervals.size();
    row.arrows += frame->arrows.size();
  }
  row.identical = framesIdentical(reader, SlogReader(v1));
  constexpr int kPasses = 15;
  std::vector<double> passes;
  for (int pass = 0; pass < kPasses; ++pass) {
    const auto t0 = benchutil::now();
    benchmark::DoNotOptimize(readAllFrames(reader));
    passes.push_back(benchutil::secondsSince(t0));
  }
  std::sort(passes.begin(), passes.end());
  row.usPerFrame =
      passes[kPasses / 2] * 1e6 / static_cast<double>(row.frames);
  return row;
}

struct FrameReadPoint {
  const char* mode;
  double coldSeconds = 0;
  double warmSeconds = 0;
  std::uint64_t intervals = 0;
};

struct ScanPoint {
  const char* strategy;
  double seconds = 0;
};

void printSweep(const std::string& dir) {
  TestProgramOptions workload;
  workload.iterations = 1200;
  workload.nodes = 4;
  PipelineOptions options;
  options.dir = dir;
  options.name = "io";
  options.slog.recordsPerFrame = 256;
  const PipelineResult run = runPipeline(testProgram(workload), options);
  gSlog = run.slogFile;
  {
    const ByteSource probe(gSlog);
    gSlogBytes = probe.size();
  }

  // The same simulated trace written row-major (v1) — the encoding sweep
  // compares bytes/record and decode speed against the columnar default.
  PipelineOptions v1Options = options;
  v1Options.name = "io_v1";
  v1Options.slog.formatVersion = 1;
  gSlogV1 = runPipeline(testProgram(workload), v1Options).slogFile;

  std::printf("=== I/O: frame encoding, row v1 vs columnar v2 ===\n");
  std::printf("%10s %14s %10s %12s %16s\n", "encoding", "frame bytes",
              "records", "bytes/rec", "decode rec/s");
  struct EncodingPoint {
    const char* encoding;
    std::uint64_t frameBytes = 0;
    std::uint64_t records = 0;
    double decodeSeconds = 0;
  };
  std::vector<EncodingPoint> encodings;
  std::uint64_t checksum = 0;
  for (const auto& [name, path] :
       {std::pair<const char*, const std::string*>{"row-v1", &gSlogV1},
        {"columnar-v2", &gSlog}}) {
    const SlogReader reader(*path);
    EncodingPoint p;
    p.encoding = name;
    p.frameBytes = totalFrameBytes(reader);
    p.records = decodeAllRecords(reader);  // warm: page cache + checksum
    // Best of 20 full decodes, so the records/s figure is the decode
    // loop, not a scheduler hiccup or a neighbour on a shared host.
    p.decodeSeconds = 1e9;
    for (int rep = 0; rep < 20; ++rep) {
      const auto t0 = benchutil::now();
      const std::uint64_t got = decodeAllRecords(reader);
      p.decodeSeconds = std::min(p.decodeSeconds, benchutil::secondsSince(t0));
      benchutil::require(got == p.records, "decode repeated differently");
    }
    if (encodings.empty()) {
      checksum = p.records;
    } else {
      benchutil::require(p.records == checksum,
                         "v1 and v2 decoded different record counts");
    }
    std::printf("%10s %14s %10s %12.2f %16s\n", p.encoding,
                withCommas(p.frameBytes).c_str(),
                withCommas(p.records).c_str(),
                static_cast<double>(p.frameBytes) /
                    static_cast<double>(p.records),
                withCommas(static_cast<std::uint64_t>(
                               static_cast<double>(p.records) /
                               p.decodeSeconds))
                    .c_str());
    encodings.push_back(p);
  }
  const double v2Ratio =
      static_cast<double>(encodings[1].frameBytes) /
      static_cast<double>(encodings[0].frameBytes);
  std::printf("v2/v1 bytes per record: %.3fx %s\n", v2Ratio,
              v2Ratio <= 0.6 ? "(<= 0.6x, as required)"
                             : "(V2 LARGER THAN THE 0.6x BOUND)");
  // Both sweeps decode the same records, so the rate ratio is the
  // inverse time ratio.
  const double v2Speed =
      encodings[0].decodeSeconds / encodings[1].decodeSeconds;
  std::printf("v2/v1 decode speed: %.2fx %s\n\n", v2Speed,
              v2Speed >= 1.0 ? "(v2 decodes at least as fast as v1)"
                             : "(V2 DECODES SLOWER THAN V1)");

  std::printf("=== I/O: readFrame on a batch-wide-shaped SLOG ===\n");
  const DecodeRow decode = measureDecode();
  const double perFrame = static_cast<double>(decode.frames);
  std::printf("%zu frames, %.0f intervals + %.0f arrows, %.0f payload "
              "bytes per frame\n",
              decode.frames, static_cast<double>(decode.intervals) / perFrame,
              static_cast<double>(decode.arrows) / perFrame,
              static_cast<double>(decode.payloadBytes) / perFrame);
  std::printf("readFrame: %.1f us per frame (median of passes)\n",
              decode.usPerFrame);
  std::printf("v2 frames decode equal to v1: %s\n\n",
              decode.identical ? "yes" : "NO");
  benchutil::require(decode.identical,
                     "a v2 frame decodes differently from its v1 frame");

  std::printf("=== I/O: frame reads, mmap vs stdio fallback ===\n");
  std::printf("(%s byte SLOG)\n", withCommas(gSlogBytes).c_str());
  std::printf("%8s %12s %12s %14s\n", "mode", "cold (s)", "warm (s)",
              "warm MB/s");
  std::vector<FrameReadPoint> frameReads;
  for (const auto& [name, mode] :
       {std::pair<const char*, ByteSource::Mode>{"mmap",
                                                 ByteSource::Mode::kMmap},
        {"stdio", ByteSource::Mode::kStream}}) {
    FrameReadPoint p;
    p.mode = name;
    const auto t0 = benchutil::now();
    const SlogReader reader(gSlog, mode);
    p.intervals = readAllFrames(reader);
    p.coldSeconds = benchutil::secondsSince(t0);
    const auto t1 = benchutil::now();
    const std::uint64_t warmIntervals = readAllFrames(reader);
    p.warmSeconds = benchutil::secondsSince(t1);
    benchutil::require(warmIntervals == p.intervals,
                       "warm re-read decoded differently");
    std::printf("%8s %12.4f %12.4f %14.1f\n", p.mode, p.coldSeconds,
                p.warmSeconds, mbPerSec(gSlogBytes, p.warmSeconds));
    frameReads.push_back(p);
  }
  benchutil::require(frameReads[0].intervals == frameReads[1].intervals,
                     "mmap and stdio decoded different intervals");

  std::printf("\n=== I/O: full-scan throughput ===\n");
  std::printf("%8s %12s %14s\n", "path", "seconds", "MB/s");
  std::vector<ScanPoint> scans;
  std::uint64_t reference = 0;
  for (const auto& [name, scan] :
       {std::pair<const char*, Scan>{"mmap", Scan::kMmap},
        {"stdio", Scan::kStdio},
        {"pool", Scan::kPool}}) {
    const ByteSource source(gSlog, scanMode(scan));
    std::uint64_t acc = fullScan(scan, source);  // warm: faults + cache
    // Best of five so one scheduler hiccup doesn't decide the winner.
    double best = 1e9;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = benchutil::now();
      acc = fullScan(scan, source);
      best = std::min(best, benchutil::secondsSince(t0));
    }
    ScanPoint p;
    p.strategy = name;
    p.seconds = best;
    if (scan == Scan::kMmap) {
      reference = acc;
    } else {
      benchutil::require(acc == reference,
                         "scan strategies disagree on file bytes");
    }
    std::printf("%8s %12.4f %14.1f\n", p.strategy, p.seconds,
                mbPerSec(gSlogBytes, p.seconds));
    scans.push_back(p);
  }
  const bool mmapNotSlower = scans[0].seconds <= scans[1].seconds;
  std::printf("mmap vs stdio: %.2fx %s\n",
              scans[0].seconds == 0
                  ? 0.0
                  : scans[1].seconds / scans[0].seconds,
              mmapNotSlower ? "(mmap >= stdio, as required)"
                            : "(MMAP SLOWER THAN STDIO)");

  // Warm server path: after the cache holds every frame, a frame request
  // is a hash lookup, a frequency-sketch record and a shared_ptr copy —
  // zero heap allocations.
  std::printf("\n=== I/O: warm server frame path, allocation count ===\n");
  TraceService service({gSlog});
  const std::size_t frames = service.trace(0).frameIndex().size();
  for (std::size_t f = 0; f < frames; ++f) service.frame(0, f);  // warm
  constexpr int kRequests = 2000;
  gAllocCalls = 0;
  gAllocBytes = 0;
  gCountAllocs = true;
  for (int i = 0; i < kRequests; ++i) {
    const FrameCache::FramePtr frame =
        service.frame(0, static_cast<std::size_t>(i) % frames);
    benchmark::DoNotOptimize(frame);
  }
  gCountAllocs = false;
  const std::uint64_t allocs = gAllocCalls.load();
  const std::uint64_t allocBytes = gAllocBytes.load();
  std::printf("%d warm frame requests: %llu allocations (%llu bytes)\n",
              kRequests, static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(allocBytes));
  benchutil::require(allocs == 0, "the warm frame path allocates");

  benchutil::JsonObject doc;
  doc.add("workload", "test program, 4 nodes")
      .add("note", "decode, read and scan rates are single-thread figures")
      .add("slog_bytes", gSlogBytes);
  std::vector<benchutil::JsonObject> rows;
  for (const EncodingPoint& p : encodings) {
    benchutil::JsonObject& row = rows.emplace_back();
    row.add("encoding", p.encoding)
        .add("frame_bytes", p.frameBytes)
        .add("records", p.records)
        .add("bytes_per_record",
             static_cast<double>(p.frameBytes) /
                 static_cast<double>(p.records),
             3)
        .add("decode_records_per_second",
             static_cast<double>(p.records) / p.decodeSeconds, 1);
  }
  doc.add("encoding_sweep", rows)
      .add("v2_over_v1_bytes_per_record", v2Ratio, 4)
      .add("v2_within_0_6x_of_v1", v2Ratio <= 0.6)
      .add("v2_over_v1_decode_speed", v2Speed, 3)
      .add("vectorization_note",
           "columnar decode reads every block header first, then fills the "
           "records in tiles of 256 with all columns writing into the tile "
           "while it is in L1; a block of one-byte values is checked with "
           "one byteMax reduction (src/slog/kernels.h) and widened, other "
           "blocks peel varints off a 64-byte stop-bit mask (stopMask64, a "
           "multiply-gather per 8-byte word) with countr_zero, copying each "
           "one's 8-byte word, then mask the words and pack their 7-bit "
           "groups in three shift/mask steps in one lane-wise loop "
           "(packVarintWords); plain C++ the compiler may autovectorize, no "
           "intrinsics");
  benchutil::JsonObject decodeRow;
  decodeRow.add("workload", "test program, 64 nodes, 64 tasks, 300 iterations")
      .add("frames", static_cast<std::uint64_t>(decode.frames))
      .add("intervals_per_frame",
           static_cast<double>(decode.intervals) / perFrame, 1)
      .add("arrows_per_frame", static_cast<double>(decode.arrows) / perFrame,
           1)
      .add("payload_bytes_per_frame",
           static_cast<double>(decode.payloadBytes) / perFrame, 1)
      .add("read_frame_us_per_frame", decode.usPerFrame, 2);
  doc.add("decode", decodeRow)
      .add("columnar_decode_identical", decode.identical);
  rows.clear();
  for (const FrameReadPoint& p : frameReads) {
    benchutil::JsonObject& row = rows.emplace_back();
    row.add("mode", p.mode)
        .add("cold_seconds", p.coldSeconds, 6)
        .add("warm_seconds", p.warmSeconds, 6)
        .add("warm_mb_per_second", mbPerSec(gSlogBytes, p.warmSeconds), 1);
  }
  doc.add("frame_reads", rows);
  rows.clear();
  for (const ScanPoint& p : scans) {
    benchutil::JsonObject& row = rows.emplace_back();
    row.add("strategy", p.strategy)
        .add("seconds", p.seconds, 6)
        .add("mb_per_second", mbPerSec(gSlogBytes, p.seconds), 1);
  }
  benchutil::JsonObject warmPath;
  warmPath.add("requests", kRequests)
      .add("allocations", allocs)
      .add("allocated_bytes", allocBytes);
  doc.add("full_scan", rows)
      .add("mmap_not_slower_than_stdio", mmapNotSlower)
      .add("warm_server_path", warmPath);
  benchutil::writeBenchFile("BENCH_io.json", doc);
  std::printf("\n");
}

void BM_DecodeByEncoding(benchmark::State& state) {
  // Arg 0 = row v1, Arg 1 = columnar v2 — the same trace either way.
  const SlogReader reader(state.range(0) == 0 ? gSlogV1 : gSlog);
  decodeAllRecords(reader);  // page cache warm-up
  std::uint64_t records = 0;
  for (auto _ : state) {
    records += decodeAllRecords(reader);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_DecodeByEncoding)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_FrameReadWarm(benchmark::State& state) {
  const SlogReader reader(
      gSlog, state.range(0) == 0 ? ByteSource::Mode::kMmap
                                 : ByteSource::Mode::kStream);
  readAllFrames(reader);  // decode once so the page cache is hot
  for (auto _ : state) {
    benchmark::DoNotOptimize(readAllFrames(reader));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      static_cast<std::uint64_t>(state.iterations()) * gSlogBytes));
}
BENCHMARK(BM_FrameReadWarm)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FullScan(benchmark::State& state) {
  const Scan scan = static_cast<Scan>(state.range(0));
  const ByteSource source(gSlog, scanMode(scan));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fullScan(scan, source));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      static_cast<std::uint64_t>(state.iterations()) * gSlogBytes));
}
BENCHMARK(BM_FullScan)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_WarmServerFrame(benchmark::State& state) {
  TraceService service({gSlog});
  const std::size_t frames = service.trace(0).frameIndex().size();
  for (std::size_t f = 0; f < frames; ++f) service.frame(0, f);
  std::size_t f = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.frame(0, f));
    f = (f + 1) % frames;
  }
}
BENCHMARK(BM_WarmServerFrame);

}  // namespace

int main(int argc, char** argv) {
  const ute::benchutil::ScratchDir scratch("bench_io");
  printSweep(scratch.path());
  return ute::benchutil::runBenchmarks(argc, argv);
}
