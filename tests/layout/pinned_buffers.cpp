#include "pinned_buffers.h"

#include <filesystem>
#include <fstream>

#include "interval/file_reader.h"
#include "interval/standard_profile.h"
#include "server/protocol.h"
#include "slog/slog_reader.h"
#include "slog/slog_writer.h"
#include "stream/ingest_protocol.h"
#include "support/file_io.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"

namespace ute::layout {

namespace {

std::vector<std::uint8_t> bytesOf(const ByteWriter& w) {
  const auto view = w.view();
  return {view.begin(), view.end()};
}

/// Merged-style record body (origStart appended).
ByteWriter mergedBody(EventType event, Bebits bebits, Tick start, Tick dura,
                      NodeId node, LogicalThreadId thread,
                      const ByteWriter& args = {}) {
  ByteWriter extra;
  extra.bytes(args.view());
  extra.u64(start);  // origStart
  return encodeRecordBody(makeIntervalType(event, bebits), start, dura, 0,
                          node, thread, extra.view());
}

/// The record sequence behind tests/data/golden_v2.slog (the same one
/// tests/slog/golden_test.cpp writes), in either frame encoding.
void writeGoldenRecords(const std::string& path, std::uint32_t version) {
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.recordsPerFrame = 48;
  options.formatVersion = version;
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {{3, "golden phase"}});
  ByteWriter markerBegin;
  markerBegin.u32(3);
  markerBegin.u64(0x10);  // instrAddrBegin
  w.addRecord(RecordView::parse(
      mergedBody(EventType::kUserMarker, Bebits::kBegin, 0, kMs, 0, 0,
                 markerBegin)
          .view()));
  for (int i = 0; i < 220; ++i) {
    w.addRecord(RecordView::parse(
        mergedBody(kRunningState, Bebits::kComplete,
                   static_cast<Tick>(i) * kMs + (i % 7) * 1000,
                   kMs / 2 + (i % 3) * 100, i % 2, 0)
            .view()));
    if (i % 20 == 5) {
      const std::uint32_t seq = static_cast<std::uint32_t>(i);
      ByteWriter sendArgs;
      sendArgs.i32(1);                    // destTask
      sendArgs.i32(9);                    // tag
      sendArgs.u32(256u + (i % 4) * 64);  // msgSizeSent
      sendArgs.u32(seq);                  // seqNo
      sendArgs.i32(0);                    // comm
      w.addRecord(RecordView::parse(
          mergedBody(EventType::kMpiSend, Bebits::kComplete,
                     static_cast<Tick>(i) * kMs, kMs / 4, 0, 0, sendArgs)
              .view()));
      ByteWriter recvArgs;
      recvArgs.i32(0);                    // srcWanted
      recvArgs.i32(9);                    // tagWanted
      recvArgs.i32(0);                    // comm
      recvArgs.i32(0);                    // srcTask
      recvArgs.i32(9);                    // tagRecv
      recvArgs.u32(256u + (i % 4) * 64);  // msgSizeRecv
      recvArgs.u32(seq);                  // seqNo
      w.addRecord(RecordView::parse(
          mergedBody(EventType::kMpiRecv, Bebits::kComplete,
                     static_cast<Tick>(i) * kMs + kMs / 3, kMs / 4, 1, 0,
                     recvArgs)
              .view()));
    }
  }
  ByteWriter markerEnd;
  markerEnd.u32(3);
  markerEnd.u64(0x20);  // instrAddrEnd
  w.addRecord(RecordView::parse(
      mergedBody(EventType::kUserMarker, Bebits::kEnd, 220 * kMs, kMs, 0, 0,
                 markerEnd)
          .view()));
  w.close();
}

/// The info reply with its path lstring replaced by the base name.
std::vector<std::uint8_t> withBaseName(std::vector<std::uint8_t> reply) {
  ByteReader r(reply);
  if (r.u8() != 0) return reply;  // an error reply carries no path
  const std::string path = r.lstring();
  const std::size_t rest = r.pos();
  ByteWriter w;
  w.u8(0);
  w.lstring(std::filesystem::path(path).filename().string());
  w.bytes(std::span<const std::uint8_t>(reply).subspan(rest));
  return bytesOf(w);
}

WindowQuery between(Tick t0, Tick t1) {
  WindowQuery query;
  query.t0 = t0;
  query.t1 = t1;
  return query;
}

std::vector<ThreadEntry> sampleThreads() {
  return {{0, 4100, 4101, 0, 0, ThreadType::kMpi},
          {0, 4100, 4102, 0, 1, ThreadType::kUser},
          {-1, 1, 1, 0, 2, ThreadType::kSystem}};
}

void decodeIngest(std::span<const std::uint8_t> bytes) {
  switch (peekIngestOp(bytes)) {
    case IngestOp::kHello: decodeIngestHello(bytes); return;
    case IngestOp::kThreads: decodeIngestThreads(bytes); return;
    case IngestOp::kMarker: decodeIngestMarker(bytes); return;
    case IngestOp::kClockPairs: decodeIngestClockPairs(bytes); return;
    case IngestOp::kRecords: decodeIngestRecords(bytes); return;
    case IngestOp::kBye: return;
  }
  // The ingest server answers any other op byte kBadRequest.
}

/// Writes a fresh file (unlinked first, not truncated in place: some
/// filesystems flush a file rewritten by truncation when it is closed).
void writeBytes(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::filesystem::remove(path);
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void readSlog(const std::string& path) {
  const SlogReader reader(path);
  for (std::size_t f = 0; f < reader.frameIndex().size(); ++f) {
    reader.readFrame(f);
  }
}

void readIntervals(const std::string& path) {
  const IntervalFileReader reader(path);
  auto stream = reader.records();
  RecordView view;
  while (stream.next(view)) {
  }
  reader.countRecordsViaDirectories();
}

}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::string goldenV2Path() {
  return std::string(UTE_TEST_DATA_DIR) + "/golden_v2.slog";
}

std::vector<Pinned> queryRequests() {
  auto service = std::make_shared<TraceService>(
      std::vector<std::string>{goldenV2Path()});
  const auto decode = [service](std::span<const std::uint8_t> bytes) {
    const std::vector<std::uint8_t> reply =
        processRequest(*service, bytes).response;
    // kInternal reports a server failure, not a refused request.
    if (reply.at(0) == static_cast<std::uint8_t>(ErrorCode::kInternal)) {
      throw std::runtime_error("internal error reply to a request");
    }
    decodeOkReply(reply);
  };
  WindowQuery filtered;
  filtered.t0 = 10 * kMs;
  filtered.t1 = 90 * kMs;
  filtered.node = 1;
  filtered.thread = 0;
  filtered.states = {static_cast<std::uint32_t>(kRunningState),
                     kMarkerStateBase + 3};
  const std::vector<std::pair<std::string, ByteWriter>> requests = {
      {"hello", encodeHelloRequest()},
      {"hello-row", encodeHelloRequest(0b01)},
      {"hello-legacy", encodeLegacyHelloRequest()},
      {"info", encodeTraceRequest(Opcode::kInfo, 0)},
      {"states", encodeTraceRequest(Opcode::kStates, 0)},
      {"threads", encodeTraceRequest(Opcode::kThreads, 0)},
      {"preview", encodeTraceRequest(Opcode::kPreview, 0)},
      {"window", encodeWindowRequest(0, between(0, 300 * kMs))},
      {"window-filtered", encodeWindowRequest(0, filtered)},
      {"summary", encodeSummaryRequest(0, 20 * kMs, 120 * kMs)},
      {"frame-at", encodeFrameAtRequest(0, 100 * kMs)},
      {"stats", encodeStatsRequest()},
      {"shutdown", encodeShutdownRequest()},
      {"metrics", encodeMetricsRequest(0, 16)},
      {"tail-frames", encodeTailFramesRequest(0, 1, 2)},
      {"tail-metrics", encodeTailMetricsRequest(0)},
      {"list-traces", encodeListTracesRequest()},
      {"aggregate", encodeAggregateMetricsRequest("run*", 32)},
      {"compare", encodeCompareTracesRequest(1, 2, 24)},
      {"add-backend", encodeAddBackendRequest("b9", "127.0.0.1:9000")},
      {"remove-backend", encodeRemoveBackendRequest("b9")},
  };
  std::vector<Pinned> out;
  for (const auto& [name, w] : requests) {
    out.push_back({"request." + name, bytesOf(w), decode});
  }
  return out;
}

std::vector<Pinned> queryReplies(bool columnar) {
  TraceService service({goldenV2Path()});
  ConnectionContext ctx;
  const FrameEncoding enc =
      columnar ? FrameEncoding::kColumnar : FrameEncoding::kRow;
  const std::string prefix =
      std::string(columnar ? "columnar" : "row") + ".reply.";
  std::vector<Pinned> out;
  const auto ask = [&](const std::string& name, const ByteWriter& request,
                       std::function<void(std::span<const std::uint8_t>)>
                           decode) {
    out.push_back({prefix + name,
                   processRequest(service, request.view(), ctx).response,
                   std::move(decode)});
  };
  const auto okOrError = [](std::span<const std::uint8_t> bytes) {
    decodeOkReply(bytes);
  };

  if (columnar) {
    ask("hello", encodeHelloRequest(), decodeHelloReply);
  } else {
    ask("hello-legacy", encodeLegacyHelloRequest(), decodeHelloReply);
    ask("hello", encodeHelloRequest(0b01), decodeHelloReply);
  }
  ask("stats", encodeStatsRequest(), decodeStatsReply);
  ask("info", encodeTraceRequest(Opcode::kInfo, 0), decodeInfoReply);
  out.back().bytes = withBaseName(std::move(out.back().bytes));
  ask("states", encodeTraceRequest(Opcode::kStates, 0), decodeStatesReply);
  ask("threads", encodeTraceRequest(Opcode::kThreads, 0),
      decodeThreadsReply);
  ask("preview", encodeTraceRequest(Opcode::kPreview, 0),
      decodePreviewReply);
  const auto window = [enc](std::span<const std::uint8_t> bytes) {
    decodeWindowReply(bytes, enc);
  };
  ask("window", encodeWindowRequest(0, between(0, 300 * kMs)), window);
  WindowQuery filtered;
  filtered.t0 = 10 * kMs;
  filtered.t1 = 90 * kMs;
  filtered.node = 1;
  filtered.states = {static_cast<std::uint32_t>(kRunningState)};
  ask("window-filtered", encodeWindowRequest(0, filtered), window);
  ask("frame-at", encodeFrameAtRequest(0, 100 * kMs),
      [enc](std::span<const std::uint8_t> bytes) {
        decodeFrameAtReply(bytes, enc);
      });
  ask("summary", encodeSummaryRequest(0, 20 * kMs, 120 * kMs),
      decodeSummaryReply);
  ask("metrics", encodeMetricsRequest(0, 16), decodeMetricsReply);
  ask("tail-frames", encodeTailFramesRequest(0, 1, 2),
      [enc](std::span<const std::uint8_t> bytes) {
        decodeTailFramesReply(bytes, enc);
      });
  ask("tail-metrics", encodeTailMetricsRequest(0), decodeTailMetricsReply);
  ask("error.bad-trace", encodeTraceRequest(Opcode::kInfo, 9), okOrError);
  ask("error.bad-window",
      encodeWindowRequest(0, between(20 * kMs, 10 * kMs)), okOrError);
  ask("error.frame-at-outside", encodeFrameAtRequest(0, 999 * kSec),
      okOrError);
  ByteWriter truncated;
  truncated.u8(static_cast<std::uint8_t>(Opcode::kSummary));
  truncated.u32(0);
  ask("error.truncated", truncated, okOrError);
  ask("error.empty", ByteWriter{}, okOrError);
  ask("error.federation-op", encodeListTracesRequest(), okOrError);
  ByteWriter unknown;
  unknown.u8(0xEE);
  ask("error.unknown-opcode", unknown, okOrError);
  ask("shutdown", encodeShutdownRequest(), okOrError);
  return out;
}

std::vector<Pinned> fedReplies() {
  std::vector<FedTraceEntry> entries(2);
  entries[0] = {1, "b1", "/data/run.slog", false, 10, 2 * kSec, 7, 3};
  entries[1] = {2, "b2", "live", true, 0, kSec, 2, 0x100000001ull};

  AggregateReply aggregate;
  aggregate.runs = {{1, "b1", "/data/run.slog", 0.25, 0.125, 0.0625},
                    {2, "b2", "live", 0.5, 0.0, 0.375}};
  aggregate.commFraction = {0.25, 0.5, 0.375, 0.25, 0.5};
  aggregate.loadImbalance = {0.0, 0.125, 0.0625, 0.0, 0.125};
  aggregate.lateSenderFraction = {0.0625, 0.375, 0.21875, 0.0625, 0.375};

  CompareReply compare;
  compare.bins = 4;
  compare.maxAbsCommDelta = 0.5;
  compare.maxAbsImbalanceDelta = 0.25;
  compare.commDelta = {0.0, -0.5, 0.25, 0.125};
  compare.imbalanceDelta = {0.25, 0.0, -0.125, 0.0};

  return {
      {"fed.list-traces", bytesOf(encodeListTracesReply(entries)),
       [](std::span<const std::uint8_t> b) { decodeListTracesReply(b); }},
      {"fed.aggregate", bytesOf(encodeAggregateReply(aggregate)),
       [](std::span<const std::uint8_t> b) { decodeAggregateReply(b); }},
      {"fed.compare", bytesOf(encodeCompareReply(compare)),
       [](std::span<const std::uint8_t> b) { decodeCompareReply(b); }},
  };
}

std::vector<Pinned> ingestMessages() {
  const std::vector<TimestampPair> pairs = {
      {1000, 990}, {2000, 1985}, {3000, 2981}};
  const std::vector<std::vector<std::uint8_t>> bodies = {
      bytesOf(mergedBody(kRunningState, Bebits::kComplete, 100, 50, 0, 0)),
      bytesOf(mergedBody(kRunningState, Bebits::kComplete, 200, 50, 0, 1)),
      {}};
  const auto reply = [](std::span<const std::uint8_t> b) {
    std::string message;
    decodeIngestReply(b, &message);
  };
  return {
      {"ingest.hello", bytesOf(encodeIngestHello(3)), decodeIngest},
      {"ingest.threads", bytesOf(encodeIngestThreads(sampleThreads())),
       decodeIngest},
      {"ingest.marker", bytesOf(encodeIngestMarker(7, "Main Loop")),
       decodeIngest},
      {"ingest.clock-pairs", bytesOf(encodeIngestClockPairs(pairs, false)),
       decodeIngest},
      {"ingest.clock-pairs-final",
       bytesOf(encodeIngestClockPairs(pairs, true)), decodeIngest},
      {"ingest.records", bytesOf(encodeIngestRecords(bodies)), decodeIngest},
      {"ingest.bye", bytesOf(encodeIngestBye()), decodeIngest},
      {"ingest.reply-ok", encodeIngestReply(IngestStatus::kOk, ""), reply},
      {"ingest.reply-error",
       encodeIngestReply(IngestStatus::kUnknownNode, "node 9 not expected"),
       reply},
  };
}

std::vector<Pinned> pinnedFiles(const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string v1Path = dir + "/golden_v1.slog";
  writeGoldenRecords(v1Path, 1);

  TestProgramOptions workload;
  workload.iterations = 2;
  workload.tasks = 2;
  workload.threadsPerTask = 2;
  PipelineOptions options;
  options.dir = dir + "/run";
  options.name = "pin";
  options.writeSlog = false;
  const PipelineResult run = runPipeline(testProgram(workload), options);

  const std::string slogMutant = dir + "/mutant.slog";
  const auto slog = [slogMutant](std::span<const std::uint8_t> bytes) {
    writeBytes(slogMutant, bytes);
    readSlog(slogMutant);
  };
  const std::string utiMutant = dir + "/mutant.uti";
  const auto uti = [utiMutant](std::span<const std::uint8_t> bytes) {
    writeBytes(utiMutant, bytes);
    readIntervals(utiMutant);
  };
  return {
      {"file.slog-v1", readWholeFile(v1Path), slog},
      {"file.slog-v2", readWholeFile(goldenV2Path()), slog},
      {"file.uti-node", readWholeFile(run.intervalFiles.at(0)), uti},
      {"file.uti-merged", readWholeFile(run.mergedFile), uti},
  };
}

}  // namespace ute::layout
