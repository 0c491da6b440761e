// utetail — follows a growing raw trace file and streams its events to
// a utestream ingest server (docs/STREAMING.md). The producer-side
// complement of `utestream --listen`: a simulator (or a real tracer)
// appends to RAW.N.utr on one machine while utetail ships the converted
// records live.
//
//   utetail RAW.0.utr --connect HOST:PORT [--poll-ms N] [--idle-ms N]
//           [--once] [--batch-kb N]
//
// The tail tolerates partial writes: a poll stops at the first record
// that does not parse yet (the writer is mid-append) and re-reads on the
// next poll. The file is re-opened from the start each poll — the
// timestamp-wrap reconstruction is stateful, so the already-consumed
// prefix is re-parsed (cheap) and only events beyond the consumed count
// are fed to the converter. The tail finishes — converter flushed, kBye
// sent — when the file has produced nothing new for --idle-ms
// (default 3000), or immediately after one pass with --once.
#include <chrono>
#include <cstdio>
#include <exception>
#include <optional>
#include <thread>
#include <vector>

#include "convert/converter.h"
#include "convert/streaming_converter.h"
#include "stream/ingest_client.h"
#include "support/cli.h"
#include "support/text.h"
#include "trace/reader.h"

int main(int argc, char** argv) {
  using namespace ute;
  try {
    CliParser cli(argc, argv,
                  {"connect", "host", "port", "poll-ms", "idle-ms",
                   "batch-kb"},
                  {"once"});
    const auto endpoint = cli.endpoint();
    if (cli.positional().size() != 1 || !endpoint) {
      std::fprintf(stderr,
                   "usage: utetail RAW.N.utr --connect HOST:PORT "
                   "[--poll-ms N] [--idle-ms N] [--once]\n");
      return 2;
    }
    const std::string rawPath = cli.positional()[0];
    const auto pollMs = static_cast<long>(cli.valueOr("poll-ms", std::uint64_t{200}));
    const auto idleMs = static_cast<long>(cli.valueOr("idle-ms", std::uint64_t{3000}));
    const bool once = cli.hasFlag("once");
    const std::size_t batchBytes = static_cast<std::size_t>(
        cli.valueOr("batch-kb", std::uint64_t{256}) << 10);

    // The node id lives in the raw file header, so the session can only
    // start once the header is on disk.
    NodeId node = 0;
    for (;;) {
      try {
        TraceFileReader probe(rawPath);
        node = probe.node();
        break;
      } catch (const std::exception&) {
        if (once) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(pollMs));
      }
    }

    IngestClient client(endpoint->host, endpoint->port, node, batchBytes);
    MarkerUnifier markers;
    StreamingConverter::Callbacks callbacks;
    callbacks.onThreads = [&](const std::vector<ThreadEntry>& threads) {
      client.flush();
      client.sendThreads(threads);
    };
    // A marker definition is emitted before any record referencing it,
    // and sending it immediately keeps that order on the wire even while
    // earlier records sit in the batch queue.
    callbacks.onMarker = [&](std::uint32_t id, const std::string& name) {
      client.sendMarker(id, name);
    };
    callbacks.onRecord = [&](std::span<const std::uint8_t> body) {
      client.queueRecord(body);
    };
    StreamingConverter converter(markers, node, std::move(callbacks));

    std::uint64_t consumed = 0;  // events already fed to the converter
    auto lastGrowth = std::chrono::steady_clock::now();
    for (;;) {
      std::uint64_t seen = 0;
      try {
        // Fresh reader per poll: the byte source caches the file size at
        // open, so this is how the tail observes appended data.
        TraceFileReader reader(rawPath);
        while (auto ev = reader.next()) {
          ++seen;
          if (seen > consumed) converter.feed(*ev);
        }
      } catch (const std::exception&) {
        // A torn record at the tail — the writer is mid-append. Events
        // before the tear were fed; re-read the rest next poll.
      }
      if (seen > consumed) {
        consumed = seen;
        lastGrowth = std::chrono::steady_clock::now();
      }
      if (once) break;
      if (std::chrono::steady_clock::now() - lastGrowth >=
          std::chrono::milliseconds(idleMs)) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(pollMs));
    }

    converter.finish();
    client.flush();
    client.bye();
    std::printf("utetail: streamed %s events (%s records) from %s\n",
                withCommas(converter.eventsIn()).c_str(),
                withCommas(converter.recordsOut()).c_str(), rawPath.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "utetail: %s\n", e.what());
    return 1;
  }
}
