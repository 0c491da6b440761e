// utestream — the live streaming ingest driver (docs/STREAMING.md):
// an always-on trace service that merges records as they arrive instead
// of after the run ends.
//
// Three ways to feed it:
//
//   utestream --out PREFIX RAW.0.utr RAW.1.utr ...
//       File mode: converts each raw file with the push-style streaming
//       converter and ships the records to the in-process ingest server
//       over real TCP sessions, one per node. The finished PREFIX.slog,
//       PREFIX.merged.uti and PREFIX.utm are byte-identical to what
//       utepipeline + utemetrics produce from the same inputs.
//
//   utestream --out PREFIX --sim test|sppm|flash [--iterations N] ...
//       Simulator mode: runs the workload and streams every trace event
//       through the converter into the ingest as it is generated —
//       generation, conversion, merge and serving in one process.
//
//   utestream --out PREFIX --listen --nodes 0,1,2,3
//       Listen mode: only the ingest server; producers (utetail, or a
//       remote simulator) connect from outside.
//
// --serve additionally exposes the run through the uteserve query
// protocol while it is still in flight: TailFrames pages sealed SLOG
// frames exactly once per cursor, TailMetrics serves the incrementally
// extended metrics blob, and uteview/utemetrics --connect work on the
// live trace. The query server stays up after the run finishes (stop it
// with `utequery shutdown` or SIGINT).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>

#include "analysis/metrics.h"
#include "analysis/metrics_io.h"
#include "convert/converter.h"
#include "convert/streaming_converter.h"
#include "interval/field.h"
#include "interval/record.h"
#include "interval/standard_profile.h"
#include "mpisim/mpi_runtime.h"
#include "server/server.h"
#include "sim/simulation.h"
#include "slog/slog_reader.h"
#include "stream/ingest_client.h"
#include "stream/ingest_server.h"
#include "stream/live_feed.h"
#include "support/cli.h"
#include "support/text.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"

namespace {

using namespace ute;

/// Streams one already-recorded raw trace file into the ingest server.
/// The send order is what makes the streamed outputs byte-identical to
/// the batch pipeline: session 0 ships the complete unified marker
/// table before any thread table exists, every session ships its exact
/// clock pairs as a final fit, and the record stream is the streaming
/// converter's — the same bodies a .uti file would hold.
void streamFile(const std::string& rawPath, NodeId node, bool sendMarkers,
                MarkerUnifier& markers,
                const std::vector<TimestampPair>& pairs,
                std::uint16_t port) {
  IngestClient client("127.0.0.1", port, node);
  if (sendMarkers) {
    const std::vector<std::string> table = markers.table();
    for (std::size_t i = 0; i < table.size(); ++i) {
      client.sendMarker(static_cast<std::uint32_t>(i + 1), table[i]);
    }
  }
  client.sendClockPairs(pairs, /*final=*/true);

  StreamingConverter::Callbacks callbacks;
  callbacks.onThreads = [&](const std::vector<ThreadEntry>& threads) {
    client.sendThreads(threads);
  };
  // Session 0 pre-shipped the whole unified table; re-sending per node
  // would only repeat identical definitions.
  callbacks.onMarker = [](std::uint32_t, const std::string&) {};
  callbacks.onRecord = [&](std::span<const std::uint8_t> body) {
    client.queueRecord(body);
  };
  StreamingConverter converter(markers, node, std::move(callbacks));
  TraceFileReader reader(rawPath);
  while (auto ev = reader.next()) converter.feed(*ev);
  converter.finish();
  client.bye();
}

std::vector<NodeId> parseNodeList(const std::string& spec) {
  std::vector<NodeId> nodes;
  std::string cur;
  for (const char c : spec + ",") {
    if (c == ',') {
      if (!cur.empty()) nodes.push_back(std::atoi(cur.c_str()));
      cur.clear();
    } else {
      cur += c;
    }
  }
  return nodes;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ute;
  try {
    CliParser cli(argc, argv,
                  {"out", "profile", "method", "frame-bytes", "bins",
                   "sim", "iterations", "timesteps", "seed", "nodes",
                   "budget-kb", "session-timeout-ms", "ingest-port",
                   "ingest-port-file", "port", "port-file"},
                  {"listen", "serve", "slog-v1", "slog-v2"});
    const auto out = cli.value("out");
    const auto sim = cli.value("sim");
    const bool listen = cli.hasFlag("listen");
    const bool serve = cli.hasFlag("serve");
    if (!out || (!sim && !listen && cli.positional().empty())) {
      std::fprintf(
          stderr,
          "usage: utestream --out PREFIX RAW.0.utr RAW.1.utr ...   (file "
          "mode)\n"
          "       utestream --out PREFIX --sim test|sppm|flash     "
          "(simulator mode)\n"
          "       utestream --out PREFIX --listen --nodes 0,1,...  (external "
          "producers)\n"
          "options: [--serve [--port N] [--port-file P]] [--ingest-port N]\n"
          "         [--ingest-port-file P] [--budget-kb N] "
          "[--session-timeout-ms N]\n"
          "         [--method rms|last|piecewise] [--frame-bytes N] [--bins "
          "N]\n"
          "         [--slog-v1 | --slog-v2]   (frame encoding; default v2)\n");
      return 2;
    }

    const Profile profile = loadProfileOrStandard(
        cli.valueOr("profile", std::string(kStandardProfileFileName)));

    IngestServerOptions ingest;
    ingest.port = static_cast<std::uint16_t>(
        cli.valueOr("ingest-port", std::uint64_t{0}));
    ingest.outPath = *out + ".merged.uti";
    ingest.slogPath = *out + ".slog";
    if (!applyChainFlags(cli, ingest.merge, ingest.slog)) return 2;
    ingest.merge.targetFrameBytes = static_cast<std::size_t>(
        cli.valueOr("frame-bytes", std::uint64_t{32} << 10));
    ingest.sessionBudgetBytes = static_cast<std::size_t>(
        cli.valueOr("budget-kb", std::uint64_t{8192}) << 10);
    ingest.sessionTimeoutMs = static_cast<int>(
        cli.valueOr("session-timeout-ms", std::uint64_t{30000}));

    // --- decide the node set and prepare the producers ---------------------
    MarkerUnifier markers;
    std::vector<std::vector<TimestampPair>> pairs;  // file mode, per input
    std::unique_ptr<Simulation> simulation;
    std::unique_ptr<MpiRuntime> mpi;

    if (sim) {
      SimulationConfig config;
      if (*sim == "test") {
        TestProgramOptions o;
        o.iterations = static_cast<std::uint32_t>(
            cli.valueOr("iterations", std::uint64_t{200}));
        o.seed = cli.valueOr("seed", std::uint64_t{42});
        config = testProgram(o);
      } else if (*sim == "sppm") {
        SppmOptions o;
        o.timesteps = static_cast<std::uint32_t>(
            cli.valueOr("timesteps", std::uint64_t{30}));
        o.seed = cli.valueOr("seed", std::uint64_t{7});
        config = sppm(o);
      } else if (*sim == "flash") {
        FlashOptions o;
        o.initIterations = static_cast<std::uint32_t>(
            cli.valueOr("iterations", std::uint64_t{40}));
        o.seed = cli.valueOr("seed", std::uint64_t{11});
        config = flash(o);
      } else {
        std::fprintf(stderr, "unknown --sim workload '%s'\n", sim->c_str());
        return 2;
      }
      config.trace.filePrefix = *out;
      for (NodeId n = 0; static_cast<std::size_t>(n) < config.nodes.size();
           ++n) {
        ingest.expectedNodes.push_back(n);
      }
      // Simulator feeds have no final clock fit until their stream ends,
      // so a byte budget could deadlock the merge against the producer;
      // live runs stream unthrottled.
      ingest.sessionBudgetBytes = 0;
      simulation = std::make_unique<Simulation>(std::move(config));
      mpi = std::make_unique<MpiRuntime>(*simulation);
      simulation->setMpiService(mpi.get());
    } else if (listen) {
      ingest.expectedNodes =
          parseNodeList(cli.valueOr("nodes", std::string()));
      if (ingest.expectedNodes.empty()) {
        std::fprintf(stderr, "--listen needs --nodes N0,N1,...\n");
        return 2;
      }
      ingest.sessionBudgetBytes = 0;  // external live producers
    } else {
      // File mode: a cheap scan pass per input fixes the run-wide marker
      // ids in input-file order (exactly like the batch convert) and
      // collects each node's complete clock-pair set.
      for (const std::string& rawPath : cli.positional()) {
        NodeId node = -1;
        markers.preassign(scanMarkerNames(rawPath, &node));
        ingest.expectedNodes.push_back(node);
      }
      pairs.resize(cli.positional().size());
      for (std::size_t i = 0; i < cli.positional().size(); ++i) {
        StreamingConverter::Callbacks callbacks;
        std::vector<TimestampPair>& filePairs = pairs[i];
        // The batch merge's first pass, so file mode can hand the
        // server the exact final fit up front.
        callbacks.onRecord = [&](std::span<const std::uint8_t> body) {
          const RecordView v = RecordView::parse(body);
          if (v.eventType() == kClockSyncState) {
            filePairs.push_back(clockSyncPair(v));
          }
        };
        StreamingConverter scan(markers, ingest.expectedNodes[i],
                                std::move(callbacks));
        TraceFileReader reader(cli.positional()[i]);
        while (auto ev = reader.next()) scan.feed(*ev);
        scan.finish();
      }
    }

    // --- bring up the servers ----------------------------------------------
    LiveFeed feed;
    IngestServer server(profile, ingest, serve ? &feed : nullptr);
    std::printf("utestream: ingest on 127.0.0.1:%u (%zu node%s)\n",
                server.port(), ingest.expectedNodes.size(),
                ingest.expectedNodes.size() == 1 ? "" : "s");
    std::fflush(stdout);
    writePortFile(cli, "ingest-port-file", server.port());

    std::unique_ptr<TraceServer> query;
    if (serve) {
      ServerOptions options;
      options.port =
          static_cast<std::uint16_t>(cli.valueOr("port", std::uint64_t{0}));
      options.liveFeed = &feed;
      options.liveName = *out + ".slog (live)";
      query = std::make_unique<TraceServer>(std::vector<std::string>{},
                                            options);
      std::printf("utestream: query service on 127.0.0.1:%u (trace 0 live)\n",
                  query->port());
      std::fflush(stdout);
      writePortFile(cli, "port-file", query->port());
    }

    // --- run the producers -------------------------------------------------
    if (sim) {
      std::vector<std::unique_ptr<StreamingConverter>> converters;
      std::vector<std::unique_ptr<IngestClient>> clients;
      const std::size_t n = ingest.expectedNodes.size();
      converters.resize(n);
      clients.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const NodeId node = ingest.expectedNodes[i];
        clients[i] = std::make_unique<IngestClient>("127.0.0.1",
                                                    server.port(), node);
        IngestClient* client = clients[i].get();
        StreamingConverter::Callbacks callbacks;
        callbacks.onThreads = [client](const std::vector<ThreadEntry>& t) {
          client->flush();
          client->sendThreads(t);
        };
        callbacks.onMarker = [client](std::uint32_t id,
                                      const std::string& name) {
          client->sendMarker(id, name);
        };
        callbacks.onRecord = [client](std::span<const std::uint8_t> body) {
          client->queueRecord(body);
        };
        converters[i] = std::make_unique<StreamingConverter>(
            markers, node, std::move(callbacks));
      }
      simulation->setEventSink([&](NodeId node, const RawEvent& ev) {
        converters[static_cast<std::size_t>(node)]->feed(ev);
      });
      simulation->run();
      for (std::size_t i = 0; i < n; ++i) {
        converters[i]->finish();
        clients[i]->bye();
      }
    } else if (!listen) {
      std::vector<std::thread> senders;
      for (std::size_t i = 0; i < cli.positional().size(); ++i) {
        senders.emplace_back(streamFile, cli.positional()[i],
                             ingest.expectedNodes[i], i == 0,
                             std::ref(markers), std::cref(pairs[i]),
                             server.port());
      }
      for (auto& t : senders) t.join();
    }
    // Listen mode: producers are external; just wait for them below.

    const StreamMergeResult result = server.wait();
    std::printf("utestream: merged %s records (+%s pseudo, %s abort "
                "closures) -> %s\n",
                withCommas(result.recordsOut).c_str(),
                withCommas(result.pseudoRecords).c_str(),
                withCommas(result.abortClosures).c_str(),
                result.outputPath.c_str());

    // The finished SLOG yields the batch-shaped metrics file — the same
    // bytes `utemetrics --slog PREFIX.slog --out PREFIX.utm` would write.
    {
      SlogReader slog(ingest.slogPath);
      MetricsOptions metricsOptions;
      metricsOptions.bins = static_cast<std::uint32_t>(
          cli.valueOr("bins", std::uint64_t{240}));
      writeMetricsFile(*out + ".utm", computeMetrics(slog, metricsOptions));
      std::printf("utestream: wrote %s.utm\n", out->c_str());
    }

    if (query) {
      std::printf("utestream: run finished; query service stays up "
                  "(utequery shutdown or SIGINT to stop)\n");
      std::fflush(stdout);
      waitForStop([&] { return query->stopRequested(); });
      query->stop();
    }
    server.stop();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "utestream: %s\n", e.what());
    return 1;
  }
}
