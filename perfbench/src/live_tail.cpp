// live-tail: writes beside reads.
//
// A few simulated nodes (k = 3) stream their records through
// IngestClient into an IngestServer whose LiveFeed a TraceServer serves,
// at one fixed open-loop record rate, while one tail-frames follower
// reads the sealed frames as they arrive. It runs the same merge as the
// other workloads (as StreamMerger, at small k) and the same server
// reactor, but with concurrent writers and a reader: a merge-k gain
// should leave it flat, and a reactor change that hurts writes shows
// here. A closed-loop blast phase afterwards gives the ingest rate: all
// records through fresh sessions as fast as the acks allow, timed until
// the server's merged outputs are complete.
//
// Live lag is timed from each record's scheduled send time to the first
// tail-frames reply that carries it. Records are interleaved across the
// nodes in merged (adjusted end-time) order, so the schedule never
// starves the merge's watermark. The finished live .slog must equal the
// batch chain's .slog for the same raw records.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chain.h"
#include "common.h"
#include "convert/converter.h"
#include "convert/streaming_converter.h"
#include "interval/record.h"
#include "interval/standard_profile.h"
#include "server/client.h"
#include "server/server.h"
#include "spans.h"
#include "stream/ingest_client.h"
#include "stream/ingest_server.h"
#include "stream/live_feed.h"
#include "stream/online_fit.h"
#include "trace/reader.h"
#include "workloads/workloads.h"
#include "workloads_all.h"

namespace perfbench {

namespace {

using ute::Tick;

constexpr int kSetupReps = 3;
constexpr int kNodes = 3;
constexpr int kTasks = 6;
constexpr std::uint32_t kIterations = 4500;
constexpr double kRecordRate = 40000;  ///< records/s over all nodes
/// Median generator lateness (send time minus due time) past which the
/// run is invalid: most sends then waited on a backlog, not on a stall.
constexpr double kMaxLateP50Ms = 25;
constexpr double kMinBlastSeconds = 2.0;
constexpr double kTailTimeoutSeconds = 60;

struct NodeStream {
  ute::NodeId node = 0;
  std::vector<ute::ThreadEntry> threads;
  std::vector<ute::TimestampPair> pairs;
  std::vector<std::vector<std::uint8_t>> bodies;
  std::vector<double> due;  ///< send offset of each body, seconds
  std::vector<Tick> end;    ///< adjusted end time of each body
};

struct Prepared {
  std::vector<NodeStream> nodes;
  std::vector<std::string> markers;  ///< unified table, id = index + 1
  std::string refSlog;
  ChainResult ref;
  std::uint64_t rawEvents = 0;
  std::size_t records = 0;
};

Prepared prepare(const RunOptions& opt, const std::filesystem::path& dir) {
  Prepared p;
  ute::TestProgramOptions o;
  o.nodes = kNodes;
  o.tasks = kTasks;
  o.iterations = kIterations;
  o.seed = opt.seed;
  const RawRun raw = simulate(ute::testProgram(o), (dir / "raw").string());
  p.rawEvents = raw.events;
  p.ref = runChain(raw, (dir / "ref").string(), 1, false);
  p.refSlog = p.ref.slogPath;

  // The records each node would stream, exactly as the file replay of
  // utestream produces them: markers pre-assigned in input-file order,
  // then one streaming conversion per node.
  ute::MarkerUnifier markers;
  for (const std::string& path : raw.files) {
    ute::NodeId node = -1;
    markers.preassign(ute::scanMarkerNames(path, &node));
    p.nodes.push_back({});
    p.nodes.back().node = node;
  }
  p.markers = markers.table();
  for (std::size_t i = 0; i < raw.files.size(); ++i) {
    NodeStream& ns = p.nodes[i];
    ute::StreamingConverter::Callbacks callbacks;
    callbacks.onThreads = [&ns](const std::vector<ute::ThreadEntry>& t) {
      ns.threads = t;
    };
    callbacks.onRecord = [&ns](std::span<const std::uint8_t> body) {
      ns.bodies.emplace_back(body.begin(), body.end());
      ute::TimestampPair pair;
      if (clockPairOf(body, pair)) ns.pairs.push_back(pair);
    };
    ute::StreamingConverter converter(markers, ns.node, std::move(callbacks));
    ute::TraceFileReader reader(raw.files[i]);
    while (auto ev = reader.next()) converter.feed(*ev);
    converter.finish();
  }

  // Adjusted end times through the final clock fit the merge will use,
  // then one global send order by end time at the fixed rate.
  struct Ref {
    Tick end;
    std::size_t node;
    std::size_t idx;
  };
  std::vector<Ref> order;
  for (std::size_t n = 0; n < p.nodes.size(); ++n) {
    NodeStream& ns = p.nodes[n];
    const ute::ClockMap map = ute::batchClockFit(
        ns.pairs, ute::SyncMethod::kRmsSegments, true, 5e-5);
    ns.end.resize(ns.bodies.size());
    ns.due.resize(ns.bodies.size());
    for (std::size_t i = 0; i < ns.bodies.size(); ++i) {
      ns.end[i] = map.toGlobal(ute::RecordView::parse(ns.bodies[i]).end());
      order.push_back({ns.end[i], n, i});
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Ref& a, const Ref& b) { return a.end < b.end; });
  for (std::size_t k = 0; k < order.size(); ++k) {
    p.nodes[order[k].node].due[order[k].idx] =
        static_cast<double>(k) / kRecordRate;
  }
  for (NodeStream& ns : p.nodes) {
    // A node's records go out in its own order; ties in adjusted time
    // can put a later record's slot first, so keep dues monotone.
    for (std::size_t i = 1; i < ns.due.size(); ++i) {
      ns.due[i] = std::max(ns.due[i], ns.due[i - 1]);
    }
  }
  p.records = order.size();
  return p;
}

/// Opens one ingest session per node and sends everything but the
/// records: session 0 ships the unified marker table first, then every
/// session its final clock pairs and thread table.
std::vector<std::unique_ptr<ute::IngestClient>> openSessions(
    const Prepared& p, std::uint16_t port) {
  std::vector<std::unique_ptr<ute::IngestClient>> clients;
  for (std::size_t n = 0; n < p.nodes.size(); ++n) {
    const NodeStream& ns = p.nodes[n];
    clients.push_back(
        std::make_unique<ute::IngestClient>("127.0.0.1", port, ns.node));
    if (n == 0) {
      for (std::size_t i = 0; i < p.markers.size(); ++i) {
        clients[0]->sendMarker(static_cast<std::uint32_t>(i + 1),
                               p.markers[i]);
      }
    }
    clients[n]->sendClockPairs(ns.pairs, /*final=*/true);
    clients[n]->sendThreads(ns.threads);
  }
  return clients;
}

ute::IngestServerOptions ingestOptions(const Prepared& p,
                                       const std::string& prefix) {
  ute::IngestServerOptions o;
  for (const NodeStream& ns : p.nodes) o.expectedNodes.push_back(ns.node);
  o.outPath = prefix + ".merged.uti";
  o.slogPath = prefix + ".slog";
  return o;
}

struct TailReply {
  Clock::time_point at;
  Tick reach = 0;  ///< every record ending before this has been delivered
  bool finished = false;
};

}  // namespace

WorkloadResult runLiveTail(const RunOptions& opt) {
  namespace fs = std::filesystem;
  WorkloadResult res;
  const fs::path dir = fs::path(opt.scratch) / "live-tail";
  const ute::Profile profile = ute::makeStandardProfile();

  Prepared prep;
  const double setupS = medianSetupSeconds(kSetupReps, [&](int) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    prep = prepare(opt, dir);
  });
  const std::vector<unsigned char> refSlog = fileBytes(prep.refSlog);
  int liveRuns = 0;

  const auto measured = measurePhases(opt, res, [&](double seconds,
                                                    bool traced) {
    // --- phase 1: open-loop live ingest with a tailing reader ------------
    const std::string prefix =
        (dir / ("live" + std::to_string(liveRuns++))).string();
    ute::LiveFeed feed;
    ute::IngestServer ingest(profile, ingestOptions(prep, prefix), &feed);
    ute::ServerOptions serverOptions;
    serverOptions.liveFeed = &feed;
    serverOptions.liveName = "live";
    ute::TraceServer query(std::vector<std::string>{}, serverOptions);
    auto clients = openSessions(prep, ingest.port());
    ute::TraceClient tail("127.0.0.1", query.port());

    std::vector<std::atomic<Tick>> newestSent(prep.nodes.size());
    for (auto& a : newestSent) a.store(0);
    std::vector<std::vector<double>> lateMs(prep.nodes.size());
    std::vector<std::vector<double>> ackMs(prep.nodes.size());
    std::vector<std::string> sendError(prep.nodes.size());
    std::vector<TailReply> replies;
    std::vector<double> pollMs;
    std::vector<double> watermarkLagMs;
    std::string tailError;
    const ute::Reactor::Stats ingest0 = ingest.reactorStats();
    const ute::Reactor::Stats query0 = query.reactorStats();

    const auto phase0 = Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::thread> threads;
    for (std::size_t n = 0; n < prep.nodes.size(); ++n) {
      threads.emplace_back([&, n] {
        const NodeStream& ns = prep.nodes[n];
        ute::IngestClient& client = *clients[n];
        try {
          std::size_t i = 0;
          while (i < ns.bodies.size()) {
            const auto dueAt =
                phase0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(ns.due[i]));
            std::this_thread::sleep_until(dueAt);
            const auto now = Clock::now();
            lateMs[n].push_back(msBetween(dueAt, now));
            const double nowOffset =
                std::chrono::duration<double>(now - phase0).count();
            Tick newest = 0;
            while (i < ns.bodies.size() && ns.due[i] <= nowOffset) {
              client.queueRecord(ns.bodies[i]);
              newest = ns.end[i];
              ++i;
            }
            Span span("stream.IngestClient.flush");
            const auto f0 = Clock::now();
            client.flush();
            ackMs[n].push_back(msBetween(f0, Clock::now()));
            newestSent[n].store(newest);
          }
          client.bye();
        } catch (const std::exception& e) {
          sendError[n] = e.what();
          clients[n].reset();  // a session that ends without bye aborts
        }
      });
    }
    const double lastDue = static_cast<double>(prep.records) / kRecordRate;
    threads.emplace_back([&] {
      try {
        std::uint64_t cursor = 0;
        Tick reach = 0;
        for (;;) {
          ute::TailFramesReply r;
          const auto p0 = Clock::now();
          {
            Span span("stream.client.tailFrames");
            r = tail.tailFrames(0, cursor, 0);
          }
          const auto at = Clock::now();
          pollMs.push_back(msBetween(p0, at));
          Tick sent = 0;
          for (const auto& a : newestSent) sent = std::max(sent, a.load());
          const Tick mark = feed.watermark();
          if (sent > mark) {
            watermarkLagMs.push_back(static_cast<double>(sent - mark) * 1e-6);
          }
          for (const ute::TailFrame& f : r.frames) {
            reach = std::max(reach, f.entry.timeEnd);
          }
          cursor = r.nextCursor;
          if (!r.frames.empty() || r.finished) {
            replies.push_back({at, reach, r.finished});
          }
          if (r.finished) break;
          if (secondsSince(phase0) > lastDue + kTailTimeoutSeconds) {
            tailError = "the live trace never finished";
            break;
          }
          if (r.frames.empty()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      } catch (const std::exception& e) {
        tailError = e.what();
      }
    });
    for (std::thread& t : threads) t.join();
    const ute::StreamMergeResult merged = ingest.wait();
    const ute::Reactor::Stats ingest1 = ingest.reactorStats();
    const ute::Reactor::Stats query1 = query.reactorStats();
    const std::uint64_t framesSealed = feed.frameCount();
    query.stop();
    ingest.stop();

    res.attempted += prep.records + pollMs.size() + 1;
    for (std::size_t n = 0; n < prep.nodes.size(); ++n) {
      if (!sendError[n].empty()) res.fail("ingest session: " + sendError[n]);
    }
    if (!tailError.empty()) res.fail("tail follower: " + tailError);
    if (fileBytes(prefix + ".slog") != refSlog) {
      res.fail("live .slog differs from the batch chain's .slog");
    }

    // Lag: sweep records in adjusted end-time order against the replies.
    struct Rec {
      Tick end;
      double due;
    };
    std::vector<Rec> recs;
    recs.reserve(prep.records);
    for (const NodeStream& ns : prep.nodes) {
      for (std::size_t i = 0; i < ns.bodies.size(); ++i) {
        ute::TimestampPair unused;
        if (clockPairOf(ns.bodies[i], unused)) continue;  // not in the SLOG
        recs.push_back({ns.end[i], ns.due[i]});
      }
    }
    std::sort(recs.begin(), recs.end(),
              [](const Rec& a, const Rec& b) { return a.end < b.end; });
    std::vector<double> lagMs;
    lagMs.reserve(recs.size());
    std::size_t next = 0;
    for (const TailReply& r : replies) {
      const double at = std::chrono::duration<double, std::milli>(
                            r.at - phase0).count();
      while (next < recs.size() && (r.finished || recs[next].end < r.reach)) {
        lagMs.push_back(at - recs[next].due * 1e3);
        ++next;
      }
    }
    if (next != recs.size()) {
      res.fail("tail follower never saw " + std::to_string(recs.size() - next) +
               " records");
    }

    std::vector<double> late;
    std::vector<double> acks;
    for (std::size_t n = 0; n < prep.nodes.size(); ++n) {
      late.insert(late.end(), lateMs[n].begin(), lateMs[n].end());
      acks.insert(acks.end(), ackMs[n].begin(), ackMs[n].end());
    }
    const Summary lag = summarize(lagMs);
    const Summary lateS = summarize(late);
    if (lateS.p50 > kMaxLateP50Ms) res.valid = false;

    // --- phase 2: closed-loop blasts -------------------------------------
    const double liveSeconds = secondsSince(phase0);
    const double blastBudget =
        std::max(kMinBlastSeconds, seconds - liveSeconds);
    std::vector<double> blastRates;
    const auto blast0 = Clock::now();
    int blast = 0;
    while (blastRates.size() < 3 || secondsSince(blast0) < blastBudget) {
      const std::string bprefix = (dir / "blast").string();
      ute::IngestServer server(profile, ingestOptions(prep, bprefix), nullptr);
      auto senders = openSessions(prep, server.port());
      std::vector<std::string> errors(prep.nodes.size());
      Span span("stream.blast");
      const auto t0 = Clock::now();
      std::vector<std::thread> bt;
      for (std::size_t n = 0; n < prep.nodes.size(); ++n) {
        bt.emplace_back([&, n] {
          try {
            for (const auto& body : prep.nodes[n].bodies) {
              senders[n]->queueRecord(body);
            }
            senders[n]->bye();
          } catch (const std::exception& e) {
            errors[n] = e.what();
            senders[n].reset();
          }
        });
      }
      for (std::thread& t : bt) t.join();
      server.wait();
      const double s = secondsSince(t0);
      server.stop();
      ++res.attempted;
      ++blast;
      bool ok = true;
      for (const std::string& e : errors) {
        if (!e.empty()) {
          res.fail("blast session: " + e);
          ok = false;
        }
      }
      if (ok) blastRates.push_back(static_cast<double>(prep.records) / s);
      if (blast > 1000) break;
    }

    res.notes.push_back(
        std::string("live-tail") + (traced ? " (traced)" : "") + ": " +
        std::to_string(prep.records) + " records over " +
        std::to_string(liveSeconds) + " s, lag n=" + std::to_string(lag.n) +
        " (" + std::to_string(lag.beyondP99) + " beyond p99), " +
        std::to_string(replies.size()) + " tail replies, " +
        std::to_string(framesSealed) + " frames, generator late p99 " +
        std::to_string(lateS.p99) + " ms, " + std::to_string(blastRates.size()) +
        " blasts, merged " + std::to_string(merged.recordsOut) + " records");

    if (traced) {
      const std::vector<Metric> layers = {
          {"sim.s", Tracer::instance().totalSeconds("sim.run") / kSetupReps,
           "s"},
          {"sim.events", static_cast<double>(prep.rawEvents), "count"},
          {"convert.s", prep.ref.convertSeconds, "s"},
          {"convert.records_per_s",
           static_cast<double>(prep.ref.rawEvents) / prep.ref.convertSeconds,
           "1/s"},
          {"merge.s", prep.ref.mergeSeconds, "s"},
          {"merge.records_out", static_cast<double>(merged.recordsOut),
           "count"},
          {"merge.pseudo_per_record",
           static_cast<double>(merged.pseudoRecords) /
               static_cast<double>(merged.recordsOut),
           "ratio"},
          {"slog.encode_s", prep.ref.slogSeconds, "s"},
          {"slog.bytes_per_record",
           static_cast<double>(fs::file_size(prep.refSlog)) /
               static_cast<double>(prep.ref.slogEntries),
           "B"},
          {"server.syscalls_per_req",
           static_cast<double>(syscalls(query1) - syscalls(query0)) /
               std::max<double>(1, static_cast<double>(query1.requests -
                                                       query0.requests)),
           "count"},
          {"stream.ack_p50_ms", summarize(acks).p50, "ms"},
          {"stream.watermark_lag_ms", median(watermarkLagMs), "ms"},
          {"stream.frames_sealed", static_cast<double>(framesSealed), "count"},
          {"stream.tail_poll_p50_ms", summarize(pollMs).p50, "ms"},
          {"stream.syscalls_per_record",
           static_cast<double>(syscalls(ingest1) - syscalls(ingest0)) /
               static_cast<double>(prep.records),
           "count"},
          {"gen.late_p99_ms", lateS.p99, "ms"},
          {"gen.sent", static_cast<double>(prep.records), "count"},
      };
      res.perLayer.insert(res.perLayer.end(), layers.begin(), layers.end());
    }
    return std::vector<Metric>{
        {"p50_ms", lag.p50, "ms"},
        {"p99_ms", lag.p99, "ms"},
        {"tput_per_s", median(blastRates), "1/s"},
    };
  });

  res.endToEnd = {{"setup_s", setupS, "s"}, {"peak_rss_mb", peakRssMb(), "MB"}};
  res.endToEnd.insert(res.endToEnd.end(), measured.begin(), measured.end());
  return res;
}

}  // namespace perfbench
