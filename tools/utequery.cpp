// utequery — command-line client for a running uteserve or uterouter.
//
// Usage:
//   utequery --connect HOST:PORT [--trace I] COMMAND [ARGS]
//   utequery --router HOST:PORT [--trace I] COMMAND [ARGS]
//   utequery --port N [--host H] [--trace I] COMMAND [ARGS]
//
// Commands (T0/T1/T are seconds relative to the trace's start, like
// uteview's --window):
//   info                     trace path, time range, frame/table sizes
//   states                   the state table
//   threads                  the thread table
//   preview                  per-state preview totals
//   window T0 T1             intervals/arrows in the window
//                            [--node N] [--thread T] [--states a,b,c]
//   summary T0 T1            per-state time totals in the window
//   frame-at T               the frame containing T
//   metrics [--bins B]       per-task time-resolved metric totals
//   stats                    server cache/pool counters
//   shutdown                 stop the server
//
// Federation commands (a --router endpoint; docs/FEDERATION.md):
//   list-traces              merged registry view across all backends
//   aggregate [PATTERN]      cross-trace metric distributions
//                            [--bins B]
//   compare IDA IDB          binned-metrics delta between two traces
//                            [--bins B]
//   add-backend NAME H:P     register a backend at runtime
//   remove-backend NAME      unregister a backend
#include <cstdio>
#include <exception>

#include "analysis/metrics.h"
#include "server/client.h"
#include "support/cli.h"
#include "support/text.h"
#include "trace/events.h"

namespace {

using namespace ute;

Tick tickOf(const TraceInfo& info, const std::string& seconds) {
  return info.totalStart + static_cast<Tick>(parseF64(seconds) * 1e9);
}

std::string stateNameOf(const std::vector<SlogStateDef>& states,
                        std::uint32_t id) {
  for (const SlogStateDef& s : states) {
    if (s.id == id) return s.name;
  }
  return "state" + std::to_string(id);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliParser cli(argc, argv,
                  {"router", "connect", "host", "port", "trace", "node",
                   "thread", "states", "bins"},
                  {});
    const auto endpoint = cli.endpoint();
    if (!endpoint || cli.positional().empty()) {
      std::fprintf(stderr,
                   "usage: utequery --connect|--router HOST:PORT [--trace I] "
                   "info|states|threads|preview|window|summary|frame-at|"
                   "metrics|stats|shutdown|list-traces|aggregate|compare|"
                   "add-backend|remove-backend [args]\n");
      return 2;
    }
    const std::uint32_t traceId = cli.traceId();
    const std::string command = cli.positional()[0];
    TraceClient client(endpoint->host, endpoint->port);

    if (command == "info") {
      const TraceInfo info = client.info(traceId);
      std::printf("trace %u of %u: %s\n", traceId, client.traceCount(),
                  info.path.c_str());
      std::printf("  run [%.6fs, %.6fs], %u frames, %u states, "
                  "%u threads\n",
                  0.0,
                  static_cast<double>(info.totalEnd - info.totalStart) / 1e9,
                  info.frames, info.states, info.threads);
      return 0;
    }
    if (command == "states") {
      for (const SlogStateDef& s : client.states(traceId)) {
        std::printf("%6u #%06x %s\n", s.id, s.rgb, s.name.c_str());
      }
      return 0;
    }
    if (command == "threads") {
      for (const ThreadEntry& t : client.threads(traceId)) {
        std::printf("n%d.t%d task=%d pid=%d tid=%d type=%s\n", t.node,
                    t.ltid, t.task, t.pid, t.systemTid,
                    threadTypeName(t.type).c_str());
      }
      return 0;
    }
    if (command == "preview") {
      const SlogPreview p = client.preview(traceId);
      const auto states = client.states(traceId);
      std::printf("preview: %u bins of %.3fms\n", p.bins,
                  static_cast<double>(p.binWidth) / 1e6);
      for (std::size_t s = 0; s < p.perStateBinTime.size(); ++s) {
        double total = 0;
        for (double v : p.perStateBinTime[s]) total += v;
        if (total <= 0) continue;
        const std::uint32_t id = s < states.size() ? states[s].id : 0;
        std::printf("%10.3fms %s\n", total / 1e6,
                    stateNameOf(states, id).c_str());
      }
      return 0;
    }
    if (command == "metrics") {
      const auto bins =
          static_cast<std::uint32_t>(cli.valueOr("bins", std::uint64_t{0}));
      const MetricsStore m = client.metrics(traceId, bins);
      std::printf("metrics: %u bins of %.3fms, %u tasks\n", m.bins(),
                  static_cast<double>(m.binWidth()) / 1e6, m.taskCount());
      for (std::uint32_t k = 0; k < m.taskCount(); ++k) {
        std::uint64_t busy = 0, mpi = 0, io = 0, late = 0, bytes = 0;
        for (std::uint32_t b = 0; b < m.bins(); ++b) {
          busy += m.timeNs(StateClass::kBusy, b, k);
          mpi += m.timeNs(StateClass::kMpi, b, k);
          io += m.timeNs(StateClass::kIo, b, k);
          late += m.lateSenderNs(b, k);
          bytes += m.sendBytes(b, k);
        }
        std::printf("  task %d: busy %.3fms, mpi %.3fms, io %.3fms, "
                    "late-sender %.3fms, sent %s bytes\n",
                    m.tasks()[k], busy / 1e6, mpi / 1e6, io / 1e6,
                    late / 1e6, withCommas(bytes).c_str());
      }
      return 0;
    }
    if (command == "stats") {
      const ServiceStats s = client.stats();
      const double lookups =
          static_cast<double>(s.cache.hits + s.cache.misses);
      std::printf("cache: %llu hits, %llu misses (%.1f%% hit rate), "
                  "%llu evictions, %llu bytes in %llu entries\n",
                  static_cast<unsigned long long>(s.cache.hits),
                  static_cast<unsigned long long>(s.cache.misses),
                  lookups > 0 ? 100.0 * static_cast<double>(s.cache.hits) /
                                    lookups
                              : 0.0,
                  static_cast<unsigned long long>(s.cache.evictions),
                  static_cast<unsigned long long>(s.cache.bytes),
                  static_cast<unsigned long long>(s.cache.entries));
      std::printf("pool: %llu accepted, %llu rejected, %llu executed\n",
                  static_cast<unsigned long long>(s.pool.accepted),
                  static_cast<unsigned long long>(s.pool.rejected),
                  static_cast<unsigned long long>(s.pool.executed));
      return 0;
    }
    if (command == "shutdown") {
      client.shutdownServer();
      std::printf("server shutting down\n");
      return 0;
    }
    if (command == "list-traces") {
      for (const FedTraceEntry& e : client.listTraces()) {
        std::printf("%6u %s/%s%s [%.6fs, %.6fs] %u frames (gen %llu)\n",
                    e.globalId, e.backend.c_str(), e.name.c_str(),
                    e.live ? " (live)" : "", 0.0,
                    static_cast<double>(e.totalEnd - e.totalStart) / 1e9,
                    e.frames,
                    static_cast<unsigned long long>(e.generation));
      }
      return 0;
    }
    if (command == "aggregate") {
      const std::string pattern =
          cli.positional().size() > 1 ? cli.positional()[1] : "";
      const auto bins =
          static_cast<std::uint32_t>(cli.valueOr("bins", std::uint64_t{0}));
      const AggregateReply reply = client.aggregateMetrics(pattern, bins);
      std::printf("aggregate over %zu trace%s:\n", reply.runs.size(),
                  reply.runs.size() == 1 ? "" : "s");
      for (const AggregateRun& run : reply.runs) {
        std::printf("  %6u %s/%s: comm %.4f, imbalance %.4f, "
                    "late-sender %.4f\n",
                    run.globalId, run.backend.c_str(), run.name.c_str(),
                    run.commFraction, run.loadImbalance,
                    run.lateSenderFraction);
      }
      const auto printDist = [](const char* label, const Distribution& d) {
        std::printf("  %-12s min %.4f  p50 %.4f  mean %.4f  p99 %.4f  "
                    "max %.4f\n",
                    label, d.min, d.p50, d.mean, d.p99, d.max);
      };
      printDist("comm", reply.commFraction);
      printDist("imbalance", reply.loadImbalance);
      printDist("late-sender", reply.lateSenderFraction);
      return 0;
    }
    if (command == "compare") {
      if (cli.positional().size() != 3) {
        std::fprintf(stderr, "utequery: compare wants IDA IDB\n");
        return 2;
      }
      const auto idA =
          static_cast<std::uint32_t>(parseU64(cli.positional()[1]));
      const auto idB =
          static_cast<std::uint32_t>(parseU64(cli.positional()[2]));
      const auto bins =
          static_cast<std::uint32_t>(cli.valueOr("bins", std::uint64_t{0}));
      const CompareReply reply = client.compareTraces(idA, idB, bins);
      std::printf("compare %u vs %u over %u bins: max |comm delta| %.4f, "
                  "max |imbalance delta| %.4f\n",
                  idA, idB, reply.bins, reply.maxAbsCommDelta,
                  reply.maxAbsImbalanceDelta);
      for (std::uint32_t b = 0; b < reply.bins; ++b) {
        std::printf("  bin %4u: comm %+.4f, imbalance %+.4f\n", b,
                    reply.commDelta[b], reply.imbalanceDelta[b]);
      }
      return 0;
    }
    if (command == "add-backend") {
      if (cli.positional().size() != 3) {
        std::fprintf(stderr, "utequery: add-backend wants NAME HOST:PORT\n");
        return 2;
      }
      client.addBackend(cli.positional()[1], cli.positional()[2]);
      std::printf("backend '%s' added\n", cli.positional()[1].c_str());
      return 0;
    }
    if (command == "remove-backend") {
      if (cli.positional().size() != 2) {
        std::fprintf(stderr, "utequery: remove-backend wants NAME\n");
        return 2;
      }
      client.removeBackend(cli.positional()[1]);
      std::printf("backend '%s' removed\n", cli.positional()[1].c_str());
      return 0;
    }

    // The remaining commands take window arguments in seconds.
    const TraceInfo info = client.info(traceId);
    if (command == "window" || command == "summary") {
      if (cli.positional().size() != 3) {
        std::fprintf(stderr, "utequery: %s wants T0 T1 (seconds)\n",
                     command.c_str());
        return 2;
      }
      const Tick t0 = tickOf(info, cli.positional()[1]);
      const Tick t1 = tickOf(info, cli.positional()[2]);
      if (command == "summary") {
        const auto states = client.states(traceId);
        for (const SummaryEntry& e : client.summary(traceId, t0, t1)) {
          std::printf("%12.3fms %s\n", e.ns / 1e6,
                      stateNameOf(states, e.stateId).c_str());
        }
        return 0;
      }
      WindowQuery query;
      query.t0 = t0;
      query.t1 = t1;
      if (const auto node = cli.value("node")) {
        query.node = static_cast<NodeId>(parseF64(*node));
      }
      if (const auto thread = cli.value("thread")) {
        query.thread = static_cast<LogicalThreadId>(parseF64(*thread));
      }
      if (const auto states = cli.value("states")) {
        for (const std::string& s : splitString(*states, ',')) {
          query.states.push_back(
              static_cast<std::uint32_t>(parseF64(s)));
        }
      }
      const WindowResult result = client.window(traceId, query);
      const auto states = client.states(traceId);
      std::printf("window [%.6fs, %.6fs]: %zu intervals, %zu arrows\n",
                  static_cast<double>(result.t0 - info.totalStart) / 1e9,
                  static_cast<double>(result.t1 - info.totalStart) / 1e9,
                  result.intervals.size(), result.arrows.size());
      for (const SlogInterval& r : result.intervals) {
        std::printf("  n%d.t%d %s%.6fs +%.3fms %s\n", r.node, r.thread,
                    r.pseudo ? "(pseudo) " : "",
                    static_cast<double>(r.start - info.totalStart) / 1e9,
                    static_cast<double>(r.dura) / 1e6,
                    stateNameOf(states, r.stateId).c_str());
      }
      for (const SlogArrow& a : result.arrows) {
        std::printf("  arrow n%d.t%d -> n%d.t%d %.6fs -> %.6fs %u bytes\n",
                    a.srcNode, a.srcThread, a.dstNode, a.dstThread,
                    static_cast<double>(a.sendTime - info.totalStart) / 1e9,
                    static_cast<double>(a.recvTime - info.totalStart) / 1e9,
                    a.bytes);
      }
      return 0;
    }
    if (command == "frame-at") {
      if (cli.positional().size() != 2) {
        std::fprintf(stderr, "utequery: frame-at wants T (seconds)\n");
        return 2;
      }
      const FrameReply reply =
          client.frameAt(traceId, tickOf(info, cli.positional()[1]));
      std::printf("frame %u: [%.6fs, %.6fs], %u records "
                  "(%zu intervals, %zu arrows)\n",
                  reply.frameIdx,
                  static_cast<double>(reply.entry.timeStart -
                                      info.totalStart) / 1e9,
                  static_cast<double>(reply.entry.timeEnd -
                                      info.totalStart) / 1e9,
                  reply.entry.records, reply.data.intervals.size(),
                  reply.data.arrows.size());
      return 0;
    }
    std::fprintf(stderr, "utequery: unknown command '%s'\n",
                 command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "utequery: %s\n", e.what());
    return 1;
  }
}
