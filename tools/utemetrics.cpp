// utemetrics — computes the time-resolved metrics store for a merged
// SLOG file (one parallel pass over the frames) and either writes the
// compact columnar .utm file, prints the grid as TSV, or both.
//
// Usage:
//   utemetrics --slog RUN.slog [--bins N] [--jobs N] [--out RUN.utm]
//              [--tsv] [--derived]
//   utemetrics --utm RUN.utm [--tsv] [--derived]
//   utemetrics --connect HOST:PORT [--trace I] [--bins N] [--tsv] ...
//   utemetrics --router HOST:PORT [--trace I] [--bins N] [--tsv] ...
//   utemetrics --router HOST:PORT --aggregate [PATTERN] [--bins N]
//
// --router points at a uterouter front door (docs/FEDERATION.md); the
// single-trace mode behaves exactly like --connect (the router proxies
// it), --aggregate prints cross-trace distributions instead.
// --tsv      one row per (bin, task) with every base column
// --derived  one row per bin with the derived series (commfrac,
//            load imbalance, late-sender total)
// With neither flag, prints a short per-task summary.
#include <cstdio>
#include <exception>

#include "analysis/metrics.h"
#include "analysis/metrics_io.h"
#include "server/client.h"
#include "slog/slog_reader.h"
#include "support/cli.h"
#include "support/text.h"

namespace {

using namespace ute;

void printTsv(const MetricsStore& m) {
  std::printf("bin\tbin_start_s\ttask\tbusy_ns\tmpi_ns\tio_ns\tmarker_ns\t"
              "idle_ns\tsend_count\tsend_bytes\trecv_count\trecv_bytes\t"
              "late_sender_ns\n");
  for (std::uint32_t b = 0; b < m.bins(); ++b) {
    const double startSec =
        static_cast<double>(m.binStart(b) - m.origin()) / 1e9;
    for (std::uint32_t k = 0; k < m.taskCount(); ++k) {
      std::printf(
          "%u\t%.9f\t%d\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t"
          "%llu\t%llu\n",
          b, startSec, m.tasks()[k],
          static_cast<unsigned long long>(m.timeNs(StateClass::kBusy, b, k)),
          static_cast<unsigned long long>(m.timeNs(StateClass::kMpi, b, k)),
          static_cast<unsigned long long>(m.timeNs(StateClass::kIo, b, k)),
          static_cast<unsigned long long>(
              m.timeNs(StateClass::kMarker, b, k)),
          static_cast<unsigned long long>(m.idleNs(b, k)),
          static_cast<unsigned long long>(m.sendCount(b, k)),
          static_cast<unsigned long long>(m.sendBytes(b, k)),
          static_cast<unsigned long long>(m.recvCount(b, k)),
          static_cast<unsigned long long>(m.recvBytes(b, k)),
          static_cast<unsigned long long>(m.lateSenderNs(b, k)));
    }
  }
}

void printDerived(const MetricsStore& m) {
  std::printf("bin\tbin_start_s\tcomm_fraction\tload_imbalance\t"
              "late_sender_ns\n");
  for (std::uint32_t b = 0; b < m.bins(); ++b) {
    std::printf("%u\t%.9f\t%.6f\t%.6f\t%llu\n", b,
                static_cast<double>(m.binStart(b) - m.origin()) / 1e9,
                m.commFraction(b), m.loadImbalance(b),
                static_cast<unsigned long long>(m.lateSenderTotalNs(b)));
  }
}

void printSummary(const MetricsStore& m) {
  std::printf("%u bins of %.3fms over %.6fs, %u tasks\n", m.bins(),
              static_cast<double>(m.binWidth()) / 1e6,
              static_cast<double>(m.totalEnd() - m.origin()) / 1e9,
              m.taskCount());
  for (std::uint32_t k = 0; k < m.taskCount(); ++k) {
    std::uint64_t busy = 0, mpi = 0, io = 0, late = 0;
    std::uint64_t sends = 0, bytes = 0;
    for (std::uint32_t b = 0; b < m.bins(); ++b) {
      busy += m.timeNs(StateClass::kBusy, b, k);
      mpi += m.timeNs(StateClass::kMpi, b, k);
      io += m.timeNs(StateClass::kIo, b, k);
      late += m.lateSenderNs(b, k);
      sends += m.sendCount(b, k);
      bytes += m.sendBytes(b, k);
    }
    std::printf("task %d: busy %.3fms, mpi %.3fms, io %.3fms, "
                "late-sender %.3fms, %llu sends (%s bytes)\n",
                m.tasks()[k], busy / 1e6, mpi / 1e6, io / 1e6, late / 1e6,
                static_cast<unsigned long long>(sends),
                withCommas(bytes).c_str());
  }
  double peakComm = 0, peakImbalance = 0;
  for (std::uint32_t b = 0; b < m.bins(); ++b) {
    peakComm = std::max(peakComm, m.commFraction(b));
    peakImbalance = std::max(peakImbalance, m.loadImbalance(b));
  }
  std::printf("peak comm fraction %.1f%%, peak load imbalance %.3f\n",
              peakComm * 100.0, peakImbalance);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ute;
  try {
    CliParser cli(argc, argv,
                  {"slog", "utm", "bins", "jobs", "out", "router", "connect",
                   "host", "port", "trace"},
                  {"aggregate", "tsv", "derived"});
    const auto slogPath = cli.value("slog");
    const auto utmPath = cli.value("utm");
    const auto endpoint = cli.endpoint();
    if (!slogPath && !utmPath && !endpoint) {
      std::fprintf(stderr,
                   "usage: utemetrics --slog RUN.slog [--bins N] [--jobs N] "
                   "[--out RUN.utm] [--tsv] [--derived]\n"
                   "       utemetrics --utm RUN.utm [--tsv] [--derived]\n"
                   "       utemetrics --connect|--router HOST:PORT "
                   "[--trace I] [--bins N] [--tsv] [--derived]\n"
                   "       utemetrics --router HOST:PORT --aggregate "
                   "[PATTERN] [--bins N]\n");
      return 2;
    }

    if (cli.hasFlag("aggregate")) {
      if (!endpoint) {
        std::fprintf(stderr,
                     "utemetrics: --aggregate needs --router HOST:PORT\n");
        return 2;
      }
      const std::string pattern =
          cli.positional().empty() ? "" : cli.positional()[0];
      TraceClient client(endpoint->host, endpoint->port);
      const AggregateReply reply = client.aggregateMetrics(
          pattern,
          static_cast<std::uint32_t>(cli.valueOr("bins", std::uint64_t{0})));
      std::printf("run\tbackend\ttrace\tcomm_fraction\tload_imbalance\t"
                  "late_sender_fraction\n");
      for (const AggregateRun& run : reply.runs) {
        std::printf("%u\t%s\t%s\t%.6f\t%.6f\t%.6f\n", run.globalId,
                    run.backend.c_str(), run.name.c_str(), run.commFraction,
                    run.loadImbalance, run.lateSenderFraction);
      }
      const auto printDist = [](const char* label, const Distribution& d) {
        std::printf("# %s: min %.6f p50 %.6f mean %.6f p99 %.6f max %.6f\n",
                    label, d.min, d.p50, d.mean, d.p99, d.max);
      };
      printDist("comm_fraction", reply.commFraction);
      printDist("load_imbalance", reply.loadImbalance);
      printDist("late_sender_fraction", reply.lateSenderFraction);
      return 0;
    }

    MetricsStore store = [&] {
      if (utmPath) return MetricsReader(*utmPath).store();
      if (endpoint) {
        TraceClient client(endpoint->host, endpoint->port);
        return client.metrics(
            cli.traceId(),
            static_cast<std::uint32_t>(cli.valueOr("bins", std::uint64_t{0})));
      }
      SlogReader slog(*slogPath);
      MetricsOptions options;
      options.bins = static_cast<std::uint32_t>(
          cli.valueOr("bins", std::uint64_t{240}));
      options.jobs = static_cast<int>(cli.valueOr("jobs", std::uint64_t{0}));
      return computeMetrics(slog, options);
    }();

    if (const auto out = cli.value("out")) {
      writeMetricsFile(*out, store);
      std::fprintf(stderr, "wrote %s\n", out->c_str());
    }
    if (cli.hasFlag("tsv")) {
      printTsv(store);
    } else if (cli.hasFlag("derived")) {
      printDerived(store);
    } else {
      printSummary(store);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "utemetrics: %s\n", e.what());
    return 1;
  }
}
