// uterouter — the federation front door over a fleet of uteserve
// backends (docs/FEDERATION.md).
//
// Reads a backend registry from a config file (one backend per line:
// `NAME HOST:PORT`, '#' comments), consistent-hashes traces across the
// fleet, health-checks every backend with circuit-breaker-gated hello
// probes, proxies all single-trace ops byte-transparently, and answers
// the federation fan-out ops (list-traces, aggregate-metrics,
// compare-traces) plus runtime add-backend/remove-backend admin ops.
//
// Usage:
//   uterouter BACKENDS.conf
//             [--port N]        listen port (default 0 = ephemeral)
//             [--cache-mb MB]   hot-set reply cache budget (default 64)
//             [--health-ms N]   health probe cadence (default 1000)
//             [--retries N]     proxy retry passes (default 2)
//             [--workers N]     relay worker threads (default 16)
//             [--idle-ms N]     close connections idle this long
//                               (default 120000; 0 = never)
//             [--read-ms N]     partial-frame / stalled-write liveness
//                               bound (default 30000; 0 = never)
//             [--port-file P]   write the bound port to P once listening
//
// Stops on SIGINT/SIGTERM or a client's shutdown request
// (`utequery --router HOST:PORT shutdown`).
#include <cstdio>
#include <exception>
#include <sstream>

#include "fed/router_server.h"
#include "support/cli.h"
#include "support/errors.h"
#include "support/file_io.h"

namespace {

std::vector<ute::BackendSpec> parseConfig(const std::string& path) {
  const std::vector<std::uint8_t> raw = ute::readWholeFile(path);
  std::istringstream in(std::string(raw.begin(), raw.end()));
  std::vector<ute::BackendSpec> backends;
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string name, hostPort, extra;
    if (!(fields >> name)) continue;  // blank / comment-only line
    if (!(fields >> hostPort) || (fields >> extra)) {
      throw ute::UsageError("config line " + std::to_string(lineNo) +
                            ": expected 'NAME HOST:PORT'" +
                            ute::ioContext(path));
    }
    backends.push_back(ute::parseBackendSpec(name, hostPort));
  }
  if (backends.empty()) {
    throw ute::UsageError("no backends configured" + ute::ioContext(path));
  }
  return backends;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ute;
  try {
    CliParser cli(argc, argv, {"port", "cache-mb", "health-ms", "retries",
                               "workers", "idle-ms", "read-ms", "port-file"},
                  {});
    if (cli.positional().size() != 1) {
      std::fprintf(stderr, "usage: uterouter BACKENDS.conf [--port N] "
                           "[--cache-mb MB] [--health-ms N]\n");
      return 2;
    }

    RouterOptions options;
    options.backends = parseConfig(cli.positional()[0]);
    options.cacheBytes = static_cast<std::size_t>(
        cli.valueOr("cache-mb", std::uint64_t{64}) << 20);
    options.healthIntervalMs =
        static_cast<int>(cli.valueOr("health-ms", std::uint64_t{1000}));
    options.registry.client.retries =
        static_cast<int>(cli.valueOr("retries", std::uint64_t{2}));

    RouterService service(options);
    RouterServerOptions serverOptions;
    serverOptions.port =
        static_cast<std::uint16_t>(cli.valueOr("port", std::uint64_t{0}));
    serverOptions.workers =
        static_cast<std::size_t>(cli.valueOr("workers", std::uint64_t{16}));
    // The CLI router hardens against slow/hung clients by default;
    // embedded (test) routers keep the permissive defaults.
    serverOptions.idleTimeoutMs =
        static_cast<int>(cli.valueOr("idle-ms", std::uint64_t{120'000}));
    serverOptions.readTimeoutMs =
        static_cast<int>(cli.valueOr("read-ms", std::uint64_t{30'000}));
    RouterServer server(service, serverOptions);

    const std::size_t traceCount = service.registry().listTraces().size();
    std::printf("uterouter: listening on 127.0.0.1:%u (%zu backend%s, "
                "%zu trace%s, %zu MiB cache)\n",
                server.port(), options.backends.size(),
                options.backends.size() == 1 ? "" : "s", traceCount,
                traceCount == 1 ? "" : "s", options.cacheBytes >> 20);
    std::fflush(stdout);
    writePortFile(cli, "port-file", server.port());

    const char* reason = waitForStop([&] { return server.stopRequested(); });
    std::printf("uterouter: %s, shutting down\n", reason);
    server.stop();
    service.stop();

    const CacheStats cache = service.cacheStats();
    std::printf("uterouter: hot-set cache %llu hits / %llu misses / "
                "%llu evictions\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(cache.evictions));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uterouter: %s\n", e.what());
    return 1;
  }
}
