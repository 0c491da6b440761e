// uteserve — the concurrent SLOG trace-query service.
//
// Loads one or more SLOG files and serves preview/window/frame-at/
// summary/states/threads queries over the length-prefixed binary
// protocol (docs/SERVER.md), decoding hot frames once into a
// frequency-admitted cache (one byte budget) shared by all clients.
//
// Usage:
//   uteserve RUN.slog [MORE.slog ...]
//            [--port N]        listen port (default 0 = ephemeral)
//            [--cache-mb MB]   frame cache byte budget (default 64)
//            [--workers N]     query worker threads (default 4)
//            [--queue N]       bounded request queue depth (default 64)
//            [--idle-ms N]     close connections idle this long
//                              (default 120000; 0 = never)
//            [--read-ms N]     partial-frame / stalled-write liveness
//                              bound (default 30000; 0 = never)
//            [--port-file P]   write the bound port to P once listening
//
// Stops on SIGINT/SIGTERM or a client's shutdown request
// (`utequery --port N shutdown`).
#include <cstdio>
#include <exception>

#include "server/server.h"
#include "support/cli.h"

int main(int argc, char** argv) {
  using namespace ute;
  try {
    CliParser cli(argc, argv, {"port", "cache-mb", "workers", "queue",
                               "idle-ms", "read-ms", "port-file"},
                  {});
    if (cli.positional().empty()) {
      std::fprintf(stderr, "usage: uteserve RUN.slog [MORE.slog ...] "
                           "[--port N] [--cache-mb MB] [--workers N]\n");
      return 2;
    }

    ServerOptions options;
    options.port =
        static_cast<std::uint16_t>(cli.valueOr("port", std::uint64_t{0}));
    options.service.cacheBytes = static_cast<std::size_t>(
        cli.valueOr("cache-mb", std::uint64_t{64}) << 20);
    options.service.workers =
        static_cast<std::size_t>(cli.valueOr("workers", std::uint64_t{4}));
    options.service.queueDepth =
        static_cast<std::size_t>(cli.valueOr("queue", std::uint64_t{64}));
    // The CLI server hardens against slow/hung clients by default;
    // embedded (test) servers keep the permissive ServerOptions defaults.
    options.idleTimeoutMs =
        static_cast<int>(cli.valueOr("idle-ms", std::uint64_t{120'000}));
    options.readTimeoutMs =
        static_cast<int>(cli.valueOr("read-ms", std::uint64_t{30'000}));

    TraceServer server(cli.positional(), options);
    std::printf("uteserve: listening on 127.0.0.1:%u (%u trace%s, "
                "%zu MiB cache, %zu workers, queue %zu)\n",
                server.port(), server.service().traceCount(),
                server.service().traceCount() == 1 ? "" : "s",
                options.service.cacheBytes >> 20, options.service.workers,
                options.service.queueDepth);
    std::fflush(stdout);
    writePortFile(cli, "port-file", server.port());

    const char* reason = waitForStop([&] { return server.stopRequested(); });
    std::printf("uteserve: %s, shutting down\n", reason);
    server.stop();

    const FrameCache::Stats cache = server.service().cache().stats();
    const ThreadPool::Stats pool = server.service().pool().stats();
    std::printf("uteserve: served %llu queries (%llu rejected); cache "
                "%llu hits / %llu misses / %llu evictions\n",
                static_cast<unsigned long long>(pool.executed),
                static_cast<unsigned long long>(pool.rejected),
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(cache.evictions));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uteserve: %s\n", e.what());
    return 1;
  }
}
