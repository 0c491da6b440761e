// RouterService: the request brain of uterouter (src/fed).
//
// Answers the full uteserve protocol over a fleet of backends
// (docs/FEDERATION.md):
//   - single-trace ops (kInfo..kSummary, kGetMetrics, kTail*) are
//     proxied byte-transparently: the u32 trace id at bytes [1, 5) of
//     the request is rewritten from the global id to the owning
//     backend's local id and the response bytes are relayed verbatim,
//     so a client cannot tell a router from a direct connection;
//   - kListTraces / kAggregateMetrics / kCompareTraces fan out across
//     the fleet and reduce (src/fed/aggregate.h);
//   - kAddBackend / kRemoveBackend edit the registry at runtime.
//
// Proxying retries with bounded exponential backoff across the
// consistent-hash candidate list, on the schedule of the backend link's
// ClientOptions (registry.client: retries passes, backoffDelayMs between
// them), gated per backend by its circuit breaker; a killed-and-restarted backend costs some latency, not an
// error, once it accepts connections again. Replies for non-live traces
// are kept in a hot-set tier (the same frequency-admitted HotSetCache
// the frame cache uses) keyed by backend generation, so a backend restart
// or content change invalidates by key rotation, not by scanning.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "fed/registry.h"
#include "server/protocol.h"
#include "support/hot_set_cache.h"

namespace ute {

struct RouterOptions {
  std::vector<BackendSpec> backends;
  RegistryOptions registry;
  /// Hot-set reply cache (0 bytes disables it).
  std::size_t cacheBytes = 64u << 20;
  /// Background health/enumeration probe cadence; 0 disables the thread
  /// (tests drive probes synchronously with probeNow()).
  int healthIntervalMs = 1000;
};

/// The hot-set key of a reply: FNV-1a-64 over the backend generation
/// (u64 little-endian), the frame encoding byte and the request bytes.
std::uint64_t replyCacheKey(std::uint64_t generation, FrameEncoding encoding,
                            std::span<const std::uint8_t> payload);

class RouterService {
 public:
  explicit RouterService(const RouterOptions& options);
  ~RouterService();

  RouterService(const RouterService&) = delete;
  RouterService& operator=(const RouterService&) = delete;

  /// Executes one request payload. Never throws: every failure becomes
  /// an error frame. Mirrors processRequest()'s contract so the server
  /// loop treats backends and routers identically.
  RequestOutcome handle(std::span<const std::uint8_t> payload,
                        ConnectionContext& ctx);

  /// Synchronous forced health + enumeration sweep (cooldowns reset) —
  /// the deterministic alternative to the background thread.
  void probeNow() { registry_.probe(true); }

  BackendRegistry& registry() { return registry_; }
  CacheStats cacheStats() const { return cache_.stats(); }

  /// Stops the background health thread (idempotent; destructor calls
  /// it too).
  void stop();

 private:
  RequestOutcome dispatch(std::span<const std::uint8_t> payload,
                          ConnectionContext& ctx);
  std::vector<std::uint8_t> proxy(std::span<const std::uint8_t> payload,
                                  ConnectionContext& ctx);
  /// One pass over the candidate routes; returns the response or throws
  /// IoError if every candidate failed. `force` resets circuit
  /// cooldowns (the last-resort pass, so a just-restarted backend is
  /// reconnected without waiting out its cooldown).
  std::vector<std::uint8_t> tryRoutes(
      const std::vector<BackendRegistry::Route>& routes,
      std::span<const std::uint8_t> payload, FrameEncoding encoding,
      bool force);
  /// Fetches + decodes one federated trace's metrics via the proxy path.
  MetricsStore fetchMetrics(std::uint32_t globalId, std::uint32_t bins,
                            ConnectionContext& ctx);
  std::vector<std::uint8_t> handleAggregate(ByteReader& r,
                                            ConnectionContext& ctx);
  std::vector<std::uint8_t> handleCompare(ByteReader& r,
                                          ConnectionContext& ctx);
  void healthLoop();

  const RouterOptions options_;
  BackendRegistry registry_;
  HotSetCache<std::vector<std::uint8_t>> cache_;
  std::atomic<bool> stopping_{false};
  std::thread healthThread_;
};

}  // namespace ute
