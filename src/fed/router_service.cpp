#include "fed/router_service.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "fed/aggregate.h"
#include "support/errors.h"
#include "support/hash.h"

namespace ute {

namespace {

bool isSingleTraceOp(Opcode op) {
  switch (op) {
    case Opcode::kInfo:
    case Opcode::kStates:
    case Opcode::kThreads:
    case Opcode::kPreview:
    case Opcode::kWindow:
    case Opcode::kFrameAt:
    case Opcode::kSummary:
    case Opcode::kGetMetrics:
    case Opcode::kTailFrames:
    case Opcode::kTailMetrics:
      return true;
    default:
      return false;
  }
}

/// Replies safe to keep in the hot-set tier: deterministic for a fixed
/// backend generation. Tail ops advance with the feed and stay out.
bool isCacheableOp(Opcode op) {
  switch (op) {
    case Opcode::kInfo:
    case Opcode::kStates:
    case Opcode::kThreads:
    case Opcode::kPreview:
    case Opcode::kWindow:
    case Opcode::kFrameAt:
    case Opcode::kSummary:
    case Opcode::kGetMetrics:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::uint64_t replyCacheKey(std::uint64_t generation, FrameEncoding encoding,
                            std::span<const std::uint8_t> payload) {
  ByteWriter head;
  head.u64(generation);
  head.u8(static_cast<std::uint8_t>(encoding));
  return fnv1a64(payload, fnv1a64(head.view()));
}

RouterService::RouterService(const RouterOptions& options)
    : options_(options),
      registry_(options.registry),
      cache_(std::max<std::size_t>(options.cacheBytes, 1)) {
  for (const BackendSpec& spec : options.backends) registry_.add(spec);
  // Enumerate the fleet before serving: the first client's hello sees
  // the real trace count, not a race with the health thread.
  registry_.probe(true);
  if (options_.healthIntervalMs > 0) {
    healthThread_ = std::thread([this] { healthLoop(); });
  }
}

RouterService::~RouterService() { stop(); }

void RouterService::stop() {
  stopping_.store(true);
  if (healthThread_.joinable()) healthThread_.join();
}

void RouterService::healthLoop() {
  for (;;) {
    // Chunked sleep: ute::CondVar has no timed wait, and stop() must not
    // block on a full health interval.
    int waitedMs = 0;
    while (waitedMs < options_.healthIntervalMs && !stopping_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      waitedMs += 20;
    }
    if (stopping_.load()) return;
    registry_.probe(false);
  }
}

RequestOutcome RouterService::handle(std::span<const std::uint8_t> payload,
                                     ConnectionContext& ctx) {
  return answerRequest(payload, [&] { return dispatch(payload, ctx); });
}

RequestOutcome RouterService::dispatch(std::span<const std::uint8_t> payload,
                                       ConnectionContext& ctx) {
  ByteReader r(payload);
  const auto op = static_cast<Opcode>(r.u8());
  RequestOutcome outcome;

  if (isSingleTraceOp(op)) {
    outcome.response = proxy(payload, ctx);
    return outcome;
  }

  switch (op) {
    case Opcode::kHello: {
      outcome.response = answerHello(
          r, static_cast<std::uint32_t>(registry_.listTraces().size()), ctx,
          "router");
      return outcome;
    }
    case Opcode::kListTraces: {
      outcome.response = encodeListTracesReply(registry_.listTraces()).take();
      return outcome;
    }
    case Opcode::kAggregateMetrics: {
      outcome.response = handleAggregate(r, ctx);
      return outcome;
    }
    case Opcode::kCompareTraces: {
      outcome.response = handleCompare(r, ctx);
      return outcome;
    }
    case Opcode::kAddBackend: {
      const std::string name = r.lstring();
      const std::string hostPort = r.lstring();
      registry_.add(parseBackendSpec(name, hostPort));
      // Enumerate the newcomer right away so its traces are visible to
      // the client that added it.
      registry_.probe(true);
      outcome.response = okHeader().take();
      return outcome;
    }
    case Opcode::kRemoveBackend: {
      registry_.remove(r.lstring());
      outcome.response = okHeader().take();
      return outcome;
    }
    case Opcode::kStats: {
      // The router's hot-set reply cache, with zeros in the pool block:
      // the relay pool belongs to RouterServer, out of this service's
      // reach.
      outcome.response =
          encodeStatsReply(cache_.stats(), ThreadPool::Stats{}).take();
      return outcome;
    }
    case Opcode::kShutdown: {
      outcome.response = okHeader().take();
      outcome.shutdown = true;
      return outcome;
    }
    default:
      break;
  }
  throw ServiceError(
      ErrorCode::kBadRequest,
      "unknown opcode " + std::to_string(static_cast<unsigned>(payload[0])));
}

std::vector<std::uint8_t> RouterService::proxy(
    std::span<const std::uint8_t> payload, ConnectionContext& ctx) {
  if (payload.size() < 5) {
    throw FormatError("truncated single-trace request");
  }
  const auto op = static_cast<Opcode>(payload[0]);
  const std::uint32_t globalId =
      static_cast<std::uint32_t>(payload[1]) |
      (static_cast<std::uint32_t>(payload[2]) << 8) |
      (static_cast<std::uint32_t>(payload[3]) << 16) |
      (static_cast<std::uint32_t>(payload[4]) << 24);
  const std::vector<BackendRegistry::Route> routes =
      registry_.routesFor(globalId);
  if (routes.empty()) {
    throw ServiceError(ErrorCode::kBadTrace,
                       "unknown trace id " + std::to_string(globalId));
  }
  const bool cacheable = options_.cacheBytes > 0 && isCacheableOp(op) &&
                         !routes.front().live;
  const std::uint64_t key =
      replyCacheKey(routes.front().generation, ctx.frameEncoding, payload);
  if (cacheable) {
    if (const auto hit = cache_.lookup(key)) return *hit;
  }
  // The backend link's retry schedule drives passes over the candidate
  // list; each backend connect inside a pass is a single attempt.
  const ClientOptions& retry = options_.registry.client;
  const int attempts = std::max(0, retry.retries) + 1;
  std::string lastError = "no candidate backend";
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(backoffDelayMs(retry, attempt - 1)));
    }
    // The last pass resets circuit cooldowns: a backend that just came
    // back is reconnected now instead of erroring until its cooldown
    // expires.
    const bool force = attempt == attempts - 1;
    try {
      std::vector<std::uint8_t> response =
          tryRoutes(routes, payload, ctx.frameEncoding, force);
      if (cacheable) {
        cache_.insert(
            key,
            std::make_shared<const std::vector<std::uint8_t>>(response),
            response.size() + 64);
      }
      return response;
    } catch (const IoError& e) {
      lastError = e.what();
    }
  }
  // Every candidate backend failed: explicit backpressure, retry later.
  throw ServiceError(ErrorCode::kOverloaded,
                     "trace " + std::to_string(globalId) +
                         " unavailable: " + lastError);
}

std::vector<std::uint8_t> RouterService::tryRoutes(
    const std::vector<BackendRegistry::Route>& routes,
    std::span<const std::uint8_t> payload, FrameEncoding encoding,
    bool force) {
  std::string lastError = "all circuits open";
  for (const BackendRegistry::Route& route : routes) {
    BackendRegistry::Lease lease;
    try {
      lease = registry_.borrow(route.backend, encoding, force);
    } catch (const std::exception& e) {
      lastError = e.what();
      continue;
    }
    // Rewrite the global trace id to the backend's local id; everything
    // else is relayed untouched, response bytes verbatim.
    std::vector<std::uint8_t> patched(payload.begin(), payload.end());
    patched[1] = static_cast<std::uint8_t>(route.localId & 0xff);
    patched[2] = static_cast<std::uint8_t>((route.localId >> 8) & 0xff);
    patched[3] = static_cast<std::uint8_t>((route.localId >> 16) & 0xff);
    patched[4] = static_cast<std::uint8_t>((route.localId >> 24) & 0xff);
    try {
      std::vector<std::uint8_t> response = lease.client->roundTrip(patched);
      registry_.giveBack(std::move(lease), true);
      return response;
    } catch (const std::exception& e) {
      lastError = e.what();
      registry_.giveBack(std::move(lease), false);
    }
  }
  throw IoError(lastError);
}

MetricsStore RouterService::fetchMetrics(std::uint32_t globalId,
                                         std::uint32_t bins,
                                         ConnectionContext& ctx) {
  const ByteWriter request = encodeMetricsRequest(globalId, bins);
  // decodeMetricsReply throws ServiceError on a relayed error frame,
  // which handle() passes on with the backend's code and message.
  return decodeMetricsReply(proxy(request.view(), ctx));
}

std::vector<std::uint8_t> RouterService::handleAggregate(
    ByteReader& r, ConnectionContext& ctx) {
  const std::string pattern = r.lstring();
  std::uint32_t bins = r.u32();
  if (bins == 0) bins = kDefaultMetricsBins;
  if (bins > kMaxMetricsBins) {
    throw UsageError("metrics bins capped at " +
                     std::to_string(kMaxMetricsBins));
  }
  std::vector<FedTraceEntry> matching;
  for (FedTraceEntry& entry : registry_.listTraces()) {
    if (entry.live) continue;  // metrics need the finished file
    const std::string qualified = entry.backend + "/" + entry.name;
    if (pattern.empty() || qualified.find(pattern) != std::string::npos) {
      matching.push_back(std::move(entry));
    }
  }
  if (matching.empty()) {
    throw ServiceError(ErrorCode::kBadTrace,
                       "no traces match pattern '" + pattern + "'");
  }
  // Scatter: one GetMetrics per matching trace through the normal proxy
  // path (pooled connections, circuit breakers, cache). Gather into the
  // pure reducers so the oracle test can replay the reduction exactly.
  std::vector<MetricsStore> stores;
  stores.reserve(matching.size());
  for (const FedTraceEntry& entry : matching) {
    stores.push_back(fetchMetrics(entry.globalId, bins, ctx));
  }
  std::vector<AggregateInput> inputs;
  inputs.reserve(matching.size());
  for (std::size_t i = 0; i < matching.size(); ++i) {
    AggregateInput input;
    input.globalId = matching[i].globalId;
    input.backend = matching[i].backend;
    input.name = matching[i].name;
    input.store = &stores[i];
    inputs.push_back(std::move(input));
  }
  return encodeAggregateReply(aggregateStores(inputs)).take();
}

std::vector<std::uint8_t> RouterService::handleCompare(
    ByteReader& r, ConnectionContext& ctx) {
  const std::uint32_t idA = r.u32();
  const std::uint32_t idB = r.u32();
  std::uint32_t bins = r.u32();
  if (bins == 0) bins = kDefaultMetricsBins;
  if (bins > kMaxMetricsBins) {
    throw UsageError("metrics bins capped at " +
                     std::to_string(kMaxMetricsBins));
  }
  const MetricsStore a = fetchMetrics(idA, bins, ctx);
  const MetricsStore b = fetchMetrics(idB, bins, ctx);
  return encodeCompareReply(compareStores(a, b, bins)).take();
}

}  // namespace ute
