#include "fed/registry.h"

#include <limits>
#include <utility>

#include "support/bytes.h"
#include "support/errors.h"

namespace ute {

/// Idle pooled connections kept per (backend, encoding).
constexpr std::size_t kPoolSize = 4;

BackendSpec parseBackendSpec(const std::string& name,
                             const std::string& hostPort) {
  const std::size_t colon = hostPort.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == hostPort.size()) {
    throw UsageError("backend address must be host:port, got '" + hostPort +
                     "'");
  }
  BackendSpec spec;
  spec.name = name;
  spec.host = hostPort.substr(0, colon);
  const std::string portStr = hostPort.substr(colon + 1);
  unsigned long port = 0;
  try {
    port = std::stoul(portStr);
  } catch (const std::exception&) {
    throw UsageError("bad backend port '" + portStr + "'");
  }
  if (port == 0 || port > 65535) {
    throw UsageError("backend port out of range: " + portStr);
  }
  spec.port = static_cast<std::uint16_t>(port);
  return spec;
}

BackendRegistry::BackendRegistry(const RegistryOptions& options)
    : options_(options) {}

void BackendRegistry::add(const BackendSpec& spec) {
  if (spec.name.empty()) throw UsageError("backend name must not be empty");
  MutexLock lock(mu_);
  if (backends_.count(spec.name) != 0) {
    throw UsageError("backend '" + spec.name + "' already registered");
  }
  Backend backend;
  backend.spec = spec;
  backend.circuit = CircuitBreaker(options_.circuit);
  backends_.emplace(spec.name, std::move(backend));
  ring_.add(spec.name);
}

void BackendRegistry::remove(const std::string& name) {
  MutexLock lock(mu_);
  const auto it = backends_.find(name);
  if (it == backends_.end()) {
    throw UsageError("unknown backend '" + name + "'");
  }
  backends_.erase(it);
  ring_.remove(name);
  for (auto row = traces_.begin(); row != traces_.end();) {
    row = (row->second.entry.backend == name) ? traces_.erase(row)
                                              : std::next(row);
  }
}

std::vector<std::string> BackendRegistry::backendNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(backends_.size());
  for (const auto& [name, backend] : backends_) names.push_back(name);
  return names;
}

CircuitBreaker::State BackendRegistry::circuitState(
    const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = backends_.find(name);
  if (it == backends_.end()) {
    throw UsageError("unknown backend '" + name + "'");
  }
  return it->second.circuit.state();
}

std::uint64_t BackendRegistry::generation(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = backends_.find(name);
  if (it == backends_.end()) {
    throw UsageError("unknown backend '" + name + "'");
  }
  return it->second.generation;
}

std::vector<FedTraceEntry> BackendRegistry::listTraces() const {
  MutexLock lock(mu_);
  std::vector<FedTraceEntry> entries;
  entries.reserve(traces_.size());
  for (const auto& [globalId, row] : traces_) entries.push_back(row.entry);
  return entries;
}

std::vector<BackendRegistry::Route> BackendRegistry::routesFor(
    std::uint32_t globalId) const {
  MutexLock lock(mu_);
  const auto it = traces_.find(globalId);
  std::vector<Route> routes;
  if (it == traces_.end()) return routes;
  const std::string& traceName = it->second.entry.name;
  // Every backend holding a same-name replica, in ring preference order
  // of the trace name. The owning backend of `globalId` is always one of
  // them; others are failover candidates.
  const std::vector<std::string> order =
      ring_.preferenceOrder(traceName, backends_.size());
  for (const std::string& backendName : order) {
    for (const auto& [id, row] : traces_) {
      if (row.entry.backend == backendName && row.entry.name == traceName) {
        Route route;
        route.backend = backendName;
        route.localId = row.localId;
        route.generation = row.entry.generation;
        route.live = row.entry.live;
        routes.push_back(std::move(route));
        break;
      }
    }
  }
  return routes;
}

void BackendRegistry::probe(bool force) {
  for (const std::string& name : backendNames()) probeOne(name, force);
}

void BackendRegistry::probeOne(const std::string& name, bool force) {
  BackendSpec spec;
  {
    MutexLock lock(mu_);
    const auto it = backends_.find(name);
    if (it == backends_.end()) return;
    if (force) it->second.circuit.resetCooldown();
    if (!it->second.circuit.allow(CircuitBreaker::Clock::now())) return;
    spec = it->second.spec;
  }
  // Connect + enumerate with the registry unlocked: a dead backend costs
  // this sweep a connect timeout, not the whole router a stall.
  std::vector<ProbedTrace> probed;
  bool ok = false;
  try {
    ClientOptions clientOptions = options_.client;
    clientOptions.retries = 0;
    clientOptions.acceptEncodings = 0b01;  // row: enumeration only
    TraceClient client(spec.host, spec.port, clientOptions);
    const std::uint32_t count = client.traceCount();
    for (std::uint32_t i = 0; i < count; ++i) {
      const TraceInfo info = client.info(i);
      ProbedTrace trace;
      trace.name = info.path;
      trace.totalStart = info.totalStart;
      trace.totalEnd = info.totalEnd;
      trace.frames = info.frames;
      // Liveness probe: a past-the-end tail cursor returns no frames,
      // just the finished flag (false only while the feed is open).
      trace.live = !client.tailFrames(i, std::numeric_limits<std::uint64_t>::max(), 1).finished;
      probed.push_back(std::move(trace));
    }
    ok = true;
  } catch (const std::exception&) {
    ok = false;
  }
  MutexLock lock(mu_);
  const auto it = backends_.find(name);
  if (it == backends_.end()) return;  // removed during the probe
  if (!ok) {
    it->second.circuit.recordFailure(CircuitBreaker::Clock::now());
    return;
  }
  const bool wasDown = it->second.circuit.state() != CircuitBreaker::State::kClosed;
  it->second.circuit.recordSuccess();
  if (wasDown && it->second.everProbed) {
    // Reconnected after an outage: the backend may have restarted with
    // different content; a generation bump invalidates cached replies
    // conservatively (re-enumeration below may bump again — harmless).
    ++it->second.generation;
  }
  it->second.everProbed = true;
  applyEnumeration(name, probed);
}

std::uint64_t BackendRegistry::signature(
    const std::vector<ProbedTrace>& traces) {
  ByteWriter w;
  for (const ProbedTrace& t : traces) {
    w.u64(fnv1a64(t.name));
    w.u64(t.totalStart);
    w.u64(t.totalEnd);
    w.u64(t.frames);
    w.u64(t.live ? 1 : 0);
  }
  return fnv1a64(w.view());
}

void BackendRegistry::applyEnumeration(
    const std::string& name, const std::vector<ProbedTrace>& traces) {
  Backend& backend = backends_.at(name);
  const std::uint64_t signature = BackendRegistry::signature(traces);
  if (backend.signature != 0 && backend.signature != signature) {
    ++backend.generation;
  }
  backend.signature = signature;
  // Rebuild this backend's rows (stable ids via assignedIds_).
  for (auto row = traces_.begin(); row != traces_.end();) {
    row = (row->second.entry.backend == name) ? traces_.erase(row)
                                              : std::next(row);
  }
  for (std::uint32_t localId = 0;
       localId < static_cast<std::uint32_t>(traces.size()); ++localId) {
    const ProbedTrace& t = traces[localId];
    TraceRow row;
    row.localId = localId;
    row.entry.globalId = globalIdFor(name, t.name);
    row.entry.backend = name;
    row.entry.name = t.name;
    row.entry.live = t.live;
    row.entry.totalStart = t.totalStart;
    row.entry.totalEnd = t.totalEnd;
    row.entry.frames = t.frames;
    row.entry.generation = backend.generation;
    traces_[row.entry.globalId] = std::move(row);
  }
}

std::uint32_t BackendRegistry::globalIdFor(const std::string& backend,
                                           const std::string& traceName) {
  const auto key = std::make_pair(backend, traceName);
  const auto it = assignedIds_.find(key);
  if (it != assignedIds_.end()) return it->second;
  const std::uint32_t id = nextGlobalId_++;
  assignedIds_.emplace(key, id);
  return id;
}

BackendRegistry::Lease BackendRegistry::borrow(const std::string& backend,
                                               FrameEncoding encoding,
                                               bool force) {
  BackendSpec spec;
  {
    MutexLock lock(mu_);
    const auto it = backends_.find(backend);
    if (it == backends_.end()) {
      throw IoError("backend '" + backend + "' is not registered");
    }
    if (force) it->second.circuit.resetCooldown();
    if (!it->second.circuit.allow(CircuitBreaker::Clock::now())) {
      throw IoError("backend '" + backend + "' circuit is open");
    }
    auto& pool = it->second.pool[static_cast<std::size_t>(encoding)];
    if (!pool.empty()) {
      Lease lease;
      lease.client = std::move(pool.back());
      pool.pop_back();
      lease.backend = backend;
      lease.encoding = encoding;
      return lease;
    }
    spec = it->second.spec;
  }
  ClientOptions clientOptions = options_.client;
  clientOptions.retries = 0;
  // Offer exactly one encoding so the backend link speaks the same
  // frame layout as the client link — relayed bytes stay identical to a
  // direct connection.
  clientOptions.acceptEncodings =
      static_cast<std::uint8_t>(1u << static_cast<unsigned>(encoding));
  try {
    Lease lease;
    lease.client =
        std::make_unique<TraceClient>(spec.host, spec.port, clientOptions);
    lease.backend = backend;
    lease.encoding = encoding;
    if (lease.client->frameEncoding() != encoding) {
      throw IoError("backend '" + backend +
                    "' negotiated a different frame encoding");
    }
    return lease;
  } catch (const std::exception&) {
    MutexLock lock(mu_);
    const auto it = backends_.find(backend);
    if (it != backends_.end()) {
      it->second.circuit.recordFailure(CircuitBreaker::Clock::now());
    }
    throw;
  }
}

void BackendRegistry::giveBack(Lease lease, bool ok) {
  MutexLock lock(mu_);
  const auto it = backends_.find(lease.backend);
  if (it == backends_.end()) return;  // removed while borrowed
  if (!ok) {
    it->second.circuit.recordFailure(CircuitBreaker::Clock::now());
    return;  // the connection is suspect; drop it
  }
  const bool wasDown =
      it->second.circuit.state() != CircuitBreaker::State::kClosed;
  it->second.circuit.recordSuccess();
  if (wasDown && it->second.everProbed) ++it->second.generation;
  auto& pool = it->second.pool[static_cast<std::size_t>(lease.encoding)];
  if (pool.size() < kPoolSize) {
    pool.push_back(std::move(lease.client));
  }
}

}  // namespace ute
