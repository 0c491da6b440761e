// Backend registry for the federation router (src/fed).
//
// Owns everything the router knows about its fleet: the backend set
// (static config plus runtime add/remove), per-backend health as a
// circuit breaker fed by periodic hello probes, the enumerated trace
// table with stable *global* trace ids, the consistent-hash ring that
// orders failover candidates, and small per-(backend, encoding) pools of
// protocol connections.
//
// Global ids are keyed by (backend name, trace name) and never reused:
// a backend that drops out and re-registers, or re-enumerates after a
// restart, keeps the ids its traces already had — clients hold ids
// across backend restarts. Each backend carries a generation counter,
// bumped on reconnect-after-down and on any enumeration whose content
// signature changed; the router's reply cache keys on it, so a bump is
// an invalidation.
//
// All state lives behind one mutex; network I/O (connect, hello,
// enumeration round trips) always happens with the mutex released, so a
// slow or dead backend never blocks routing decisions for the rest of
// the fleet.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fed/circuit.h"
#include "fed/hash_ring.h"
#include "server/client.h"
#include "support/thread_annotations.h"

namespace ute {

struct BackendSpec {
  std::string name;
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "host:port" (throws UsageError on malformed input).
BackendSpec parseBackendSpec(const std::string& name,
                             const std::string& hostPort);

struct RegistryOptions {
  /// Connection policy for backend links. Its retries and backoff are
  /// the router's proxy schedule (passes over the candidate list); the
  /// registry forces retries to 0 on each backend connect, since
  /// double-retrying would multiply the worst-case latency.
  ClientOptions client;
  CircuitBreaker::Options circuit;

  RegistryOptions() {
    client.connectTimeoutMs = 2000;
    client.retries = 2;
    client.backoffMaxMs = 500;
  }
};

class BackendRegistry {
 public:
  explicit BackendRegistry(const RegistryOptions& options);

  // --- fleet membership (admin ops) ----------------------------------------

  /// Registers a backend (UsageError if the name is taken). The new
  /// backend is unknown-health until the next probe.
  void add(const BackendSpec& spec) UTE_EXCLUDES(mu_);
  /// Unregisters a backend and drops its traces from the table and its
  /// pooled connections (UsageError if unknown). Global ids the traces
  /// held stay reserved.
  void remove(const std::string& name) UTE_EXCLUDES(mu_);
  std::vector<std::string> backendNames() const UTE_EXCLUDES(mu_);

  // --- health + enumeration -------------------------------------------------

  /// One health/enumeration sweep over every backend: connect + hello
  /// where the circuit admits it (`force` resets cooldowns first, for
  /// admin sweeps and deterministic tests), re-enumerate traces, update
  /// circuits and generations. Blocking; the background health thread
  /// and RouterService::probeNow() both call this.
  void probe(bool force) UTE_EXCLUDES(mu_);

  CircuitBreaker::State circuitState(const std::string& name) const
      UTE_EXCLUDES(mu_);
  std::uint64_t generation(const std::string& name) const UTE_EXCLUDES(mu_);

  // --- trace table ----------------------------------------------------------

  std::vector<FedTraceEntry> listTraces() const UTE_EXCLUDES(mu_);

  /// One proxy candidate: a backend holding a replica of the trace.
  struct Route {
    std::string backend;
    std::uint32_t localId = 0;
    std::uint64_t generation = 0;
    bool live = false;
  };
  /// Candidates for `globalId` in consistent-hash preference order: the
  /// id's own trace name looked up on every backend that reported a
  /// trace of the same name, ring-ordered. Empty if the id is unknown.
  std::vector<Route> routesFor(std::uint32_t globalId) const
      UTE_EXCLUDES(mu_);

  // --- pooled backend connections ------------------------------------------

  /// A borrowed protocol connection. TraceClient is single-threaded, so
  /// the lease is exclusive; return it with giveBack().
  struct Lease {
    std::unique_ptr<TraceClient> client;
    std::string backend;
    FrameEncoding encoding = FrameEncoding::kRow;
  };

  /// Borrows a pooled connection to `backend` negotiated to exactly
  /// `encoding` (so relayed reply bytes match a direct connection),
  /// creating one if the pool is empty. Throws IoError if the circuit
  /// rejects the attempt (`force` resets the cooldown first) or the
  /// connect/hello fails — the failure is recorded against the circuit.
  Lease borrow(const std::string& backend, FrameEncoding encoding,
               bool force = false) UTE_EXCLUDES(mu_);
  /// Returns a lease. `ok` feeds the circuit: a healthy lease goes back
  /// to the pool; a failed one is discarded and counts as a failure.
  void giveBack(Lease lease, bool ok) UTE_EXCLUDES(mu_);

  /// One enumerated trace as probe() sees it on the wire.
  struct ProbedTrace {
    std::string name;
    bool live = false;
    Tick totalStart = 0;
    Tick totalEnd = 0;
    std::uint32_t frames = 0;
  };
  /// FNV-1a-64 over a backend's enumerated rows, in order (local ids are
  /// positional): each row's name hash, start, end, frame count and
  /// live flag as u64 little-endian. A change bumps the generation.
  static std::uint64_t signature(const std::vector<ProbedTrace>& traces);

 private:
  struct Backend {
    BackendSpec spec;
    CircuitBreaker circuit;
    std::uint64_t generation = 0;
    /// FNV over the enumerated trace rows; a change bumps generation.
    std::uint64_t signature = 0;
    bool everProbed = false;
    /// Pools indexed by FrameEncoding value.
    std::vector<std::unique_ptr<TraceClient>> pool[2];
  };

  struct TraceRow {
    FedTraceEntry entry;     ///< entry.generation mirrors the backend's
    std::uint32_t localId = 0;
  };

  void probeOne(const std::string& name, bool force) UTE_EXCLUDES(mu_);
  void applyEnumeration(const std::string& name,
                        const std::vector<ProbedTrace>& traces)
      UTE_REQUIRES(mu_);
  std::uint32_t globalIdFor(const std::string& backend,
                            const std::string& traceName) UTE_REQUIRES(mu_);

  const RegistryOptions options_;
  mutable Mutex mu_;
  std::map<std::string, Backend> backends_ UTE_GUARDED_BY(mu_);
  /// globalId -> row; rows of removed backends are erased, their ids
  /// stay reserved in assignedIds_.
  std::map<std::uint32_t, TraceRow> traces_ UTE_GUARDED_BY(mu_);
  /// (backend name, trace name) -> the global id it was ever assigned.
  std::map<std::pair<std::string, std::string>, std::uint32_t> assignedIds_
      UTE_GUARDED_BY(mu_);
  HashRing ring_ UTE_GUARDED_BY(mu_);
  std::uint32_t nextGlobalId_ UTE_GUARDED_BY(mu_) = 1;
};

}  // namespace ute
