// Minimal command-line option parser shared by the tools/ executables.
//
// Syntax accepted: --name value, --name=value, bare --flag, and positional
// arguments. Unknown options are an error so typos fail fast.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace ute {

/// A parsed server address. The tools that can talk to a uteserve
/// (utequery, uteview, utemetrics) all accept the same spellings and
/// share this struct instead of each splitting host:port by hand.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Parses "HOST:PORT" or a bare "PORT" (host defaults to 127.0.0.1).
/// Throws UsageError naming `what` on an empty host, a missing port, or
/// a port outside [1, 65535].
Endpoint parseEndpoint(const std::string& text,
                       const std::string& what = "endpoint");

class CliParser {
 public:
  /// `valueOptions` lists the option names that take a value, `flags`
  /// the boolean ones. Any other --name (bare, --name=value or --name
  /// value) throws a UsageError naming it, as does a value given to a
  /// flag.
  CliParser(int argc, const char* const* argv,
            const std::vector<std::string>& valueOptions,
            const std::vector<std::string>& flags);

  bool hasFlag(const std::string& name) const;
  std::optional<std::string> value(const std::string& name) const;
  std::string valueOr(const std::string& name, const std::string& dflt) const;
  std::uint64_t valueOr(const std::string& name, std::uint64_t dflt) const;
  double valueOr(const std::string& name, double dflt) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// The shared server-address convention: --router HOST:PORT (a
  /// uterouter front door), else --connect HOST:PORT (or a bare port),
  /// else the --host/--port pair. nullopt when no address was given;
  /// throws UsageError on a malformed one. Callers listing value
  /// options must include "router", "connect", "host" and "port".
  std::optional<Endpoint> endpoint() const;

  /// The shared --trace N trace-selection option (default trace 0).
  std::uint32_t traceId() const;

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> flags_;
  std::vector<std::string> positional_;
};

/// The serve-loop chores uteserve, uterouter and utestream --serve
/// share. writePortFile writes `port` and a newline to the path given as
/// --`option`, if one was given: a script polls that file to learn an
/// ephemeral port.
void writePortFile(const CliParser& cli, const std::string& option,
                   std::uint16_t port);

/// Blocks until SIGINT/SIGTERM arrives or `stopRequested()` (a client's
/// shutdown request) turns true, polling every 50 ms. Returns which one
/// stopped it: "signal received" or "shutdown requested".
const char* waitForStop(const std::function<bool()>& stopRequested);

}  // namespace ute
