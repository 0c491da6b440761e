#include "support/cli.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <thread>

#include "support/errors.h"
#include "support/file_io.h"
#include "support/text.h"

namespace ute {

namespace {

volatile std::sig_atomic_t gStopSignal = 0;

void onStopSignal(int) { gStopSignal = 1; }

}  // namespace

CliParser::CliParser(int argc, const char* const* argv,
                     const std::vector<std::string>& valueOptions,
                     const std::vector<std::string>& flags) {
  auto listed = [](const std::vector<std::string>& names,
                   const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!startsWith(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    if (listed(valueOptions, name)) {
      if (eq != std::string::npos) {
        values_[name] = arg.substr(eq + 1);
      } else if (i + 1 < argc) {
        values_[name] = argv[++i];
      } else {
        throw UsageError("option --" + name + " requires a value");
      }
    } else if (listed(flags, name)) {
      if (eq != std::string::npos) {
        throw UsageError("option --" + name + " takes no value");
      }
      flags_.insert(name);
    } else {
      throw UsageError("unknown option --" + name);
    }
  }
}

Endpoint parseEndpoint(const std::string& text, const std::string& what) {
  Endpoint ep;
  std::string portText = text;
  const std::size_t colon = text.rfind(':');
  if (colon != std::string::npos) {
    if (colon == 0) throw UsageError(what + ": empty host in '" + text + "'");
    ep.host = text.substr(0, colon);
    portText = text.substr(colon + 1);
  }
  if (portText.empty()) {
    throw UsageError(what + ": missing port in '" + text + "'");
  }
  const std::uint64_t port = parseU64(portText);
  if (port == 0 || port > 65535) {
    throw UsageError(what + ": port " + portText + " out of range");
  }
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

std::optional<Endpoint> CliParser::endpoint() const {
  // --router is the federation spelling of --connect: same address
  // syntax, but it names a uterouter front door instead of a single
  // backend. The wire protocol is identical, so tools treat both alike.
  if (const auto router = value("router")) {
    return parseEndpoint(*router, "--router");
  }
  if (const auto connect = value("connect")) {
    return parseEndpoint(*connect, "--connect");
  }
  const auto port = value("port");
  if (!port) return std::nullopt;
  Endpoint ep = parseEndpoint(*port, "--port");
  if (const auto host = value("host")) ep.host = *host;
  return ep;
}

std::uint32_t CliParser::traceId() const {
  return static_cast<std::uint32_t>(valueOr("trace", std::uint64_t{0}));
}

bool CliParser::hasFlag(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::optional<std::string> CliParser::value(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string CliParser::valueOr(const std::string& name,
                               const std::string& dflt) const {
  return value(name).value_or(dflt);
}

std::uint64_t CliParser::valueOr(const std::string& name,
                                 std::uint64_t dflt) const {
  const auto v = value(name);
  return v ? parseU64(*v) : dflt;
}

double CliParser::valueOr(const std::string& name, double dflt) const {
  const auto v = value(name);
  return v ? parseF64(*v) : dflt;
}

void writePortFile(const CliParser& cli, const std::string& option,
                   std::uint16_t port) {
  if (const auto path = cli.value(option)) {
    writeWholeFile(*path, std::to_string(port) + "\n");
  }
}

const char* waitForStop(const std::function<bool()>& stopRequested) {
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);
  while (gStopSignal == 0 && !stopRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return gStopSignal != 0 ? "signal received" : "shutdown requested";
}

}  // namespace ute
