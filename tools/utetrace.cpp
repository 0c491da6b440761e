// utetrace — trace generation step of the framework (Figure 2, left).
//
// Runs one of the built-in workloads on the simulated SMP cluster with
// the unified tracing facility enabled, producing one raw trace file per
// node plus the standard description profile.
//
// Usage:
//   utetrace --workload test|sppm|flash [--dir DIR] [--name NAME]
//            [--iterations N] [--timesteps N] [--seed S]
//            [--no-dispatch] [--no-mpi] [--no-marker]   (trace classes)
#include <cstdio>
#include <exception>

#include "interval/standard_profile.h"
#include "mpisim/mpi_runtime.h"
#include "sim/simulation.h"
#include "support/cli.h"
#include "support/text.h"
#include "workloads/workloads.h"

namespace {

int run(int argc, char** argv) {
  using namespace ute;
  CliParser cli(argc, argv,
                {"workload", "dir", "name", "iterations", "timesteps",
                 "seed", "buffer-size"},
                {"no-dispatch", "no-mpi", "no-marker"});
  const std::string workload = cli.valueOr("workload", std::string("test"));
  const std::string dir = cli.valueOr("dir", std::string("."));
  const std::string name = cli.valueOr("name", workload);

  SimulationConfig config;
  if (workload == "test") {
    TestProgramOptions o;
    o.iterations =
        static_cast<std::uint32_t>(cli.valueOr("iterations", std::uint64_t{200}));
    o.seed = cli.valueOr("seed", std::uint64_t{42});
    config = testProgram(o);
  } else if (workload == "sppm") {
    SppmOptions o;
    o.timesteps =
        static_cast<std::uint32_t>(cli.valueOr("timesteps", std::uint64_t{30}));
    o.seed = cli.valueOr("seed", std::uint64_t{7});
    config = sppm(o);
  } else if (workload == "flash") {
    FlashOptions o;
    o.initIterations =
        static_cast<std::uint32_t>(cli.valueOr("iterations", std::uint64_t{40}));
    o.seed = cli.valueOr("seed", std::uint64_t{11});
    config = flash(o);
  } else {
    std::fprintf(stderr, "unknown workload '%s' (test|sppm|flash)\n",
                 workload.c_str());
    return 2;
  }

  config.trace.filePrefix = dir + "/" + name;
  config.trace.bufferSizeBytes = static_cast<std::size_t>(
      cli.valueOr("buffer-size", std::uint64_t{1} << 20));
  if (cli.hasFlag("no-dispatch")) {
    config.trace.enabledClasses &=
        ~TraceOptions::classBit(EventClass::kDispatch);
  }
  if (cli.hasFlag("no-mpi")) {
    config.trace.enabledClasses &= ~TraceOptions::classBit(EventClass::kMpi);
  }
  if (cli.hasFlag("no-marker")) {
    config.trace.enabledClasses &=
        ~TraceOptions::classBit(EventClass::kMarker);
  }

  Simulation sim(std::move(config));
  MpiRuntime mpi(sim);
  sim.setMpiService(&mpi);
  sim.run();

  ensureStandardProfileFile(dir + "/" + kStandardProfileFileName);

  std::uint64_t events = 0;
  for (NodeId n = 0; static_cast<std::size_t>(n) < sim.config().nodes.size();
       ++n) {
    const TraceSessionStats& s = sim.sessionStats(n);
    events += s.eventsCut;
    std::printf("node %d: %s events, %s bytes, %llu flushes -> %s\n", n,
                withCommas(s.eventsCut).c_str(),
                withCommas(s.bytesWritten).c_str(),
                static_cast<unsigned long long>(s.bufferFlushes),
                TraceSession::traceFilePath(sim.config().trace.filePrefix, n)
                    .c_str());
  }
  std::printf("total: %s raw events, %.3f s simulated\n",
              withCommas(events).c_str(),
              static_cast<double>(sim.finishTimeNs()) / 1e9);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "utetrace: %s\n", e.what());
    return 1;
  }
}
