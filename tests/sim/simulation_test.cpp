#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "trace/reader.h"
#include "temp_dir.h"

namespace ute {
namespace {

struct OwnedEvent {
  EventType type;
  std::uint8_t flags;
  CpuId cpu;
  LogicalThreadId ltid;
  Tick localTs;
  std::vector<std::uint8_t> payload;
};

std::vector<OwnedEvent> readAll(const std::string& path) {
  TraceFileReader reader(path);
  std::vector<OwnedEvent> out;
  while (const auto ev = reader.next()) {
    out.push_back({ev->type, ev->flags, ev->cpu, ev->ltid, ev->localTs,
                   {ev->payload.begin(), ev->payload.end()}});
  }
  return out;
}

SimulationConfig baseConfig(const std::string& name, int nodes, int cpus) {
  SimulationConfig config;
  for (int n = 0; n < nodes; ++n) {
    NodeConfig node;
    node.cpuCount = cpus;
    config.nodes.push_back(node);  // perfect clocks by default
  }
  // In the process's own directory, so parallel ctest processes never
  // share trace files.
  config.trace.filePrefix = tempPath(name);
  config.clockDaemon.periodNs = 50 * kMs;
  return config;
}

ThreadConfig threadWith(Program program,
                        ThreadType type = ThreadType::kUser) {
  ThreadConfig tc;
  tc.program = std::move(program);
  tc.type = type;
  return tc;
}

TEST(Simulation, SingleComputeThreadRunsToCompletion) {
  SimulationConfig config = baseConfig("sim_single", 1, 1);
  ProcessConfig proc;
  proc.node = 0;
  proc.threads.push_back(threadWith(ProgramBuilder().compute(5 * kMs).build()));
  config.processes.push_back(proc);

  Simulation sim(std::move(config));
  sim.run();
  // Finish time: dispatch cost + compute.
  EXPECT_GE(sim.finishTimeNs(), 5 * kMs);
  EXPECT_LT(sim.finishTimeNs(), 6 * kMs);
  EXPECT_EQ(sim.thread(0).state, ThreadState::kDone);
  EXPECT_EQ(sim.thread(0).cpuTimeNs, 5 * kMs);

  const auto events = readAll(sim.traceFilePaths()[0]);
  // NodeInfo + 2 ThreadInfo (thread + daemon) + clock records + dispatches.
  std::map<EventType, int> counts;
  for (const auto& ev : events) ++counts[ev.type];
  EXPECT_EQ(counts[EventType::kNodeInfo], 1);
  EXPECT_EQ(counts[EventType::kThreadInfo], 2);
  EXPECT_GE(counts[EventType::kGlobalClock], 2);  // initial + final
  EXPECT_EQ(counts[EventType::kThreadDispatch], 2);  // in, then idle
}

TEST(Simulation, DispatchRecordsMarkThreadExit) {
  SimulationConfig config = baseConfig("sim_exit", 1, 1);
  ProcessConfig proc;
  proc.threads.push_back(threadWith(ProgramBuilder().compute(kMs).build()));
  config.processes.push_back(proc);
  Simulation sim(std::move(config));
  sim.run();

  const auto events = readAll(sim.traceFilePaths()[0]);
  bool sawExit = false;
  for (const auto& ev : events) {
    if (ev.type != EventType::kThreadDispatch) continue;
    ByteReader r{std::span<const std::uint8_t>(ev.payload)};
    const auto oldTid = r.i32();
    r.i32();
    const auto exited = r.u32();
    if (oldTid == 0 && exited == 1) sawExit = true;
  }
  EXPECT_TRUE(sawExit);
}

TEST(Simulation, PreemptionSharesOneCpuBetweenThreads) {
  SimulationConfig config = baseConfig("sim_preempt", 1, 1);
  config.scheduler.quantumNs = 1 * kMs;
  ProcessConfig proc;
  proc.threads.push_back(threadWith(ProgramBuilder().compute(10 * kMs).build()));
  proc.threads.push_back(threadWith(ProgramBuilder().compute(10 * kMs).build()));
  config.processes.push_back(proc);

  Simulation sim(std::move(config));
  sim.run();
  EXPECT_EQ(sim.thread(0).state, ThreadState::kDone);
  EXPECT_EQ(sim.thread(1).state, ThreadState::kDone);
  EXPECT_EQ(sim.thread(0).cpuTimeNs, 10 * kMs);
  EXPECT_EQ(sim.thread(1).cpuTimeNs, 10 * kMs);
  // One CPU, 20 ms of work: finishes no earlier than 20 ms.
  EXPECT_GE(sim.finishTimeNs(), 20 * kMs);

  // Quantum-driven round robin leaves many dispatch events.
  const auto events = readAll(sim.traceFilePaths()[0]);
  int dispatches = 0;
  for (const auto& ev : events) {
    if (ev.type == EventType::kThreadDispatch) ++dispatches;
  }
  EXPECT_GE(dispatches, 15);  // ~20 quanta worth of switches
}

TEST(Simulation, TwoCpusRunThreadsInParallel) {
  SimulationConfig config = baseConfig("sim_parallel", 1, 2);
  ProcessConfig proc;
  proc.threads.push_back(threadWith(ProgramBuilder().compute(10 * kMs).build()));
  proc.threads.push_back(threadWith(ProgramBuilder().compute(10 * kMs).build()));
  config.processes.push_back(proc);
  Simulation sim(std::move(config));
  sim.run();
  // Parallel execution: well under the serial 20 ms.
  EXPECT_LT(sim.finishTimeNs(), 12 * kMs);
}

TEST(Simulation, SleepReleasesTheCpu) {
  SimulationConfig config = baseConfig("sim_sleep", 1, 1);
  ProcessConfig proc;
  // Sleeper yields; worker computes during the sleep.
  proc.threads.push_back(threadWith(
      ProgramBuilder().compute(kMs).sleep(20 * kMs).compute(kMs).build()));
  proc.threads.push_back(threadWith(ProgramBuilder().compute(15 * kMs).build()));
  config.processes.push_back(proc);
  Simulation sim(std::move(config));
  sim.run();
  // If the sleeper held the CPU, the run would take >= 37 ms; overlap
  // brings it near max(22 ms, ...).
  EXPECT_LT(sim.finishTimeNs(), 27 * kMs);
  EXPECT_EQ(sim.thread(0).cpuTimeNs, 2 * kMs);
}

TEST(Simulation, WakeAfterBlockMigratesToLeastRecentlyUsedCpu) {
  SimulationConfig config = baseConfig("sim_migrate", 1, 4);
  ProcessConfig proc;
  ProgramBuilder b;
  b.loop(10);
  b.compute(kMs);
  b.sleep(kMs);
  b.endLoop();
  proc.threads.push_back(threadWith(b.build()));
  config.processes.push_back(proc);
  Simulation sim(std::move(config));
  sim.run();

  const auto events = readAll(sim.traceFilePaths()[0]);
  std::map<CpuId, int> cpusUsed;
  for (const auto& ev : events) {
    if (ev.type == EventType::kThreadDispatch && ev.ltid == 0) {
      ++cpusUsed[ev.cpu];
    }
  }
  // The thread wanders across the node's processors as it re-wakes.
  EXPECT_GE(cpusUsed.size(), 3u);
}

TEST(Simulation, MarkersCutDefinitionOncePerProcess) {
  SimulationConfig config = baseConfig("sim_markers", 1, 1);
  ProcessConfig proc;
  ProgramBuilder b;
  b.loop(3);
  b.markerBegin("phase");
  b.compute(10 * kUs);
  b.markerEnd("phase");
  b.endLoop();
  proc.threads.push_back(threadWith(b.build()));
  config.processes.push_back(proc);
  Simulation sim(std::move(config));
  sim.run();

  const auto events = readAll(sim.traceFilePaths()[0]);
  int defs = 0;
  int markers = 0;
  for (const auto& ev : events) {
    if (ev.type == EventType::kMarkerDef) ++defs;
    if (ev.type == EventType::kUserMarker) ++markers;
  }
  EXPECT_EQ(defs, 1);      // defined on first use only
  EXPECT_EQ(markers, 6);   // 3 begin + 3 end
}

TEST(Simulation, MpiOpWithoutServiceThrows) {
  SimulationConfig config = baseConfig("sim_nompi", 1, 1);
  ProcessConfig proc;
  proc.threads.push_back(threadWith(ProgramBuilder().barrier().build()));
  config.processes.push_back(proc);
  Simulation sim(std::move(config));
  EXPECT_THROW(sim.run(), UsageError);
}

TEST(Simulation, ConfigValidation) {
  SimulationConfig empty;
  EXPECT_THROW(Simulation{empty}, UsageError);

  SimulationConfig badNode = baseConfig("sim_badnode", 1, 1);
  ProcessConfig proc;
  proc.node = 7;  // no such node
  proc.threads.push_back(threadWith(ProgramBuilder().compute(1).build()));
  badNode.processes.push_back(proc);
  EXPECT_THROW(Simulation{badNode}, UsageError);
}

TEST(Simulation, LocalTimestampsFollowConfiguredClock) {
  SimulationConfig config = baseConfig("sim_clockdrift", 1, 1);
  config.nodes[0].clock.offsetNs = 1000000;
  config.nodes[0].clock.driftPpm = +100.0;
  ProcessConfig proc;
  proc.threads.push_back(threadWith(ProgramBuilder().compute(kMs).build()));
  config.processes.push_back(proc);
  Simulation sim(std::move(config));
  sim.run();

  const auto events = readAll(sim.traceFilePaths()[0]);
  // The first events (cut at true time 0) show the clock offset.
  EXPECT_EQ(events.front().localTs, 1000000u);
  // A GlobalClock record pairs true time with the drifted local time.
  for (const auto& ev : events) {
    if (ev.type != EventType::kGlobalClock) continue;
    ByteReader r{std::span<const std::uint8_t>(ev.payload)};
    const Tick global = r.u64();
    const Tick local = r.u64();
    const double expected =
        1000000.0 + static_cast<double>(global) * 1.0001;
    EXPECT_NEAR(static_cast<double>(local), expected, 2.0);
  }
}

}  // namespace
}  // namespace ute
