// Collective-operation semantics: rooted collectives, ordering across
// several instances, Init/Finalize synchronization, and cost scaling
// with task count.
#include <gtest/gtest.h>

#include <filesystem>

#include "mpisim/mpi_runtime.h"
#include "trace/reader.h"
#include "temp_dir.h"

namespace ute {
namespace {

SimulationConfig clusterOf(const std::string& name, int nodes, int cpus) {
  SimulationConfig config;
  for (int n = 0; n < nodes; ++n) {
    NodeConfig node;
    node.cpuCount = cpus;
    config.nodes.push_back(node);
  }
  // In the process's own directory, so parallel ctest processes never
  // share trace files.
  config.trace.filePrefix = tempPath(name);
  config.clockDaemon.periodNs = 500 * kMs;
  return config;
}

void addTask(SimulationConfig& config, NodeId node, Program program) {
  ProcessConfig proc;
  proc.node = node;
  ThreadConfig tc;
  tc.program = std::move(program);
  tc.type = ThreadType::kMpi;
  proc.threads.push_back(std::move(tc));
  config.processes.push_back(std::move(proc));
}

Tick runFinish(SimulationConfig config) {
  Simulation sim(std::move(config));
  MpiRuntime mpi(sim);
  sim.setMpiService(&mpi);
  sim.run();
  return sim.finishTimeNs();
}

TEST(Collectives, BcastReleasesAllTasksTogether) {
  // The root arrives 30 ms late; no task can leave the bcast earlier.
  SimulationConfig config = clusterOf("coll_bcast", 3, 1);
  addTask(config, 0,
          ProgramBuilder().compute(30 * kMs).bcast(4096, 0).build());
  addTask(config, 1, ProgramBuilder().bcast(4096, 0).compute(kMs).build());
  addTask(config, 2, ProgramBuilder().bcast(4096, 0).compute(kMs).build());
  EXPECT_GE(runFinish(std::move(config)), 31 * kMs);
}

TEST(Collectives, SequencesOfMixedKindsMatchInOrder) {
  SimulationConfig config = clusterOf("coll_seq", 2, 1);
  for (int t = 0; t < 2; ++t) {
    ProgramBuilder b;
    b.barrier();
    b.allreduce(64);
    b.bcast(1024, 1);
    b.reduce(2048, 0);
    b.barrier();
    addTask(config, t, b.build());
  }
  EXPECT_GT(runFinish(std::move(config)), 0u);  // completes, no mismatch
}

TEST(Collectives, TasksAtDifferentSpeedsStayMatched) {
  // Task 0 runs each collective immediately, task 1 computes between
  // them — instances must pair by position, not by wall clock.
  SimulationConfig config = clusterOf("coll_stagger", 2, 1);
  {
    ProgramBuilder b;
    b.loop(5);
    b.barrier();
    b.endLoop();
    addTask(config, 0, b.build());
  }
  {
    ProgramBuilder b;
    b.loop(5);
    b.compute(5 * kMs);
    b.barrier();
    b.endLoop();
    addTask(config, 1, b.build());
  }
  // Five barriers each gated by 5 ms of compute: >= 25 ms.
  EXPECT_GE(runFinish(std::move(config)), 25 * kMs);
}

TEST(Collectives, InitAndFinalizeSynchronize) {
  SimulationConfig config = clusterOf("coll_init", 2, 1);
  addTask(config, 0,
          ProgramBuilder().mpiInit().compute(kMs).mpiFinalize().build());
  addTask(config, 1,
          ProgramBuilder().compute(20 * kMs).mpiInit().mpiFinalize().build());
  // Task 0 cannot pass MPI_Init until task 1 arrives at 20 ms.
  EXPECT_GE(runFinish(std::move(config)), 21 * kMs);
}

TEST(Collectives, CostGrowsWithTaskCount) {
  const auto elapsed = [](int tasks) {
    SimulationConfig config =
        clusterOf("coll_scale" + std::to_string(tasks), tasks, 1);
    for (int t = 0; t < tasks; ++t) {
      ProgramBuilder b;
      b.loop(30);
      b.allreduce(32 * 1024);
      b.endLoop();
      addTask(config, t, b.build());
    }
    return runFinish(std::move(config));
  };
  const Tick two = elapsed(2);
  const Tick eight = elapsed(8);
  EXPECT_GT(eight, two);  // log2(8) = 3 tree rounds vs 1
}

TEST(Collectives, EntryRecordsCarryCollectiveArguments) {
  SimulationConfig config = clusterOf("coll_args", 2, 1);
  for (int t = 0; t < 2; ++t) {
    addTask(config, t, ProgramBuilder().bcast(7777, 1).build());
  }
  Simulation sim(std::move(config));
  MpiRuntime mpi(sim);
  sim.setMpiService(&mpi);
  sim.run();

  bool sawEntry = false;
  for (const std::string& path : sim.traceFilePaths()) {
    TraceFileReader reader(path);
    while (const auto ev = reader.next()) {
      if (ev->type != EventType::kMpiBcast ||
          (ev->flags & kFlagBegin) == 0) {
        continue;
      }
      ByteReader pr = ev->payloadReader();
      EXPECT_EQ(pr.u32(), 7777u);  // bytes
      EXPECT_EQ(pr.i32(), 1);      // root
      EXPECT_EQ(pr.i32(), 0);      // comm
      sawEntry = true;
    }
  }
  EXPECT_TRUE(sawEntry);
}

}  // namespace
}  // namespace ute
