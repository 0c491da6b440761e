#include "mpisim/mpi_runtime.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

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
  config.clockDaemon.periodNs = 100 * kMs;
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

struct RunResult {
  Tick finishNs = 0;
  MpiRuntimeStats stats;
  std::vector<std::string> traceFiles;
};

RunResult run(SimulationConfig config) {
  Simulation sim(std::move(config));
  MpiRuntime mpi(sim);
  sim.setMpiService(&mpi);
  sim.run();
  return {sim.finishTimeNs(), mpi.stats(), sim.traceFilePaths()};
}

TEST(MpiRuntime, BlockingSendRecvDeliversOnce) {
  SimulationConfig config = clusterOf("mpi_sendrecv", 2, 1);
  addTask(config, 0, ProgramBuilder().send(1, 42, 1024).build());
  addTask(config, 1, ProgramBuilder().recv(0, 42).build());
  const RunResult r = run(std::move(config));
  EXPECT_EQ(r.stats.sends, 1u);
  EXPECT_EQ(r.stats.recvs, 1u);
  EXPECT_EQ(r.stats.bytesSent, 1024u);
  EXPECT_EQ(r.stats.postedMatches + r.stats.unexpectedMatches, 1u);
}

TEST(MpiRuntime, RecvBlocksUntilMessageArrives) {
  // Receiver posts immediately; sender computes 50 ms first. The receive
  // cannot complete before the send happens.
  SimulationConfig config = clusterOf("mpi_block", 2, 1);
  addTask(config, 0,
          ProgramBuilder().compute(50 * kMs).send(1, 0, 64).build());
  addTask(config, 1, ProgramBuilder().recv(0, 0).build());
  const RunResult r = run(std::move(config));
  EXPECT_GE(r.finishNs, 50 * kMs);
  EXPECT_EQ(r.stats.postedMatches, 1u);   // the recv was waiting
  EXPECT_EQ(r.stats.unexpectedMatches, 0u);
}

TEST(MpiRuntime, UnexpectedMessageQueueHoldsEarlySends) {
  // Sender fires immediately; receiver only posts after 50 ms.
  SimulationConfig config = clusterOf("mpi_unexpected", 2, 1);
  addTask(config, 0, ProgramBuilder().send(1, 5, 256).build());
  addTask(config, 1,
          ProgramBuilder().compute(50 * kMs).recv(0, 5).build());
  const RunResult r = run(std::move(config));
  EXPECT_EQ(r.stats.unexpectedMatches, 1u);
  EXPECT_EQ(r.stats.postedMatches, 0u);
}

TEST(MpiRuntime, TagsMustMatch) {
  // Two messages with different tags; receiver asks for the later-sent
  // tag first — ordering by tags, not arrival.
  SimulationConfig config = clusterOf("mpi_tags", 2, 1);
  addTask(config, 0,
          ProgramBuilder().send(1, 1, 111).send(1, 2, 222).build());
  {
    ProgramBuilder b;
    b.compute(20 * kMs);  // let both arrive
    b.recv(0, 2);
    b.recv(0, 1);
    addTask(config, 1, b.build());
  }
  const RunResult r = run(std::move(config));
  EXPECT_EQ(r.stats.recvs, 2u);
  EXPECT_EQ(r.stats.unexpectedMatches, 2u);
}

TEST(MpiRuntime, AnySourceMatchesFirstArrival) {
  SimulationConfig config = clusterOf("mpi_anysrc", 3, 1);
  addTask(config, 0, ProgramBuilder().compute(30 * kMs).send(2, 9, 10).build());
  addTask(config, 1, ProgramBuilder().send(2, 9, 20).build());
  {
    ProgramBuilder b;
    b.recv(kAnySource, 9);
    b.recv(kAnySource, 9);
    addTask(config, 2, b.build());
  }
  const RunResult r = run(std::move(config));
  EXPECT_EQ(r.stats.recvs, 2u);
}

TEST(MpiRuntime, IsendIrecvWaitCompletes) {
  SimulationConfig config = clusterOf("mpi_nonblocking", 2, 1);
  {
    ProgramBuilder b;
    const auto req = b.isend(1, 3, 2048);
    b.compute(5 * kMs);  // overlap communication with computation
    b.wait(req);
    addTask(config, 0, b.build());
  }
  {
    ProgramBuilder b;
    const auto req = b.irecv(0, 3);
    b.compute(1 * kMs);
    b.wait(req);
    addTask(config, 1, b.build());
  }
  const RunResult r = run(std::move(config));
  EXPECT_EQ(r.stats.sends, 1u);
  EXPECT_EQ(r.stats.recvs, 1u);

  // The receiver's Wait exit record carries the message's result fields.
  TraceFileReader reader(r.traceFiles[1]);
  bool sawWaitExit = false;
  while (const auto ev = reader.next()) {
    if (ev->type == EventType::kMpiWait && (ev->flags & kFlagEnd) != 0 &&
        ev->payload.size() == 16) {
      ByteReader pr = ev->payloadReader();
      EXPECT_EQ(pr.i32(), 0);       // srcTask
      EXPECT_EQ(pr.i32(), 3);       // tag
      EXPECT_EQ(pr.u32(), 2048u);   // bytes
      EXPECT_GT(pr.u32(), 0u);      // seqno
      sawWaitExit = true;
    }
  }
  EXPECT_TRUE(sawWaitExit);
}

TEST(MpiRuntime, BarrierSynchronizesAllTasks) {
  // Task 0 computes 40 ms before the barrier; the fast task cannot leave
  // the barrier earlier.
  SimulationConfig config = clusterOf("mpi_barrier", 2, 1);
  addTask(config, 0,
          ProgramBuilder().compute(40 * kMs).barrier().build());
  addTask(config, 1,
          ProgramBuilder().barrier().compute(1 * kMs).build());
  const RunResult r = run(std::move(config));
  EXPECT_GE(r.finishNs, 41 * kMs);
  EXPECT_EQ(r.stats.collectives, 2u);  // both tasks' barrier calls
}

TEST(MpiRuntime, CollectiveKindMismatchDetected) {
  SimulationConfig config = clusterOf("mpi_mismatch", 2, 1);
  addTask(config, 0, ProgramBuilder().barrier().build());
  addTask(config, 1, ProgramBuilder().allreduce(8).build());
  Simulation sim(std::move(config));
  MpiRuntime mpi(sim);
  sim.setMpiService(&mpi);
  EXPECT_THROW(sim.run(), UsageError);
}

TEST(MpiRuntime, DeadlockDetectedAtDrain) {
  // A receive that can never match: the engine drains and the simulation
  // reports which thread is stuck.
  SimulationConfig config = clusterOf("mpi_deadlock", 2, 1);
  addTask(config, 0, ProgramBuilder().recv(1, 0).build());
  addTask(config, 1, ProgramBuilder().compute(kMs).build());
  Simulation sim(std::move(config));
  MpiRuntime mpi(sim);
  sim.setMpiService(&mpi);
  EXPECT_THROW(sim.run(), UsageError);
}

TEST(MpiRuntime, SequenceNumbersAreUniqueAndMatchable) {
  SimulationConfig config = clusterOf("mpi_seqno", 2, 1);
  {
    ProgramBuilder b;
    b.loop(10);
    b.send(1, 0, 100);
    b.endLoop();
    addTask(config, 0, b.build());
  }
  {
    ProgramBuilder b;
    b.loop(10);
    b.recv(0, 0);
    b.endLoop();
    addTask(config, 1, b.build());
  }
  const RunResult r = run(std::move(config));

  std::map<std::uint32_t, int> sendSeqnos;
  std::map<std::uint32_t, int> recvSeqnos;
  for (const std::string& path : r.traceFiles) {
    TraceFileReader reader(path);
    while (const auto ev = reader.next()) {
      if (ev->type == EventType::kMpiSend && (ev->flags & kFlagBegin) != 0) {
        ByteReader pr = ev->payloadReader();
        pr.i32();
        pr.i32();
        pr.u32();
        ++sendSeqnos[pr.u32()];
      }
      if (ev->type == EventType::kMpiRecv && (ev->flags & kFlagEnd) != 0) {
        ByteReader pr = ev->payloadReader();
        pr.i32();
        pr.i32();
        pr.u32();
        ++recvSeqnos[pr.u32()];
      }
    }
  }
  EXPECT_EQ(sendSeqnos.size(), 10u);
  // Every receive names exactly one send's sequence number.
  EXPECT_EQ(recvSeqnos, sendSeqnos);
  for (const auto& [seqno, count] : sendSeqnos) EXPECT_EQ(count, 1);
}

TEST(MpiRuntime, SameNodeMessagingIsFaster) {
  // Two tasks on one node vs two tasks on two nodes, same program.
  const auto elapsed = [](int nodes) {
    SimulationConfig config = clusterOf(
        nodes == 1 ? "mpi_shm" : "mpi_switch", nodes, 2);
    const NodeId nodeB = nodes == 1 ? 0 : 1;
    ProgramBuilder a;
    a.loop(50);
    a.send(1, 0, 64 * 1024);
    a.endLoop();
    SimulationConfig c2 = std::move(config);
    addTask(c2, 0, a.build());
    ProgramBuilder b;
    b.loop(50);
    b.recv(0, 0);
    b.endLoop();
    addTask(c2, nodeB, b.build());
    return run(std::move(c2)).finishNs;
  };
  EXPECT_LT(elapsed(1), elapsed(2));
}

TEST(MpiRuntime, CollectiveCostGrowsWithMessageSize) {
  const auto elapsed = [](std::uint32_t bytes) {
    SimulationConfig config =
        clusterOf("mpi_coll" + std::to_string(bytes), 2, 1);
    for (int t = 0; t < 2; ++t) {
      ProgramBuilder b;
      b.loop(20);
      b.allreduce(bytes);
      b.endLoop();
      addTask(config, t, b.build());
    }
    return run(std::move(config)).finishNs;
  };
  EXPECT_LT(elapsed(8), elapsed(1 << 20));
}

}  // namespace
}  // namespace ute
