// Federation concurrency stress, for `ctest -L stress` (ideally in a
// -DUTE_SANITIZE=thread build alongside the other stress targets).
//
// Concurrent clients hammer a router whose background health thread is
// live while one backend flaps — killed and restarted on its fixed port
// in a loop. The invariants under fire:
//   - queries for traces replicated on the stable backend never surface
//     an error (failover absorbs the flapping);
//   - every successful reply is byte-identical to a direct query
//     against the stable backend;
//   - the router survives the churn: registry mutations, circuit
//     transitions, cache fills and pooled connections all race here,
//     which is exactly what TSan is pointed at.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fed/router_server.h"
#include "interval/standard_profile.h"
#include "server/client.h"
#include "server/server.h"
#include "slog/slog_writer.h"
#include "trace/events.h"

#include <unistd.h>

namespace ute {
namespace {

std::string tempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

std::string writeSlog(const std::string& name, int records) {
  const std::string path = tempPath(name);
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.recordsPerFrame = 48;
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {{2, "compute"}});
  for (int i = 0; i < records; ++i) {
    ByteWriter extra;
    extra.u64(static_cast<Tick>(i) * kMs);
    w.addRecord(RecordView::parse(
        encodeRecordBody(makeIntervalType(kRunningState, Bebits::kComplete),
                         static_cast<Tick>(i) * kMs, kMs / 2, 0, i % 2, 0,
                         extra.view())
            .view()));
  }
  w.close();
  return path;
}

TEST(RouterStress, ConcurrentClientsSurviveAFlappingBackend) {
  // One trace file served by BOTH backends: the stable one and the
  // flapper. Every query has a live replica at all times.
  const std::string path = writeSlog("fed_stress.slog", 240);
  TraceServer stable({path});
  auto flapper = std::make_unique<TraceServer>(std::vector<std::string>{path});
  const std::uint16_t flapperPort = flapper->port();

  RouterOptions options;
  BackendSpec b1, b2;
  b1.name = "stable";
  b1.host = "127.0.0.1";
  b1.port = stable.port();
  b2.name = "flapper";
  b2.host = "127.0.0.1";
  b2.port = flapperPort;
  options.backends = {b1, b2};
  options.healthIntervalMs = 40;  // the background prober races the flaps
  options.registry.client.retries = 2;
  options.registry.client.backoffBaseMs = 5;
  options.registry.client.backoffMaxMs = 25;
  options.cacheBytes = 1u << 20;  // small: exercise eviction under load
  options.registry.circuit.failureThreshold = 1;
  options.registry.circuit.cooldownBaseMs = 20;
  options.registry.circuit.cooldownMaxMs = 100;
  RouterService service(options);
  RouterServer router(service, 0);

  const std::vector<FedTraceEntry> entries = [&] {
    TraceClient c("127.0.0.1", router.port());
    return c.listTraces();
  }();
  ASSERT_EQ(entries.size(), 2u);

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> completed{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      try {
        TraceClient client("127.0.0.1", router.port());
        TraceClient direct("127.0.0.1", stable.port());
        int i = 0;
        while (!stop.load()) {
          const FedTraceEntry& entry = entries[(c + i) % entries.size()];
          WindowQuery q;
          q.t0 = static_cast<Tick>((c * 17 + i * 29) % 150) * kMs;
          q.t1 = q.t0 + static_cast<Tick>(10 + (i * 7) % 60) * kMs;
          const ByteWriter viaRouter =
              encodeWindowRequest(entry.globalId, q);
          const ByteWriter viaDirect = encodeWindowRequest(0, q);
          if (client.roundTrip(viaRouter.view()) !=
              direct.roundTrip(viaDirect.view())) {
            ++mismatches;
          }
          if (i % 5 == 0) {
            if (client.info(entry.globalId).path != path) ++mismatches;
          }
          ++completed;
          ++i;
        }
      } catch (const std::exception&) {
        ++errors;
      }
    });
  }

  // The flapper: kill, breathe, restart on the same port, repeat.
  std::thread flapThread([&] {
    for (int cycle = 0; cycle < 4 && !stop.load(); ++cycle) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
      flapper.reset();
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
      ServerOptions restart;
      restart.port = flapperPort;
      flapper = std::make_unique<TraceServer>(
          std::vector<std::string>{path}, restart);
    }
  });

  flapThread.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(completed.load(), 0);

  // The fleet settles: a forced sweep closes both circuits again.
  service.probeNow();
  EXPECT_EQ(service.registry().circuitState("stable"),
            CircuitBreaker::State::kClosed);
  EXPECT_EQ(service.registry().circuitState("flapper"),
            CircuitBreaker::State::kClosed);
  router.stop();
  service.stop();
}

TEST(RouterStress, AdminChurnRacesTraffic) {
  // Runtime add/remove of a backend while clients query the stable one:
  // registry mutation (ring rebuilds, row erasure, pool teardown) races
  // the proxy path's borrow/giveBack and the health thread's sweeps.
  const std::string pathA = writeSlog("fed_stress_a.slog", 200);
  const std::string pathB = writeSlog("fed_stress_b.slog", 160);
  TraceServer stable({pathA});
  TraceServer churned({pathB});

  RouterOptions options;
  BackendSpec b1;
  b1.name = "stable";
  b1.host = "127.0.0.1";
  b1.port = stable.port();
  options.backends = {b1};
  options.healthIntervalMs = 30;
  options.registry.client.retries = 1;
  options.registry.client.backoffBaseMs = 5;
  options.registry.client.backoffMaxMs = 20;
  options.registry.circuit.failureThreshold = 1;
  RouterService service(options);
  RouterServer router(service, 0);

  const std::uint32_t stableGid = [&] {
    TraceClient c("127.0.0.1", router.port());
    return c.listTraces().at(0).globalId;
  }();

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      try {
        TraceClient client("127.0.0.1", router.port());
        while (!stop.load()) {
          if (client.info(stableGid).path != pathA) ++errors;
        }
      } catch (const std::exception&) {
        ++errors;
      }
    });
  }

  {
    TraceClient admin("127.0.0.1", router.port());
    const std::string hostPort =
        "127.0.0.1:" + std::to_string(churned.port());
    for (int i = 0; i < 10; ++i) {
      admin.addBackend("churn", hostPort);
      EXPECT_EQ(admin.listTraces().size(), 2u);
      admin.removeBackend("churn");
    }
  }

  stop.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(service.registry().backendNames(),
            std::vector<std::string>{"stable"});
  router.stop();
  service.stop();
}

}  // namespace
}  // namespace ute
