// GetMetrics through every server layer: the TraceService's lazy cached
// computation, the protocol encode/dispatch/decode round trip, and a
// real TCP server answering a TraceClient with the exact bytes a local
// computeMetrics() produces for the same file.
#include <gtest/gtest.h>

#include <filesystem>

#include "analysis/metrics.h"
#include "interval/standard_profile.h"
#include "server/client.h"
#include "server/server.h"
#include "server/trace_service.h"
#include "slog/slog_writer.h"
#include "temp_dir.h"

namespace ute {
namespace {

std::string writeSlog(const std::string& name) {
  const std::string path = tempPath(name);
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.recordsPerFrame = 48;
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {});
  for (int i = 0; i < 500; ++i) {
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

TEST(MetricsService, LazyComputationIsCachedPerBinCount) {
  const std::string path = writeSlog("metrics_service.slog");
  TraceService service({path});

  const TraceService::MetricsBlob a = service.metrics(0);
  const TraceService::MetricsBlob b = service.metrics(0);
  // Second request for the same bin count returns the cached blob.
  EXPECT_EQ(a.get(), b.get());
  // A different bin count is its own cache entry...
  const TraceService::MetricsBlob c = service.metrics(0, 60);
  EXPECT_NE(a.get(), c.get());
  // ...and both match a direct local computation.
  SlogReader reader(path);
  MetricsOptions options;
  options.bins = kDefaultMetricsBins;
  EXPECT_EQ(*a, computeMetrics(reader, options).encode());
  options.bins = 60;
  EXPECT_EQ(*c, computeMetrics(reader, options).encode());

  // Computation went through the frame cache, not raw file reads.
  EXPECT_GT(service.cache().stats().entries, 0u);

  EXPECT_THROW(service.metrics(0, kMaxMetricsBins + 1), UsageError);
  EXPECT_THROW(service.metrics(7), UsageError);  // bad trace id
}

TEST(MetricsProtocol, DispatchAnswersGetMetrics) {
  const std::string path = writeSlog("metrics_dispatch.slog");
  TraceService service({path});

  const ByteWriter request = encodeMetricsRequest(0, 60);
  const RequestOutcome result = processRequest(service, request.view());
  const MetricsStore store = decodeMetricsReply(result.response);

  SlogReader reader(path);
  MetricsOptions options;
  options.bins = 60;
  EXPECT_EQ(store.encode(), computeMetrics(reader, options).encode());

  // Over-cap bin counts come back as a typed error frame.
  const RequestOutcome bad =
      processRequest(service, encodeMetricsRequest(0, kMaxMetricsBins + 1)
                                  .view());
  EXPECT_THROW(decodeMetricsReply(bad.response), ServiceError);
}

TEST(MetricsServer, ClientReceivesExactLocalBytes) {
  const std::string path = writeSlog("metrics_wire.slog");
  TraceServer server({path});
  ASSERT_NE(server.port(), 0);
  TraceClient client("127.0.0.1", server.port());

  const MetricsStore store = client.metrics(0, 97);
  SlogReader reader(path);
  MetricsOptions options;
  options.bins = 97;
  EXPECT_EQ(store.encode(), computeMetrics(reader, options).encode());
  ASSERT_EQ(store.taskCount(), 2u);
  std::uint64_t busy = 0;
  for (std::uint32_t b = 0; b < store.bins(); ++b) {
    busy += store.timeNs(StateClass::kBusy, b, 0) +
            store.timeNs(StateClass::kBusy, b, 1);
  }
  EXPECT_EQ(busy, 500u * (kMs / 2));
  server.stop();
}

}  // namespace
}  // namespace ute
