#include <gtest/gtest.h>

#include <filesystem>

#include "trace/reader.h"
#include "trace/writer.h"
#include "temp_dir.h"

namespace ute {
namespace {

TraceOptions optionsFor(const std::string& name) {
  TraceOptions o;
  o.filePrefix = tempPath(name);
  return o;
}

TEST(TraceRoundTrip, BasicEventsSurvive) {
  const TraceOptions options = optionsFor("trace_rt_basic");
  {
    TraceSession session(options, /*node=*/3, /*cpuCount=*/4);
    session.cut(EventType::kThreadDispatch, 0, 1, 5, 1000,
                payloadThreadDispatch(-1, 5));
    session.cut(EventType::kMpiSend, kFlagBegin, 1, 5, 2000,
                payloadMpiSend(2, 17, 4096, 9, 0));
    session.cut(EventType::kMpiSend, kFlagEnd, 1, 5, 2500, ByteWriter{});
    session.close();
  }
  TraceFileReader reader(TraceSession::traceFilePath(options.filePrefix, 3));
  EXPECT_EQ(reader.node(), 3);
  EXPECT_EQ(reader.cpuCount(), 4);

  auto ev = reader.next();
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->type, EventType::kNodeInfo);  // cut by the session itself

  ev = reader.next();
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->type, EventType::kThreadDispatch);
  EXPECT_EQ(ev->localTs, 1000u);
  EXPECT_EQ(ev->cpu, 1);
  EXPECT_EQ(ev->ltid, 5);

  ev = reader.next();
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->type, EventType::kMpiSend);
  EXPECT_EQ(ev->flags, kFlagBegin);
  ByteReader payload = ev->payloadReader();
  EXPECT_EQ(payload.i32(), 2);     // dest
  EXPECT_EQ(payload.i32(), 17);    // tag
  EXPECT_EQ(payload.u32(), 4096u); // bytes
  EXPECT_EQ(payload.u32(), 9u);    // seqno
  EXPECT_EQ(payload.i32(), 0);     // comm

  ev = reader.next();
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->flags, kFlagEnd);
  EXPECT_FALSE(reader.next());
}

TEST(TraceRoundTrip, TimestampWrapReconstructs64Bits) {
  // Timestamps straddling several 2^32 ns (~4.29 s) boundaries: the
  // on-disk word is 32 bits, wrap records restore the full value.
  const TraceOptions options = optionsFor("trace_rt_wrap");
  const Tick wrap = Tick{1} << 32;
  const std::vector<Tick> stamps = {100,         wrap - 1, wrap,
                                    wrap + 5000, 3 * wrap, 3 * wrap + 7};
  {
    TraceSession session(options, 0, 1);
    for (Tick ts : stamps) {
      session.cut(EventType::kUserMarker, kFlagBegin, 0, 0, ts,
                  payloadUserMarker(1, 0));
    }
    EXPECT_GE(session.stats().wrapRecords, 2u);
    session.close();
  }
  TraceFileReader reader(TraceSession::traceFilePath(options.filePrefix, 0));
  reader.next();  // NodeInfo
  for (Tick expected : stamps) {
    const auto ev = reader.next();
    ASSERT_TRUE(ev);
    EXPECT_EQ(ev->localTs, expected);
  }
  EXPECT_FALSE(reader.next());
}

TEST(TraceRoundTrip, ExtendedPayloadLength) {
  const TraceOptions options = optionsFor("trace_rt_extended");
  const std::string longName(1000, 'm');
  {
    TraceSession session(options, 0, 1);
    session.cut(EventType::kMarkerDef, 0, 0, 0, 10,
                payloadMarkerDef(42, longName));
    session.close();
  }
  TraceFileReader reader(TraceSession::traceFilePath(options.filePrefix, 0));
  reader.next();  // NodeInfo
  const auto ev = reader.next();
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->type, EventType::kMarkerDef);
  ByteReader payload = ev->payloadReader();
  EXPECT_EQ(payload.u32(), 42u);
  EXPECT_EQ(payload.lstring(), longName);
}

TEST(TraceSession, NonMonotonicTimestampRejected) {
  const TraceOptions options = optionsFor("trace_rt_monotonic");
  TraceSession session(options, 0, 1);
  session.cut(EventType::kUserMarker, kFlagBegin, 0, 0, 100,
              payloadUserMarker(1, 0));
  EXPECT_THROW(session.cut(EventType::kUserMarker, kFlagEnd, 0, 0, 99,
                           payloadUserMarker(1, 0)),
               UsageError);
}

TEST(TraceSession, ClassMaskSuppressesEvents) {
  TraceOptions options = optionsFor("trace_rt_mask");
  options.enabledClasses = TraceOptions::classBit(EventClass::kMpi);
  {
    TraceSession session(options, 0, 1);
    session.cut(EventType::kThreadDispatch, 0, 0, 0, 10,
                payloadThreadDispatch(-1, 0));  // dispatch class: suppressed
    session.cut(EventType::kMpiSend, kFlagBegin, 0, 0, 20,
                payloadMpiSend(1, 0, 8, 1, 0));  // MPI class: kept
    session.cut(EventType::kGlobalClock, 0, 0, 0, 30,
                payloadGlobalClock(30, 30));  // clock class: suppressed
    EXPECT_EQ(session.stats().eventsSuppressed, 2u);
    session.close();
  }
  TraceFileReader reader(TraceSession::traceFilePath(options.filePrefix, 0));
  reader.next();  // NodeInfo (control, always cut)
  const auto ev = reader.next();
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->type, EventType::kMpiSend);
  EXPECT_FALSE(reader.next());
}

TEST(TraceSession, DelayedStartTracesOnlyASection) {
  TraceOptions options = optionsFor("trace_rt_delayed");
  options.startEnabled = false;  // Section 2.1: delay trace generation
  {
    TraceSession session(options, 0, 1);
    session.cut(EventType::kUserMarker, kFlagBegin, 0, 0, 10,
                payloadUserMarker(1, 0));  // before traceOn: dropped
    session.traceOn();
    session.cut(EventType::kUserMarker, kFlagEnd, 0, 0, 20,
                payloadUserMarker(1, 0));
    session.traceOff();
    session.cut(EventType::kUserMarker, kFlagBegin, 0, 0, 30,
                payloadUserMarker(2, 0));  // after traceOff: dropped
    session.close();
  }
  TraceFileReader reader(TraceSession::traceFilePath(options.filePrefix, 0));
  reader.next();  // NodeInfo
  const auto ev = reader.next();
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->localTs, 20u);
  EXPECT_FALSE(reader.next());
}

TEST(TraceSession, BufferFlushesWhenFull) {
  TraceOptions options = optionsFor("trace_rt_flush");
  options.bufferSizeBytes = 4096;  // minimum
  {
    TraceSession session(options, 0, 1);
    for (int i = 0; i < 2000; ++i) {
      session.cut(EventType::kUserMarker, kFlagBegin, 0, 0,
                  static_cast<Tick>(i), payloadUserMarker(1, 0));
    }
    EXPECT_GT(session.stats().bufferFlushes, 5u);
    session.close();
  }
  TraceFileReader reader(TraceSession::traceFilePath(options.filePrefix, 0));
  std::uint64_t count = 0;
  while (reader.next()) ++count;
  EXPECT_EQ(count, 2001u);  // 2000 markers + NodeInfo
}

TEST(TraceSession, StatsCountEventsAndBytes) {
  const TraceOptions options = optionsFor("trace_rt_stats");
  TraceSession session(options, 0, 2);
  session.cut(EventType::kUserMarker, kFlagBegin, 0, 0, 5,
              payloadUserMarker(3, 0xabc));
  const TraceSessionStats& s = session.stats();
  EXPECT_EQ(s.eventsCut, 2u);  // NodeInfo + marker
  EXPECT_EQ(s.eventsSuppressed, 0u);
  session.close();
}

// One raw record, encoded here rather than through the writer: the
// hookword (type, flags, length byte), the low timestamp word, the context
// word (cpu, 16-bit thread id), the u16 length when it does not fit the
// length byte, then the payload.
void putRawRecord(ByteWriter& w, EventType type, std::uint8_t flags,
                  CpuId cpu, LogicalThreadId ltid, Tick ts,
                  std::span<const std::uint8_t> payload) {
  const bool extended = payload.size() > 254;
  const std::uint32_t length = extended ? 0xff : payload.size();
  w.u32(static_cast<std::uint32_t>(type) << 16 |
        static_cast<std::uint32_t>(flags) << 8 | length);
  w.u32(static_cast<std::uint32_t>(ts));
  w.u32(static_cast<std::uint32_t>(cpu) << 16 |
        (static_cast<std::uint32_t>(ltid) & 0xffff));
  if (extended) w.u16(static_cast<std::uint16_t>(payload.size()));
  w.bytes(payload);
}

TEST(TraceSession, RecordsStraddlingBlockEdgesKeepBytesAndStats) {
  // Payload sizes that put records across the writer's 64 KiB block
  // edges, longest first: a 65,535-byte payload spills whatever block it
  // starts in.
  const std::vector<std::size_t> sizes = {
      65535, 1, 254, 255, 40000, 65535, 0, 30000, 65535, 12, 65535, 7};
  for (const std::size_t bufferSize :
       {std::size_t{4096}, std::size_t{100'000}, std::size_t{1} << 20}) {
    SCOPED_TRACE("bufferSizeBytes " + std::to_string(bufferSize));
    TraceOptions options = optionsFor("trace_rt_blocks");
    options.bufferSizeBytes = bufferSize;

    ByteWriter expected;
    expected.u32(0x52455455);  // "UTER"
    expected.u32(1);           // raw format version
    expected.i32(2);           // node
    expected.i32(4);           // cpu count
    TraceSessionStats expectedStats;
    expectedStats.bytesWritten = expected.size();
    std::size_t buffered = 0;
    const auto cutExpected = [&](EventType type, std::uint8_t flags,
                                 CpuId cpu, LogicalThreadId ltid, Tick ts,
                                 std::span<const std::uint8_t> payload) {
      const std::size_t before = expected.size();
      putRawRecord(expected, type, flags, cpu, ltid, ts, payload);
      const std::size_t record = expected.size() - before;
      if (buffered > 0 && buffered + record > bufferSize) {
        ++expectedStats.bufferFlushes;
        buffered = 0;
      }
      buffered += record;
      expectedStats.bytesWritten += record;
      ++expectedStats.eventsCut;
    };
    const std::vector<std::uint8_t> nodeInfo =
        payloadNodeInfo(2, 4).take();
    cutExpected(EventType::kNodeInfo, 0, 0, -1, 0, nodeInfo);

    TraceSessionStats stats;
    {
      TraceSession session(options, /*node=*/2, /*cpuCount=*/4);
      Tick ts = 10;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::vector<std::uint8_t> payload(sizes[i]);
        for (std::size_t j = 0; j < payload.size(); ++j) {
          payload[j] = static_cast<std::uint8_t>(j * 131 + i);
        }
        const auto cpu = static_cast<CpuId>(i % 4);
        const auto ltid = static_cast<LogicalThreadId>(i);
        session.cut(EventType::kUserMarker, kFlagBegin, cpu, ltid, ts,
                    payload);
        cutExpected(EventType::kUserMarker, kFlagBegin, cpu, ltid, ts,
                    payload);
        ts += 1000;
      }
      session.close();
      stats = session.stats();
    }
    if (buffered > 0) ++expectedStats.bufferFlushes;

    const std::vector<std::uint8_t> file =
        readWholeFile(TraceSession::traceFilePath(options.filePrefix, 2));
    EXPECT_TRUE(file == expected.take()) << "raw bytes differ";
    EXPECT_EQ(stats.eventsCut, expectedStats.eventsCut);
    EXPECT_EQ(stats.eventsSuppressed, 0u);
    EXPECT_EQ(stats.bytesWritten, expectedStats.bytesWritten);
    EXPECT_EQ(stats.bufferFlushes, expectedStats.bufferFlushes);
    EXPECT_EQ(stats.wrapRecords, 0u);
  }
}

TEST(TraceReader, RejectsGarbageFile) {
  const std::string path = tempPath("trace_rt_garbage.utr");
  writeWholeFile(path, std::string("not a trace file at all, sorry"));
  EXPECT_THROW(TraceFileReader reader(path), FormatError);
}

}  // namespace
}  // namespace ute
