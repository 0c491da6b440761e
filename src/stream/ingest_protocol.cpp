#include "stream/ingest_protocol.h"

#include "support/errors.h"

namespace ute {

namespace {

/// Decoding wrapper: any ByteReader underrun in `body` becomes a
/// structured kBadRequest instead of a raw FormatError, so the session
/// loop can answer the client before dropping it.
template <typename Fn>
auto decodeGuard(const char* what, Fn&& body) -> decltype(body()) {
  try {
    return body();
  } catch (const IngestError&) {
    throw;
  } catch (const std::exception& e) {
    throw IngestError(IngestStatus::kBadRequest,
                      std::string("malformed ") + what + ": " + e.what());
  }
}

void expectOp(ByteReader& r, IngestOp op, const char* what) {
  const auto got = static_cast<IngestOp>(r.u8());
  if (got != op) {
    throw IngestError(IngestStatus::kBadRequest,
                      std::string("expected ") + what + " message");
  }
}

}  // namespace

const char* ingestStatusName(IngestStatus status) {
  switch (status) {
    case IngestStatus::kOk: return "ok";
    case IngestStatus::kBadVersion: return "bad version";
    case IngestStatus::kBadRequest: return "bad request";
    case IngestStatus::kUnknownNode: return "unknown node";
    case IngestStatus::kShuttingDown: return "shutting down";
  }
  return "unknown status";
}

ByteWriter encodeIngestHello(NodeId node) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(IngestOp::kHello));
  w.u32(kIngestMagic);
  w.u16(kIngestVersion);
  w.i32(node);
  w.u8(0);  // flags, reserved
  return w;
}

ByteWriter encodeIngestThreads(const std::vector<ThreadEntry>& threads) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(IngestOp::kThreads));
  w.u32(static_cast<std::uint32_t>(threads.size()));
  for (const ThreadEntry& t : threads) putThreadEntry(w, t);
  return w;
}

ByteWriter encodeIngestMarker(std::uint32_t id, const std::string& name) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(IngestOp::kMarker));
  putMarker(w, id, name);
  return w;
}

ByteWriter encodeIngestClockPairs(std::span<const TimestampPair> pairs,
                                  bool final) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(IngestOp::kClockPairs));
  w.u8(final ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(pairs.size()));
  for (const TimestampPair& p : pairs) {
    w.u64(p.global);
    w.u64(p.local);
  }
  return w;
}

ByteWriter encodeIngestRecords(
    const std::vector<std::vector<std::uint8_t>>& bodies) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(IngestOp::kRecords));
  w.u32(static_cast<std::uint32_t>(bodies.size()));
  for (const auto& body : bodies) {
    w.u32(static_cast<std::uint32_t>(body.size()));
    w.bytes(body);
  }
  return w;
}

ByteWriter encodeIngestBye() {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(IngestOp::kBye));
  return w;
}

IngestOp peekIngestOp(std::span<const std::uint8_t> payload) {
  if (payload.empty()) {
    throw IngestError(IngestStatus::kBadRequest, "empty message");
  }
  return static_cast<IngestOp>(payload[0]);
}

IngestHello decodeIngestHello(std::span<const std::uint8_t> payload) {
  return decodeGuard("hello", [&] {
    ByteReader r(payload);
    expectOp(r, IngestOp::kHello, "hello");
    IngestHello hello;
    hello.magic = r.u32();
    hello.version = r.u16();
    hello.node = r.i32();
    hello.flags = r.u8();
    if (hello.magic != kIngestMagic) {
      throw IngestError(IngestStatus::kBadVersion,
                        "not an ingest hello (bad magic)");
    }
    if (hello.version != kIngestVersion) {
      throw IngestError(IngestStatus::kBadVersion,
                        "protocol version " + std::to_string(hello.version) +
                            " unsupported (want " +
                            std::to_string(kIngestVersion) + ")");
    }
    return hello;
  });
}

std::vector<ThreadEntry> decodeIngestThreads(
    std::span<const std::uint8_t> payload) {
  return decodeGuard("thread table", [&] {
    ByteReader r(payload);
    expectOp(r, IngestOp::kThreads, "thread table");
    const std::uint32_t count = takeCount(r, kThreadEntryBytes);
    std::vector<ThreadEntry> threads;
    threads.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      threads.push_back(takeThreadEntry(r));
    }
    return threads;
  });
}

std::pair<std::uint32_t, std::string> decodeIngestMarker(
    std::span<const std::uint8_t> payload) {
  return decodeGuard("marker", [&] {
    ByteReader r(payload);
    expectOp(r, IngestOp::kMarker, "marker");
    return takeMarker(r);
  });
}

IngestClockPairs decodeIngestClockPairs(
    std::span<const std::uint8_t> payload) {
  return decodeGuard("clock pairs", [&] {
    ByteReader r(payload);
    expectOp(r, IngestOp::kClockPairs, "clock pairs");
    IngestClockPairs out;
    out.final = r.u8() != 0;
    const std::uint32_t count = takeCount(r, 16);  // two u64 per pair
    out.pairs.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      TimestampPair p;
      p.global = r.u64();
      p.local = r.u64();
      out.pairs.push_back(p);
    }
    return out;
  });
}

std::vector<std::span<const std::uint8_t>> decodeIngestRecords(
    std::span<const std::uint8_t> payload) {
  return decodeGuard("record batch", [&] {
    ByteReader r(payload);
    expectOp(r, IngestOp::kRecords, "record batch");
    // Each record carries at least its u32 length.
    const std::uint32_t count = takeCount(r, 4);
    std::vector<std::span<const std::uint8_t>> bodies;
    bodies.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t len = r.u32();
      if (len > r.remaining()) {
        throw IngestError(IngestStatus::kBadRequest,
                          "record length overruns the batch");
      }
      bodies.push_back(r.bytes(len));
    }
    return bodies;
  });
}

std::vector<std::uint8_t> encodeIngestReply(IngestStatus status,
                                            const std::string& message) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(status));
  if (status != IngestStatus::kOk) w.lstring(message);
  const auto view = w.view();
  return {view.begin(), view.end()};
}

IngestStatus decodeIngestReply(std::span<const std::uint8_t> payload,
                               std::string* message) {
  ByteReader r(payload);
  const auto status = static_cast<IngestStatus>(r.u8());
  if (status != IngestStatus::kOk && message != nullptr) {
    *message = r.lstring();
  }
  return status;
}

}  // namespace ute
