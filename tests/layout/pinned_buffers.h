// The byte layouts the layout tests pin: one message or file per
// encoder, each built from fixed inputs (so the same code always yields
// the same bytes) and paired with the decoder its receiver runs on it.
//
// layout_digest_test.cpp compares an FNV-1a-64 digest of every buffer
// against constants recorded when the layouts were frozen, so a change
// that alters a layout on both the writing and the reading side still
// fails. mutation_test.cpp feeds damaged copies of the same buffers to
// their decoders.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "server/trace_service.h"

namespace ute::layout {

struct Pinned {
  std::string name;
  std::vector<std::uint8_t> bytes;
  /// What the receiving side runs on these bytes. Malformed input must
  /// end in a typed error (FormatError, ServiceError, IngestError or
  /// UsageError) and nothing else.
  std::function<void(std::span<const std::uint8_t>)> decode;
};

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

/// tests/data/golden_v2.slog in the source tree.
std::string goldenV2Path();

/// Every query request encoder; decoded by processRequest against a
/// service over golden_v2.slog. An error reply counts as a refusal
/// (ServiceError), except kInternal, which reports a server failure.
std::vector<Pinned> queryRequests();

/// Every reply processRequest gives for golden_v2.slog on one
/// connection, in the order a client would ask. `columnar` picks the
/// hello that negotiates columnar frames instead of row frames. The
/// info reply carries the trace's path; it is pinned with the path
/// replaced by the file's base name so the bytes do not depend on
/// where the source tree lives.
std::vector<Pinned> queryReplies(bool columnar);

/// The federation reply encoders: list, aggregate and compare.
std::vector<Pinned> fedReplies();

/// Every ingest message encoder, and both reply forms.
std::vector<Pinned> ingestMessages();

/// Files: a SLOG v1 file written from the golden record sequence, the
/// golden v2 file, and a per-node and a merged .uti file of a small
/// simulated run. Decoders write the bytes under `dir` and open and read
/// them with SlogReader or IntervalFileReader.
std::vector<Pinned> pinnedFiles(const std::string& dir);

}  // namespace ute::layout
