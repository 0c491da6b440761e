#include "merge/merger.h"

#include <algorithm>
#include <memory>

#include "interval/standard_profile.h"
#include "stream/stream_merger.h"
#include "support/errors.h"
#include "support/thread_pool.h"

namespace ute {

namespace {

/// One input interval file, opened once: its reader serves pass 1's
/// clock scan and pass 2's in-order record stream.
struct InputFile {
  explicit InputFile(const std::string& path) : reader(path), stream(reader) {}

  IntervalFileReader reader;
  IntervalFileReader::RecordStream stream;
};

/// Extracts the (global, local) timestamp pairs from a per-node interval
/// file's ClockSync records (first pass of the merge).
std::vector<TimestampPair> collectClockPairs(const IntervalFileReader& reader) {
  std::vector<TimestampPair> pairs;
  auto records = reader.records();
  RecordView view;
  while (records.next(view)) {
    if (view.eventType() != kClockSyncState) continue;
    if (view.body.size() < kCommonPrefixBytes + 8) {
      throw FormatError("short ClockSync record in " + reader.path());
    }
    TimestampPair p;
    p.local = view.start;
    std::uint64_t g = 0;
    for (int i = 0; i < 8; ++i) {
      g |= static_cast<std::uint64_t>(view.body[kCommonPrefixBytes + i])
           << (8 * i);
    }
    p.global = g;
    pairs.push_back(p);
  }
  return pairs;
}

}  // namespace

IntervalMerger::IntervalMerger(std::vector<std::string> inputPaths,
                               const Profile& profile, MergeOptions options)
    : inputPaths_(std::move(inputPaths)), profile_(profile),
      options_(options) {
  if (inputPaths_.empty()) {
    throw UsageError("merge needs at least one input file");
  }
}

MergeResult IntervalMerger::mergeTo(const std::string& outPath,
                                    const RecordSink& sink) {
  MergeResult result;
  result.outputPath = outPath;

  // The batch merge is the streaming merge driven to completion: feed
  // the resumable StreamMerger (src/stream) file records in order with
  // the final clock fits, and the tournament selection, timestamp
  // adjustment, pseudo-record injection and output framing all happen in
  // one shared code path — which is what guarantees the streamed and
  // batch pipelines stay byte-identical (docs/STREAMING.md).
  StreamMerger merger(profile_, options_);

  // Pass 1: thread tables, markers, clock pairs. Metadata merging stays
  // sequential (cheap, order-sensitive validation); the per-input clock
  // scans — a full pass over each file — fan out across the pool below.
  const std::size_t jobs =
      std::min(effectiveJobs(options_.jobs), inputPaths_.size());
  std::vector<std::unique_ptr<InputFile>> inputs;
  for (const std::string& path : inputPaths_) {
    auto input = std::make_unique<InputFile>(path);
    input->reader.checkProfile(profile_);
    const std::size_t idx = merger.addInput();
    merger.setThreads(idx, input->reader.threads());
    for (const auto& [id, name] : input->reader.markers()) {
      merger.addMarker(id, name);
    }
    result.recordsIn += input->reader.header().totalRecords;
    inputs.push_back(std::move(input));
  }

  std::vector<std::vector<TimestampPair>> pairs(inputs.size());
  parallelFor(jobs, inputs.size(), [&](std::size_t i) {
    pairs[i] = collectClockPairs(inputs[i]->reader);
  });
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    merger.setClockPairs(i, pairs[i], /*final=*/true);
  }

  merger.openOutput(outPath, sink);

  // Pass 2: drive the state machine to completion. The merge stalls only
  // on the input at the tree's root once its lookahead drains, so each
  // step feeds (or closes) exactly that input: one record in flight per
  // input, and no scan over the k inputs per record.
  RecordView raw;
  for (merger.advance(); auto i = merger.waitingOn(); merger.advance()) {
    if (inputs[*i]->stream.next(raw)) {
      merger.addRecord(*i, raw.body);
    } else {
      merger.closeInput(*i);
    }
  }
  const StreamMergeResult streamed = merger.finish();

  result.recordsOut = streamed.recordsOut;
  result.pseudoRecords = streamed.pseudoRecords;
  result.ratios = streamed.ratios;
  return result;
}

}  // namespace ute
