#include "merge/merger.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>

#include "interval/standard_profile.h"
#include "stream/stream_merger.h"
#include "support/channel.h"
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
    if (view.eventType() == kClockSyncState) {
      pairs.push_back(clockSyncPair(view));
    }
  }
  return pairs;
}

/// The record sink's own stage, beside the merge loop. The merge thread
/// copies each merged body, length-prefixed as in a frame, into a
/// fixed-capacity batch and sends full batches through a bounded
/// channel; one worker parses them back and calls the caller's sink in
/// output order, and a second channel hands the drained batches back for
/// reuse. At most kBatches batches exist, so about 1.5 MB is in flight
/// however far the merge runs ahead. The bodies carry every field of the
/// view, so the worker's parse restores it exactly.
///
/// An error on either side closes both channels and joins the worker:
/// the worker's error surfaces from the merge thread's next add() or
/// from finish(), and a merge-thread error unwinds through the
/// destructor.
class SinkStage {
 public:
  explicit SinkStage(const IntervalMerger::RecordSink& sink) : sink_(sink) {
    batch_ = newBatch();
    pool_.submit([this] { drain(); });
  }

  ~SinkStage() {
    full_.close();
    empty_.close();
    pool_.shutdown();
  }

  SinkStage(const SinkStage&) = delete;
  SinkStage& operator=(const SinkStage&) = delete;

  /// Merge thread: copies `record`'s body into the current batch.
  void add(const RecordView& record) {
    if (!batch_.empty() &&
        batch_.size() + recordSizeOnDisk(record.body.size()) > kBatchBytes) {
      sendBatch();
    }
    appendRecordWithLength(batch_, record.body);
  }

  /// Merge thread: sends the last batch, returns after the sink's last
  /// call, and rethrows the worker's error if it had one.
  void finish() {
    if (!batch_.empty()) sendBatch();
    full_.close();
    pool_.shutdown();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  static constexpr std::size_t kBatchBytes = 256 << 10;
  static constexpr std::size_t kQueueDepth = 4;
  /// One batch filling, kQueueDepth queued, one draining.
  static constexpr std::size_t kBatches = kQueueDepth + 2;

  using Batch = std::vector<std::uint8_t>;

  Batch newBatch() {
    ++batches_;
    Batch batch;
    batch.reserve(kBatchBytes);
    return batch;
  }

  void sendBatch() {
    if (!full_.send(std::move(batch_))) workerFailed();
    if (batches_ < kBatches) {
      batch_ = newBatch();
      return;
    }
    std::optional<Batch> reused = empty_.receive();
    if (!reused) workerFailed();
    batch_ = std::move(*reused);
  }

  /// A channel closed under the merge thread: only the worker's failure
  /// does that while the stage runs.
  [[noreturn]] void workerFailed() {
    pool_.shutdown();
    std::rethrow_exception(error_);
  }

  /// Worker: the sink's only caller while the stage runs.
  void drain() {
    try {
      while (std::optional<Batch> batch = full_.receive()) {
        ByteReader reader(*batch);
        while (!reader.atEnd()) {
          sink_(RecordView::parse(readLengthPrefixedRecord(reader)));
        }
        batch->clear();
        // Never blocks: the channel holds every batch there is.
        empty_.send(std::move(*batch));
      }
    } catch (...) {
      error_ = std::current_exception();
      full_.close();
      empty_.close();
    }
  }

  const IntervalMerger::RecordSink& sink_;
  Channel<Batch> full_{kQueueDepth};
  Channel<Batch> empty_{kBatches};
  Batch batch_;                 ///< merge thread: the batch being filled
  std::size_t batches_ = 0;     ///< merge thread: batches allocated
  std::exception_ptr error_;    ///< worker's; read after the join
  ThreadPool pool_{1};          ///< last: its worker uses the members above
};

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
                                    const RecordSink& sink,
                                    const OpenHook& onOpen) {
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

  // With jobs != 1 the sink runs on its own stage; the merge loop stays
  // on this thread (docs/PIPELINE.md says why).
  std::optional<SinkStage> stage;
  StreamMerger::RecordSink mergeSink = sink;
  if (sink && effectiveJobs(options_.jobs) > 1) {
    stage.emplace(sink);
    mergeSink = [&stage](const RecordView& record) { stage->add(record); };
  }
  merger.openOutput(outPath, std::move(mergeSink));
  if (onOpen) onOpen(merger.threads(), merger.markers());

  // Pass 2: drive the state machine to completion. The merge stalls only
  // on the input at the tree's root once its lookahead drains, so each
  // step feeds (or closes) exactly that input: one record in flight per
  // input, and no scan over the k inputs per record.
  RecordView raw;
  for (merger.advance(); auto i = merger.waitingOn(); merger.advance()) {
    if (inputs[*i]->stream.next(raw)) {
      merger.addRecord(*i, raw);
    } else {
      merger.closeInput(*i);
    }
  }
  const StreamMergeResult streamed = merger.finish();
  if (stage) stage->finish();

  result.recordsOut = streamed.recordsOut;
  result.pseudoRecords = streamed.pseudoRecords;
  result.ratios = streamed.ratios;
  return result;
}

}  // namespace ute
