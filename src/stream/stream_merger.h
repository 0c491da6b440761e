// The resumable incremental merge (Section 3.1): a state machine that
// can be fed records as they arrive over the network and asked to emit
// whatever is safe so far. The batch merger (src/merge/merger.cpp)
// drives it to completion.
//
// The state machine per input:
//
//   addInput -> setThreads -> {addClockPair | setClockPairs}*
//            -> addRecord* -> closeInput | abortInput
//
// and globally: openOutput() once every input has its thread table, then any
// number of advance() calls, then finish() once every input is closed.
//
// Emission rule (the watermark): a buffered record is emitted only when
// its globally-adjusted end time is provably the minimum of everything
// any input can still produce. An input that is open but has no buffered
// records blocks emission past its *frontier* — the adjusted end of the
// last record it shipped (records arrive in ascending end order per
// input, so the frontier is a lower bound on its future). Ties are
// broken by input index. The batch merger is this class driven to
// completion, which is what makes streamed output byte-identical to
// batch output (docs/STREAMING.md).
//
// No emission happens until every input's clock fit is frozen — either
// the batch fit via setClockPairs(final=true), or the windowed online
// fit (src/stream/online_fit.h) once it converges or the input closes.
//
// abortInput() models a node disconnecting mid-run: once its buffered
// records drain, zero-duration end pieces are synthesized at its
// frontier for every state still open on its threads, mirroring the
// converter's end-of-trace sealing, so viewers never see intervals that
// extend to infinity.
//
// Thread-compatibility: a StreamMerger is confined to one thread (the
// ingest server drives it from its single merge thread); it holds no
// locks of its own.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "clock/sync.h"
#include "interval/file_writer.h"
#include "interval/profile.h"
#include "interval/record.h"
#include "merge/tournament_tree.h"
#include "stream/online_fit.h"

namespace ute {

struct StreamMergeOptions {
  SyncMethod syncMethod = SyncMethod::kRmsSegments;
  /// Which thread categories to merge (Section 2.3.3: the thread table's
  /// three categories "provide a way to choose specific threads for
  /// merging"). Bit per ThreadType value; default: all.
  std::uint8_t threadTypeMask = 0x7;
  static std::uint8_t threadTypeBit(ThreadType t) {
    return static_cast<std::uint8_t>(1u << static_cast<std::uint8_t>(t));
  }
  /// Keep the per-node ClockSync pseudo-records in the merged output.
  bool keepClockRecords = false;
  std::size_t targetFrameBytes = 32 << 10;
  int framesPerDirectory = 64;
  /// Ablation switch: O(k) linear scan instead of the tournament tree.
  bool useNaiveMerge = false;
};

struct StreamMergeResult {
  std::string outputPath;
  std::uint64_t recordsIn = 0;   ///< records offered through addRecord()
  std::uint64_t recordsOut = 0;  ///< records written (incl. abort closures)
  std::uint64_t pseudoRecords = 0;   ///< frame-start continuation pseudos
  std::uint64_t abortClosures = 0;   ///< synthesized end pieces (disconnects)
  /// Per input, in index order: the frozen global-to-local clock ratio.
  std::vector<double> ratios;
};

class StreamMerger {
 public:
  using RecordSink = std::function<void(const RecordView&)>;

  StreamMerger(const Profile& profile, StreamMergeOptions options = {});
  ~StreamMerger();

  StreamMerger(const StreamMerger&) = delete;
  StreamMerger& operator=(const StreamMerger&) = delete;

  /// Registers one input stream (a node's record feed); returns its
  /// index. All inputs must be added before openOutput().
  std::size_t addInput();
  std::size_t inputCount() const { return inputs_.size(); }

  /// The input's thread table; required before its first addRecord().
  /// Cross-input duplicate checking happens at openOutput().
  void setThreads(std::size_t input, const std::vector<ThreadEntry>& threads);

  /// Registers a marker; conflicting names for one id throw FormatError.
  /// May be called before or after openOutput() (tables are file trailers).
  void addMarker(std::uint32_t id, const std::string& name);

  /// Clock pairs for an input. final=true applies the exact batch fit
  /// over `pairs` and freezes it; final=false streams them into the
  /// online windowed fit.
  void setClockPairs(std::size_t input, std::span<const TimestampPair> pairs,
                     bool final);
  void addClockPair(std::size_t input, const TimestampPair& pair);

  /// Buffers one record (an unadjusted interval-record body, as stored
  /// in a per-node .uti file). Records must arrive in ascending end
  /// order per input; ClockSync records feed the online fit and are
  /// dropped unless keepClockRecords; records of threads excluded by the
  /// type mask are dropped. Once every fit is frozen, a record for an
  /// input with nothing buffered becomes its adjusted lookahead at once.
  void addRecord(std::size_t input, std::span<const std::uint8_t> body);
  /// The same, for a body already parsed (`record.body` is the body).
  void addRecord(std::size_t input, const RecordView& record);

  /// Marks the input complete (graceful end of its stream). Freezes a
  /// still-open clock fit.
  void closeInput(std::size_t input);

  /// Marks the input torn down mid-run: after its buffered records
  /// drain, synthesized end pieces close every state still open on its
  /// threads.
  void abortInput(std::size_t input);

  bool inputOpen(std::size_t input) const;

  /// The input the merge is stalled on: open, with nothing buffered, and
  /// holding the smallest key — the caller's cue to feed (or close) it.
  /// nullopt once the merge is drained, or while it waits for clock fits.
  std::optional<std::size_t> waitingOn() const;

  /// Creates the merged output file. Requires >= 1 input, every input's
  /// thread table, and performs the cross-input duplicate-thread check.
  void openOutput(const std::string& outPath, RecordSink sink = nullptr);
  bool opened() const { return writer_ != nullptr; }

  /// Emits every record that is safe under the watermark rule. A no-op
  /// until openOutput() and until every input's fit is frozen (fits that have
  /// converged are frozen here).
  void advance();

  /// Closes the output; requires every input closed (advance() is run
  /// internally to drain). Returns the final counters.
  StreamMergeResult finish();

  /// The global time below which the merged output is complete: nothing
  /// with an earlier adjusted end can still arrive. 0 until every fit is
  /// frozen.
  Tick watermark() const;

  /// Raw bytes buffered across inputs and not yet emitted — the quantity
  /// the ingest server's byte budget tracks.
  std::size_t bufferedBytes() const { return bufferedBytes_; }
  /// Same, for one input (the ingest server releases each session's
  /// budget charge as its records drain).
  std::size_t bufferedBytes(std::size_t input) const;

  /// Merged thread table in input-index order (valid after openOutput()).
  const std::vector<ThreadEntry>& threads() const { return mergedThreads_; }
  const std::map<std::uint32_t, std::string>& markers() const {
    return mergedMarkers_;
  }

  /// The input's clock fit (ratio() is meaningful once frozen).
  const OnlineClockFit& clockFit(std::size_t input) const;

  std::uint64_t recordsOut() const { return result_.recordsOut; }

 private:
  struct Input;

  /// A tree key: adjusted end time, ties broken by input index. The
  /// comparison is branch-free: end times interleave across inputs, so
  /// a branch on them would mispredict about half the time.
  struct Key {
    Tick end = 0;
    std::size_t input = 0;
    friend bool operator<(const Key& a, const Key& b) {
      const int tie = a.end == b.end;
      return static_cast<int>(a.end < b.end) | (tie & (a.input < b.input));
    }
  };

  Input& input(std::size_t i);
  const Input& input(std::size_t i) const;
  void loadNext(Input& in);
  void loadAdjusted(Input& in, const RecordView& raw);
  void queueAbortClosures(Input& in);
  bool fitsFrozen();
  Key keyOf(std::size_t i) const;

  const Profile& profile_;
  StreamMergeOptions options_;

  std::vector<std::unique_ptr<Input>> inputs_;
  std::vector<ThreadEntry> mergedThreads_;
  std::map<std::uint32_t, std::string> mergedMarkers_;

  std::unique_ptr<IntervalFileWriter> writer_;
  RecordSink sink_;
  /// Built once, when every fit has frozen.
  std::unique_ptr<TournamentTree<Key>> tree_;
  std::vector<std::size_t> dirty_;  ///< inputs whose tree key may have moved
  bool finished_ = false;
  Tick lastEmittedEnd_ = 0;
  std::size_t bufferedBytes_ = 0;
  StreamMergeResult result_;
};

}  // namespace ute
