#include "stream/stream_merger.h"

#include <algorithm>
#include <utility>

#include "interval/standard_profile.h"
#include "support/errors.h"
#include "trace/events.h"

namespace ute {

namespace {

constexpr Tick kSentinelEnd = ~Tick{0};

}  // namespace

/// One input stream: clock fit, raw-record buffer, and a one-record
/// lookahead already adjusted onto the global time base.
struct StreamMerger::Input {
  OnlineClockFit fit;
  std::vector<ThreadEntry> threadTable;
  std::set<std::pair<NodeId, LogicalThreadId>> excludedThreads;
  std::set<NodeId> nodes;  ///< nodes named by this input's thread table
  std::deque<std::vector<std::uint8_t>> pending;  ///< raw bodies, asc. end
  std::vector<std::uint8_t> body;  ///< adjusted current record
  RecordView view;
  bool ok = false;
  bool haveThreads = false;
  bool closed = false;
  bool aborted = false;
  bool closuresQueued = false;
  bool sawRecord = false;
  Tick frontierRaw = 0;  ///< raw (local) end of the last accepted record
  std::size_t bufferedBytes = 0;  ///< sum of pending body sizes

  explicit Input(const OnlineFitOptions& fitOptions) : fit(fitOptions) {}
};

StreamMerger::StreamMerger(const Profile& profile, StreamMergeOptions options)
    : profile_(profile), options_(options) {}

StreamMerger::~StreamMerger() = default;

StreamMerger::Input& StreamMerger::input(std::size_t i) {
  if (i >= inputs_.size()) {
    throw UsageError("StreamMerger: unknown input index " + std::to_string(i));
  }
  return *inputs_[i];
}

const StreamMerger::Input& StreamMerger::input(std::size_t i) const {
  if (i >= inputs_.size()) {
    throw UsageError("StreamMerger: unknown input index " + std::to_string(i));
  }
  return *inputs_[i];
}

std::size_t StreamMerger::addInput() {
  if (writer_) {
    throw UsageError("StreamMerger: inputs must be added before openOutput()");
  }
  inputs_.push_back(std::make_unique<Input>(
      OnlineFitOptions{.method = options_.syncMethod}));
  return inputs_.size() - 1;
}

void StreamMerger::setThreads(std::size_t i,
                              const std::vector<ThreadEntry>& threads) {
  Input& in = input(i);
  if (in.haveThreads) {
    throw UsageError("StreamMerger: thread table already set for input " +
                     std::to_string(i));
  }
  if (writer_) {
    throw UsageError("StreamMerger: thread tables must be set before openOutput()");
  }
  in.threadTable = threads;
  for (const ThreadEntry& t : threads) {
    in.nodes.insert(t.node);
    if ((options_.threadTypeMask & StreamMergeOptions::threadTypeBit(t.type)) ==
        0) {
      in.excludedThreads.emplace(t.node, t.ltid);
    }
  }
  in.haveThreads = true;
}

void StreamMerger::addMarker(std::uint32_t id, const std::string& name) {
  const auto [it, inserted] = mergedMarkers_.emplace(id, name);
  if (!inserted && it->second != name) {
    throw FormatError("marker id " + std::to_string(id) +
                      " names two strings across inputs — run the "
                      "convert utility with a shared marker unifier");
  }
  if (inserted && writer_) writer_->addMarker(id, name);
}

void StreamMerger::setClockPairs(std::size_t i,
                                 std::span<const TimestampPair> pairs,
                                 bool final) {
  Input& in = input(i);
  if (final) {
    in.fit.setFinalPairs(pairs);
  } else {
    for (const TimestampPair& p : pairs) in.fit.addPair(p);
  }
}

void StreamMerger::addClockPair(std::size_t i, const TimestampPair& pair) {
  input(i).fit.addPair(pair);
}

void StreamMerger::addRecord(std::size_t i,
                             std::span<const std::uint8_t> body) {
  addRecord(i, RecordView::parse(body));
}

void StreamMerger::addRecord(std::size_t i, const RecordView& v) {
  Input& in = input(i);
  if (in.closed) {
    throw UsageError("StreamMerger: record for closed input " +
                     std::to_string(i));
  }
  if (!in.haveThreads) {
    throw UsageError("StreamMerger: records before the thread table of "
                     "input " + std::to_string(i));
  }
  ++result_.recordsIn;
  // Per-input records must arrive in ascending end order (the .uti
  // writer invariant the watermark rule depends on).
  if (in.sawRecord && v.end() < in.frontierRaw) {
    throw FormatError("streamed record out of order on input " +
                      std::to_string(i) + ": end " +
                      std::to_string(v.end()) + " after frontier " +
                      std::to_string(in.frontierRaw));
  }
  in.frontierRaw = v.end();
  in.sawRecord = true;
  // Without a lookahead or a buffered head, this input's key is its
  // frontier stall, which this record moves whether it is kept or
  // dropped. Otherwise the key stays put until the merge consumes it.
  if (!in.ok && in.pending.empty()) dirty_.push_back(i);

  if (v.eventType() == kClockSyncState) {
    in.fit.addPair(clockSyncPair(v));
    if (!options_.keepClockRecords) return;
  }
  if (!in.excludedThreads.empty() &&
      in.excludedThreads.count({v.node, v.thread}) != 0) {
    return;
  }
  if (tree_ && !in.ok && in.pending.empty()) {
    // The merge is stalled on this input (or will stall on it next):
    // the record is its lookahead, with no trip through `pending`.
    loadAdjusted(in, v);
    return;
  }
  in.pending.emplace_back(v.body.begin(), v.body.end());
  bufferedBytes_ += v.body.size();
  in.bufferedBytes += v.body.size();
}

void StreamMerger::closeInput(std::size_t i) {
  Input& in = input(i);
  if (in.closed) return;
  in.closed = true;
  if (!in.fit.frozen()) in.fit.freeze();
  dirty_.push_back(i);
}

void StreamMerger::abortInput(std::size_t i) {
  Input& in = input(i);
  if (in.closed) return;
  in.aborted = true;
  in.closed = true;
  if (!in.fit.frozen()) in.fit.freeze();
  dirty_.push_back(i);
}

bool StreamMerger::inputOpen(std::size_t i) const { return !input(i).closed; }

std::size_t StreamMerger::bufferedBytes(std::size_t i) const {
  return input(i).bufferedBytes;
}

std::optional<std::size_t> StreamMerger::waitingOn() const {
  if (!tree_ || tree_->exhausted()) return std::nullopt;
  const std::size_t i = tree_->min();
  if (inputs_[i]->ok) return std::nullopt;
  return i;
}

/// Synthesizes zero-duration end pieces at the input's frontier for
/// every state still open on its nodes — the disconnect analogue of the
/// converter's end-of-trace thread sealing. The pieces are enqueued as
/// ordinary raw records so they flow through the normal adjust/emit
/// path (and pop the writer's open-state stacks they close).
void StreamMerger::queueAbortClosures(Input& in) {
  in.closuresQueued = true;
  for (const auto& [key, stack] : writer_->openStates().stacks()) {
    if (in.nodes.count(key.first) == 0) continue;
    for (std::size_t depth = stack.size(); depth-- > 0;) {
      const OpenStates::State& s = stack[depth];
      ByteWriter extra;
      extra.bytes(s.alwaysBytes);
      // End-only fields, zero-padded exactly as the converter pads a
      // sealed thread: receive results for MpiRecv/MpiWait, the end
      // instruction address for user markers.
      if (s.type == EventType::kMpiRecv || s.type == EventType::kMpiWait) {
        extra.i32(-1);
        extra.i32(-1);
        extra.u32(0);
        extra.u32(0);
      } else if (s.type == EventType::kUserMarker) {
        extra.u64(0);
      }
      ByteWriter body = encodeRecordBody(
          makeIntervalType(s.type, Bebits::kEnd), in.frontierRaw,
          /*dura=*/0, s.cpu, s.node, s.thread, extra.view());
      in.pending.emplace_back(body.view().begin(), body.view().end());
      bufferedBytes_ += body.size();
      in.bufferedBytes += body.size();
      ++result_.abortClosures;
    }
  }
}

/// Loads the input's next buffered record into the adjusted lookahead
/// (filtering already happened in addRecord).
void StreamMerger::loadNext(Input& in) {
  if (in.pending.empty() && in.aborted && !in.closuresQueued) {
    queueAbortClosures(in);
  }
  if (in.pending.empty()) {
    in.ok = false;
    return;
  }
  const std::vector<std::uint8_t> raw = std::move(in.pending.front());
  in.pending.pop_front();
  bufferedBytes_ -= raw.size();
  in.bufferedBytes -= raw.size();
  loadAdjusted(in, RecordView::parse(raw));
}

/// Makes `raw` (not aliasing in.body) the input's lookahead, adjusted
/// onto the global time base in the lookahead's reused buffer. The view
/// is built from `raw`'s parse, not parsed again.
void StreamMerger::loadAdjusted(Input& in, const RecordView& raw) {
  // Map both endpoints through the (monotone) clock map and derive the
  // duration from them: mapping start and duration independently can
  // round equal end times to values 1 ns apart, breaking the merged
  // file's end-time ordering. The difference equals the paper's R*D up
  // to rounding.
  const Tick newStart = in.fit.map().toGlobal(raw.start);
  const Tick newEnd = in.fit.map().toGlobal(raw.end());
  in.body.assign(raw.body.begin(), raw.body.end());
  patchRecordTimes(in.body, newStart, newEnd - newStart);
  // Merged files carry the pre-adjustment local start time (attr-1
  // field origStart, last in every spec).
  for (int i = 0; i < 8; ++i) {
    in.body.push_back(static_cast<std::uint8_t>(raw.start >> (8 * i)));
  }
  in.view = raw;
  in.view.body = in.body;
  in.view.start = newStart;
  in.view.dura = newEnd - newStart;
  in.ok = true;
}

void StreamMerger::openOutput(const std::string& outPath, RecordSink sink) {
  if (writer_) throw UsageError("StreamMerger: openOutput() called twice");
  if (inputs_.empty()) {
    throw UsageError("merge needs at least one input file");
  }
  // Cross-input duplicate check and merged table, in input-index order
  // so the output is independent of the order sessions connected.
  std::map<std::pair<NodeId, LogicalThreadId>, bool> seenThreads;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    Input& in = *inputs_[i];
    if (!in.haveThreads) {
      throw UsageError("StreamMerger: openOutput() before the thread table of "
                       "input " + std::to_string(i));
    }
    for (const ThreadEntry& t : in.threadTable) {
      if (seenThreads.emplace(std::make_pair(t.node, t.ltid), true).second ==
          false) {
        throw FormatError("thread (node " + std::to_string(t.node) +
                          ", ltid " + std::to_string(t.ltid) +
                          ") appears in more than one input file");
      }
      if (in.excludedThreads.count({t.node, t.ltid}) != 0) continue;
      mergedThreads_.push_back(t);
    }
  }

  IntervalFileOptions writerOptions;
  writerOptions.profileVersion = profile_.versionId();
  writerOptions.fieldSelectionMask = kMergedFileMask;
  writerOptions.merged = true;
  writerOptions.targetFrameBytes = options_.targetFrameBytes;
  writerOptions.framesPerDirectory = options_.framesPerDirectory;
  // The writer restates open states at frame starts (Section 3.3).
  writer_ = std::make_unique<IntervalFileWriter>(outPath, writerOptions,
                                                 mergedThreads_, &profile_);
  for (const auto& [id, name] : mergedMarkers_) writer_->addMarker(id, name);
  sink_ = std::move(sink);
  result_.outputPath = outPath;
}

bool StreamMerger::fitsFrozen() {
  bool all = true;
  for (auto& in : inputs_) {
    if (!in->fit.frozen() && in->fit.converged()) in->fit.freeze();
    if (!in->fit.frozen()) all = false;
  }
  return all;
}

StreamMerger::Key StreamMerger::keyOf(std::size_t i) const {
  const Input& in = *inputs_[i];
  if (in.ok) return {in.view.end(), i};
  if (!in.pending.empty()) {
    // Buffered but not yet loaded (between addRecord and the next
    // advance): key by the head record so watermark() stays exact.
    const RecordView head = RecordView::parse(in.pending.front());
    return {in.fit.map().toGlobal(head.end()), i};
  }
  if (in.closed && (!in.aborted || in.closuresQueued)) {
    return {kSentinelEnd, inputs_.size()};
  }
  // Open (or not yet drained) with no lookahead: stall at the frontier —
  // a lower bound on anything this input can still produce. An input
  // that has never shipped a record pins the watermark at zero.
  if (!in.sawRecord) return {0, i};
  return {in.fit.map().toGlobal(in.frontierRaw), i};
}

void StreamMerger::advance() {
  if (!writer_) throw UsageError("StreamMerger: advance() before openOutput()");
  if (finished_) return;
  if (!tree_) {
    // Hold everything back until every input's time base is pinned: a
    // record adjusted through a still-moving fit could be emitted out of
    // order relative to records adjusted after the next re-fit. Frozen
    // fits never thaw, so the tree is built exactly once.
    if (!fitsFrozen()) return;
    std::vector<Key> keys;
    keys.reserve(inputs_.size());
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      result_.ratios.push_back(inputs_[i]->fit.ratio());
      loadNext(*inputs_[i]);
      keys.push_back(keyOf(i));
    }
    tree_ = std::make_unique<TournamentTree<Key>>(
        std::move(keys), Key{kSentinelEnd, inputs_.size()},
        options_.useNaiveMerge);
    dirty_.clear();
  }
  for (const std::size_t i : dirty_) {
    if (!inputs_[i]->ok) loadNext(*inputs_[i]);
    tree_->update(i, keyOf(i));
  }
  dirty_.clear();
  while (!tree_->exhausted()) {
    const std::size_t i = tree_->min();
    Input& in = *inputs_[i];
    if (!in.ok) return;  // stalled: watermark barrier
    writer_->addRecord(in.view);
    ++result_.recordsOut;
    lastEmittedEnd_ = in.view.end();
    if (sink_) sink_(in.view);
    loadNext(in);
    // An input drained onto its frontier stalls at the end it just
    // emitted, which is the key the tree already holds: no replay.
    const Key next = keyOf(i);
    if (next.end != lastEmittedEnd_ || next.input != i) tree_->update(i, next);
  }
}

StreamMergeResult StreamMerger::finish() {
  if (!writer_) throw UsageError("StreamMerger: finish() before openOutput()");
  if (finished_) return result_;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (!inputs_[i]->closed) {
      throw UsageError("StreamMerger: finish() with input " +
                       std::to_string(i) + " still open");
    }
  }
  advance();
  writer_->close();
  result_.pseudoRecords = writer_->pseudoRecordsWritten();
  finished_ = true;
  return result_;
}

Tick StreamMerger::watermark() const {
  Tick wm = kSentinelEnd;
  bool sawOpen = false;
  // The all-exhausted fallback must stay monotone against the stall keys
  // reported while inputs were live. Frontiers can run ahead of the last
  // emitted record (dropped ClockSync records advance them without ever
  // being written), so cover the furthest frontier, not just the output.
  Tick drained = lastEmittedEnd_;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const Input& in = *inputs_[i];
    if (!in.fit.frozen()) return 0;
    const auto key = keyOf(i);
    if (key.input >= inputs_.size()) {  // exhausted
      if (in.sawRecord) {
        drained = std::max(drained, in.fit.map().toGlobal(in.frontierRaw));
      }
      continue;
    }
    sawOpen = true;
    wm = std::min(wm, key.end);
  }
  return sawOpen ? wm : drained;
}

const OnlineClockFit& StreamMerger::clockFit(std::size_t i) const {
  return input(i).fit;
}

}  // namespace ute
