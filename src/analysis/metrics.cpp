#include "analysis/metrics.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "interval/field.h"
#include "slog/kernels.h"
#include "support/errors.h"
#include "support/file_io.h"
#include "support/thread_pool.h"
#include "trace/events.h"

namespace ute {

namespace {

inline constexpr std::uint32_t kUtmMagic = 0x4d455455;  // "UTEM"
inline constexpr std::uint32_t kUtmVersion = 1;

/// Column directory order is the format: one u64 grid per entry.
constexpr const char* kColumnNames[] = {
    "busyNs",    "mpiNs",     "ioNs",      "markerNs",    "sendCount",
    "sendBytes", "recvCount", "recvBytes", "lateSenderNs",
};
inline constexpr std::uint32_t kColumnCount = std::size(kColumnNames);

std::uint64_t threadKey(NodeId node, LogicalThreadId thread) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 32) |
         static_cast<std::uint32_t>(thread);
}

}  // namespace

const char* stateClassName(StateClass c) {
  switch (c) {
    case StateClass::kBusy: return "busy";
    case StateClass::kMpi: return "mpi";
    case StateClass::kIo: return "io";
    case StateClass::kMarker: return "marker";
  }
  return "?";
}

bool classifyState(std::uint32_t stateId, StateClass& out) {
  if (stateId >= kMarkerStateBase) {
    out = StateClass::kMarker;
    return true;
  }
  const auto event = static_cast<EventType>(stateId);
  if (event == kRunningState) {
    out = StateClass::kBusy;
    return true;
  }
  if (isMpiEvent(event)) {
    out = StateClass::kMpi;
    return true;
  }
  if (isIoEvent(event) || event == EventType::kPageFault) {
    out = StateClass::kIo;
    return true;
  }
  return false;  // clock-sync injection state, unknown ids
}

MetricsStore::MetricsStore(Tick origin, Tick totalEnd, std::uint32_t bins,
                           const std::vector<ThreadEntry>& threads)
    : origin_(origin), totalEnd_(std::max(totalEnd, origin)), bins_(bins) {
  if (bins_ == 0) throw UsageError("metrics need at least one bin");
  const Tick span = totalEnd_ - origin_;
  binWidth_ = span == 0 ? 1 : (span + bins_ - 1) / bins_;

  for (const ThreadEntry& t : threads) {
    if (t.task < 0) continue;  // system threads are not attributed
    tasks_.push_back(t.task);
  }
  std::sort(tasks_.begin(), tasks_.end());
  tasks_.erase(std::unique(tasks_.begin(), tasks_.end()), tasks_.end());
  threadsPerTask_.assign(tasks_.size(), 0);
  for (const ThreadEntry& t : threads) {
    if (t.task < 0) continue;
    const auto it = std::lower_bound(tasks_.begin(), tasks_.end(), t.task);
    const auto idx = static_cast<std::uint32_t>(it - tasks_.begin());
    ++threadsPerTask_[idx];
    threadTask_.emplace_back(threadKey(t.node, t.ltid), idx);
  }
  std::sort(threadTask_.begin(), threadTask_.end());

  const std::size_t cells = static_cast<std::size_t>(bins_) * tasks_.size();
  for (auto& grid : timeNs_) grid.assign(cells, 0);
  sendCount_.assign(cells, 0);
  sendBytes_.assign(cells, 0);
  recvCount_.assign(cells, 0);
  recvBytes_.assign(cells, 0);
  lateSenderNs_.assign(cells, 0);
}

Tick MetricsStore::binEnd(std::uint32_t b) const {
  if (b + 1 >= bins_) return totalEnd_;
  return std::min(binStart(b + 1), totalEnd_);
}

std::uint32_t MetricsStore::binOf(Tick t) const {
  return kernels::binOf(t, origin_, binWidth_, bins_);
}

int MetricsStore::taskIndexOf(NodeId node, LogicalThreadId thread) const {
  const std::uint64_t key = threadKey(node, thread);
  const auto it = std::lower_bound(
      threadTask_.begin(), threadTask_.end(), key,
      [](const auto& entry, std::uint64_t k) { return entry.first < k; });
  if (it == threadTask_.end() || it->first != key) return -1;
  return static_cast<int>(it->second);
}

void MetricsStore::spread(std::vector<std::uint64_t>& grid,
                          std::uint32_t task, Tick start, Tick dura) {
  if (dura == 0) return;
  Tick t = std::max(start, origin_);
  const Tick end = std::max(start + dura, t);
  while (t < end) {
    const std::uint32_t b = binOf(t);
    // The last bin absorbs everything to the right of its start, so the
    // whole duration always lands somewhere (exact conservation).
    const Tick chunk =
        b + 1 >= bins_ ? end - t : std::min(end, binStart(b + 1)) - t;
    grid[cell(b, task)] += chunk;
    t += chunk;
  }
}

MetricsStore::MetricsStore(Tick origin, Tick binWidth,
                           const std::vector<ThreadEntry>& threads)
    : MetricsStore(origin, origin, 1, threads) {
  if (binWidth == 0) throw UsageError("metrics bin width must be positive");
  binWidth_ = binWidth;
}

void MetricsStore::extendTo(Tick t) {
  if (t > totalEnd_) totalEnd_ = t;
  const Tick span = totalEnd_ - origin_;
  const auto needed = static_cast<std::uint32_t>(
      span == 0 ? 1 : (span + binWidth_ - 1) / binWidth_);
  if (needed <= bins_) return;
  bins_ = needed;
  // Grids are bin-major, so growing the bin count appends zeroed cells;
  // every existing cell keeps its index and value.
  const std::size_t cells = static_cast<std::size_t>(bins_) * tasks_.size();
  for (auto& grid : timeNs_) grid.resize(cells, 0);
  sendCount_.resize(cells, 0);
  sendBytes_.resize(cells, 0);
  recvCount_.resize(cells, 0);
  recvBytes_.resize(cells, 0);
  lateSenderNs_.resize(cells, 0);
}

void MetricsStore::addFrame(const SlogFrameData& frame) {
  if (tasks_.empty()) return;

  // Receive intervals of this frame keyed by where they end: the arrow
  // matcher below attributes late-sender time to them. An arrow and the
  // last piece of its receive interval are always emitted into the same
  // frame (SlogWriter appends both while processing one merged record).
  std::map<std::tuple<NodeId, LogicalThreadId, Tick>, Tick> recvStartByEnd;
  for (const SlogInterval& r : frame.intervals) {
    if (r.pseudo) continue;
    const auto event = static_cast<EventType>(r.stateId);
    if (event == EventType::kMpiRecv || event == EventType::kMpiWait ||
        event == EventType::kMpiIrecv) {
      recvStartByEnd.emplace(std::make_tuple(r.node, r.thread, r.end()),
                             r.start);
    }
  }

  // Two-pass interval accumulation over staged lanes (the columnar-frame
  // fast path): pass one filters (pseudo, zero-length, unclassified,
  // unattributed) and resolves (node, thread) -> task with a one-entry
  // memo — merged records cluster by thread, so most lookups are the
  // previous key — into dense same-typed columns; pass two accumulates
  // from the lanes, taking a single add for the common interval that
  // lies wholly inside one bin and falling back to spread() only when it
  // genuinely straddles bins. Cell sums are the exact same integers in
  // the same cells as the record-at-a-time path, so `.utm` output stays
  // byte-identical.
  laneClass_.clear();
  laneTask_.clear();
  laneStart_.clear();
  laneDura_.clear();
  std::uint64_t memoKey = 0;
  int memoTask = -1;
  bool haveMemo = false;
  for (const SlogInterval& r : frame.intervals) {
    if (r.pseudo || r.dura == 0) continue;
    StateClass c;
    if (!classifyState(r.stateId, c)) continue;
    const std::uint64_t key = threadKey(r.node, r.thread);
    if (!haveMemo || key != memoKey) {
      memoTask = taskIndexOf(r.node, r.thread);
      memoKey = key;
      haveMemo = true;
    }
    if (memoTask < 0) continue;
    laneClass_.push_back(static_cast<std::uint8_t>(c));
    laneTask_.push_back(static_cast<std::uint32_t>(memoTask));
    laneStart_.push_back(r.start);
    laneDura_.push_back(r.dura);
  }
  for (std::size_t i = 0; i < laneTask_.size(); ++i) {
    const Tick lo = std::max<Tick>(laneStart_[i], origin_);
    const Tick end = std::max<Tick>(laneStart_[i] + laneDura_[i], lo);
    const std::uint32_t b = kernels::binOf(lo, origin_, binWidth_, bins_);
    std::vector<std::uint64_t>& grid = timeNs_[laneClass_[i]];
    if (b + 1 >= bins_ || end <= binStart(b + 1)) {
      grid[cell(b, laneTask_[i])] += end - lo;
    } else {
      spread(grid, laneTask_[i], laneStart_[i], laneDura_[i]);
    }
  }

  for (const SlogArrow& a : frame.arrows) {
    const int src = taskIndexOf(a.srcNode, a.srcThread);
    if (src >= 0) {
      const std::size_t at = cell(binOf(a.sendTime),
                                  static_cast<std::uint32_t>(src));
      ++sendCount_[at];
      sendBytes_[at] += a.bytes;
    }
    const int dst = taskIndexOf(a.dstNode, a.dstThread);
    if (dst < 0) continue;
    const std::size_t at = cell(binOf(a.recvTime),
                                static_cast<std::uint32_t>(dst));
    ++recvCount_[at];
    recvBytes_[at] += a.bytes;

    const auto recv = recvStartByEnd.find(
        std::make_tuple(a.dstNode, a.dstThread, a.recvTime));
    if (recv == recvStartByEnd.end()) continue;
    const Tick recvStart = recv->second;
    const Tick lateEnd = std::min(a.sendTime, a.recvTime);
    if (lateEnd > recvStart) {
      spread(lateSenderNs_, static_cast<std::uint32_t>(dst), recvStart,
             lateEnd - recvStart);
    }
  }
}

void MetricsStore::addFrom(const MetricsStore& other) {
  if (other.bins_ != bins_ || other.tasks_ != tasks_) {
    throw UsageError("MetricsStore::addFrom: shape mismatch");
  }
  const auto sum = [](std::vector<std::uint64_t>& into,
                      const std::vector<std::uint64_t>& from) {
    for (std::size_t i = 0; i < into.size(); ++i) into[i] += from[i];
  };
  for (std::size_t c = 0; c < kStateClassCount; ++c) {
    sum(timeNs_[c], other.timeNs_[c]);
  }
  sum(sendCount_, other.sendCount_);
  sum(sendBytes_, other.sendBytes_);
  sum(recvCount_, other.recvCount_);
  sum(recvBytes_, other.recvBytes_);
  sum(lateSenderNs_, other.lateSenderNs_);
}

std::uint64_t MetricsStore::idleNs(std::uint32_t bin,
                                   std::uint32_t task) const {
  const Tick lo = std::min(binStart(bin), binEnd(bin));
  const std::uint64_t wall =
      (binEnd(bin) - lo) * threadsPerTask_[task];
  const std::uint64_t busy = timeNs(StateClass::kBusy, bin, task);
  return wall > busy ? wall - busy : 0;
}

double MetricsStore::commFraction(std::uint32_t bin) const {
  std::uint64_t mpi = 0;
  std::uint64_t wall = 0;
  const Tick lo = std::min(binStart(bin), binEnd(bin));
  const Tick span = binEnd(bin) - lo;
  for (std::uint32_t k = 0; k < taskCount(); ++k) {
    mpi += timeNs(StateClass::kMpi, bin, k);
    wall += span * threadsPerTask_[k];
  }
  if (wall == 0) return 0.0;
  return std::min(1.0, static_cast<double>(mpi) / static_cast<double>(wall));
}

double MetricsStore::loadImbalance(std::uint32_t bin) const {
  std::uint64_t max = 0;
  std::uint64_t total = 0;
  for (std::uint32_t k = 0; k < taskCount(); ++k) {
    const std::uint64_t busy = timeNs(StateClass::kBusy, bin, k);
    max = std::max(max, busy);
    total += busy;
  }
  if (max == 0 || taskCount() == 0) return 0.0;
  const double avg =
      static_cast<double>(total) / static_cast<double>(taskCount());
  return (static_cast<double>(max) - avg) / static_cast<double>(max);
}

std::uint64_t MetricsStore::lateSenderTotalNs(std::uint32_t bin) const {
  std::uint64_t total = 0;
  for (std::uint32_t k = 0; k < taskCount(); ++k) {
    total += lateSenderNs(bin, k);
  }
  return total;
}

std::vector<std::uint8_t> MetricsStore::encode() const {
  ByteWriter w;
  w.u32(kUtmMagic);
  w.u32(kUtmVersion);
  w.u64(origin_);
  w.u64(totalEnd_);
  w.u64(binWidth_);
  w.u32(bins_);
  w.u32(taskCount());
  w.u32(kStateClassCount);
  w.u32(kColumnCount);
  for (std::uint32_t k = 0; k < taskCount(); ++k) {
    w.i32(tasks_[k]);
    w.u32(threadsPerTask_[k]);
  }
  const std::vector<std::uint64_t>* columns[kColumnCount] = {
      &timeNs_[0], &timeNs_[1], &timeNs_[2],  &timeNs_[3],    &sendCount_,
      &sendBytes_, &recvCount_, &recvBytes_,  &lateSenderNs_,
  };
  for (std::uint32_t c = 0; c < kColumnCount; ++c) {
    w.lstring(kColumnNames[c]);
    w.u8(0);  // kind 0: u64 grid of bins x tasks cells
    w.u64(columns[c]->size() * sizeof(std::uint64_t));
  }
  for (std::uint32_t c = 0; c < kColumnCount; ++c) {
    for (std::uint64_t v : *columns[c]) w.u64(v);
  }
  return w.take();
}

MetricsStore MetricsStore::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (r.u32() != kUtmMagic) throw FormatError("not a .utm metrics file");
  const std::uint32_t version = r.u32();
  if (version != kUtmVersion) {
    throw FormatError("unsupported .utm version " + std::to_string(version));
  }
  MetricsStore store;
  store.origin_ = r.u64();
  store.totalEnd_ = r.u64();
  store.binWidth_ = r.u64();
  store.bins_ = r.u32();
  const std::uint32_t taskCount = takeCount(r, 8);  // i32 task, u32 threads
  const std::uint32_t classCount = r.u32();
  // A column directory entry is an lstring, a u8 kind and a u64 size.
  const std::uint32_t columnCount = takeCount(r, 11);
  if (store.bins_ == 0 || store.binWidth_ == 0) {
    throw FormatError(".utm: zero bins or bin width");
  }
  if (classCount != kStateClassCount) {
    throw FormatError(".utm: unexpected state-class count");
  }
  store.tasks_.reserve(taskCount);
  store.threadsPerTask_.reserve(taskCount);
  for (std::uint32_t k = 0; k < taskCount; ++k) {
    store.tasks_.push_back(r.i32());
    store.threadsPerTask_.push_back(r.u32());
  }
  const std::size_t cells =
      static_cast<std::size_t>(store.bins_) * taskCount;
  struct Dir {
    std::string name;
    std::uint8_t kind = 0;
    std::uint64_t sizeBytes = 0;
  };
  std::vector<Dir> dir(columnCount);
  for (Dir& d : dir) {
    d.name = r.lstring();
    d.kind = r.u8();
    d.sizeBytes = r.u64();
  }
  std::vector<std::uint64_t>* columns[kColumnCount] = {
      &store.timeNs_[0], &store.timeNs_[1], &store.timeNs_[2],
      &store.timeNs_[3], &store.sendCount_, &store.sendBytes_,
      &store.recvCount_, &store.recvBytes_, &store.lateSenderNs_,
  };
  // Every column the writer knows holds one u64 per cell.
  if (cells > r.remaining() / sizeof(std::uint64_t)) {
    throw FormatError(".utm: " + std::to_string(cells) +
                      " cells exceed the column bytes");
  }
  for (auto* column : columns) column->assign(cells, 0);
  for (const Dir& d : dir) {
    // Match by name so future writers can add columns without breaking
    // this reader; unknown columns are skipped by their recorded size.
    int known = -1;
    for (std::uint32_t c = 0; c < kColumnCount; ++c) {
      if (d.name == kColumnNames[c]) known = static_cast<int>(c);
    }
    if (known < 0 || d.kind != 0) {
      r.skip(d.sizeBytes);
      continue;
    }
    if (d.sizeBytes != cells * sizeof(std::uint64_t)) {
      throw FormatError(".utm: column '" + d.name + "' has wrong size");
    }
    for (std::uint64_t& v : *columns[known]) v = r.u64();
  }
  return store;
}

MetricsStore makeMetricsStore(const SlogReader& reader,
                              const MetricsOptions& options) {
  return MetricsStore(reader.totalStart(), reader.totalEnd(),
                      std::max<std::uint32_t>(options.bins, 1),
                      reader.threads());
}

std::size_t metricsWorkers(int jobs,
                           const std::vector<SlogFrameIndexEntry>& index,
                           std::uint32_t bins, std::size_t tasks) {
  // Measured on 4 vCPUs (EXPERIMENTS.md, "Metrics fan-out"): a second
  // worker lost at 3.0 entries per cell and paid at 3.7 and above, so
  // two workers need 4.
  constexpr std::uint64_t kEntriesPerCell = 2;
  std::uint64_t entries = 0;
  for (const SlogFrameIndexEntry& e : index) entries += e.records;
  const std::uint64_t cells =
      std::max<std::uint64_t>(1, std::uint64_t{bins} * tasks);
  const std::uint64_t paying =
      std::max<std::uint64_t>(1, entries / (kEntriesPerCell * cells));
  return static_cast<std::size_t>(std::min<std::uint64_t>(
      {effectiveJobs(jobs), index.size(), paying}));
}

MetricsStore computeMetrics(const SlogReader& reader,
                            const MetricsOptions& options) {
  MetricsStore total = makeMetricsStore(reader, options);
  const std::size_t frames = reader.frameIndex().size();
  if (frames == 0) return total;

  const std::size_t jobs = metricsWorkers(options.jobs, reader.frameIndex(),
                                          total.bins(), total.taskCount());
  if (jobs <= 1) {
    for (std::size_t i = 0; i < frames; ++i) {
      total.addFrame(*reader.readFrame(i));
    }
    return total;
  }

  // Contiguous frame chunks, one private store per worker; integer cell
  // sums make the merged result identical for every partition. readFrame
  // is thread-safe (frames decode from the shared ByteSource), so the
  // workers need no per-thread file handles.
  //
  // Deliberately lock-free at this level: each worker owns partial[c]
  // exclusively until parallelFor's join, and the addFrom merge below
  // runs single-threaded after it — there is no guarded state for the
  // thread-safety analysis to check (docs/STATIC_ANALYSIS.md), which is
  // exactly the point. The only synchronization is the pool's own
  // annotated Channel/Mutex machinery.
  std::vector<MetricsStore> partial(jobs);
  parallelFor(jobs, jobs, [&](std::size_t c) {
    partial[c] = makeMetricsStore(reader, options);
    const std::size_t lo = frames * c / jobs;
    const std::size_t hi = frames * (c + 1) / jobs;
    for (std::size_t i = lo; i < hi; ++i) {
      partial[c].addFrame(*reader.readFrame(i));
    }
  });
  for (const MetricsStore& p : partial) total.addFrom(p);
  return total;
}

MetricsStore computeMetrics(
    const SlogReader& reader, const MetricsOptions& options,
    const std::function<std::shared_ptr<const SlogFrameData>(std::size_t)>&
        frameAt) {
  MetricsStore total = makeMetricsStore(reader, options);
  for (std::size_t i = 0; i < reader.frameIndex().size(); ++i) {
    total.addFrame(*frameAt(i));
  }
  return total;
}

}  // namespace ute
