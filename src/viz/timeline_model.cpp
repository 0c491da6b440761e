#include "viz/timeline_model.h"

#include <algorithm>
#include <memory>

#include "interval/standard_profile.h"
#include "slog/slog_format.h"
#include "support/errors.h"

namespace ute {

namespace {

constexpr std::uint32_t kVizPalette[] = {
    0x4c72b0, 0xdd8452, 0x55a868, 0xc44e52, 0x8172b3, 0x937860,
    0xda8bc3, 0x8c8c8c, 0xccb974, 0x64b5cd, 0x2f4b7c, 0xffa600,
    0x7a5195, 0xef5675, 0x488f31, 0xde425b,
};

std::uint32_t rgbFor(std::uint32_t colorKey) {
  return kVizPalette[colorKey % std::size(kVizPalette)];
}

/// Sortable timeline key: (node, id).
using RowKey = std::pair<NodeId, std::int32_t>;

struct ModelBuilder {
  TimeSpaceModel model;
  std::map<RowKey, std::size_t> rowIndex;

  std::size_t row(RowKey key, const std::string& label) {
    const auto it = rowIndex.find(key);
    if (it != rowIndex.end()) return it->second;
    VizTimeline t;
    t.label = label;
    t.node = key.first;
    t.id = key.second;
    rowIndex.emplace(key, model.rows.size());
    model.rows.push_back(std::move(t));
    return model.rows.size() - 1;
  }

  void legend(std::uint32_t colorKey, const std::string& name) {
    model.legend.try_emplace(colorKey, name, rgbFor(colorKey));
  }
};

std::string nodeLabel(NodeId node, const char* kind, std::int32_t id) {
  std::string label = "n";
  label += std::to_string(node);
  label += kind;
  label += std::to_string(id);
  return label;
}
std::string threadLabel(NodeId node, std::int32_t ltid) {
  return nodeLabel(node, ".t", ltid);
}
std::string cpuLabel(NodeId node, std::int32_t cpu) {
  return nodeLabel(node, ".cpu", cpu);
}

}  // namespace

std::string viewKindName(ViewKind kind) {
  switch (kind) {
    case ViewKind::kThreadActivity: return "thread-activity";
    case ViewKind::kProcessorActivity: return "processor-activity";
    case ViewKind::kThreadProcessor: return "thread-processor";
    case ViewKind::kProcessorThread: return "processor-thread";
    case ViewKind::kStateActivity: return "state-activity";
  }
  return "?";
}

TimeSpaceModel buildView(IntervalFileReader& file, const Profile& profile,
                         const ViewOptions& options) {
  ModelBuilder b;
  b.model.kind = options.kind;
  b.model.title = viewKindName(options.kind);
  const Tick fileMin = file.header().minStart;
  const Tick fileMax = file.header().maxEnd;
  b.model.minTime = options.window ? options.window->first : fileMin;
  b.model.maxTime = options.window ? options.window->second : fileMax;

  const bool threadRows = options.kind == ViewKind::kThreadActivity ||
                          options.kind == ViewKind::kThreadProcessor;

  // Identify system threads and pre-create rows so idle threads and
  // processors still show as (empty) timelines.
  std::map<RowKey, bool> isSystemThread;
  for (const ThreadEntry& t : file.threads()) {
    isSystemThread[{t.node, t.ltid}] = t.type == ThreadType::kSystem;
    if (threadRows &&
        (options.includeSystemThreads || t.type != ThreadType::kSystem)) {
      b.row({t.node, t.ltid}, threadLabel(t.node, t.ltid));
    }
  }
  if (!threadRows) {
    for (const auto& [node, count] : options.cpuCountHint) {
      for (int c = 0; c < count; ++c) b.row({node, c}, cpuLabel(node, c));
    }
  }

  const std::uint64_t mask = file.header().fieldSelectionMask;
  std::map<std::pair<IntervalType, std::string>,
           std::unique_ptr<FieldAccessor>>
      accessors;
  const auto accessor = [&](IntervalType type,
                            const char* name) -> const FieldAccessor& {
    const auto key = std::make_pair(type, std::string(name));
    auto it = accessors.find(key);
    if (it == accessors.end()) {
      it = accessors
               .emplace(key, std::make_unique<FieldAccessor>(profile, type,
                                                             mask, name))
               .first;
    }
    return *it->second;
  };

  const auto stateIdOf = [&](const RecordView& rec) -> std::uint32_t {
    if (rec.eventType() == EventType::kUserMarker) {
      const auto id = accessor(rec.intervalType, kFieldMarkerId).get(rec);
      return kMarkerStateBase + static_cast<std::uint32_t>(id.value_or(0));
    }
    return static_cast<std::uint32_t>(rec.eventType());
  };
  const auto stateNameOf = [&](const RecordView& rec) -> std::string {
    if (rec.eventType() == EventType::kUserMarker) {
      const auto id = accessor(rec.intervalType, kFieldMarkerId).get(rec);
      const auto& markers = file.markers();
      const auto it = markers.find(static_cast<std::uint32_t>(id.value_or(0)));
      if (it != markers.end()) return it->second;
      return "marker" + std::to_string(id.value_or(0));
    }
    const RecordSpec* spec = profile.find(rec.intervalType);
    return spec != nullptr ? profile.recordName(*spec)
                           : eventTypeName(rec.eventType());
  };

  // Connected thread-activity view: per-thread stacks of open states.
  struct OpenEntry {
    std::uint32_t stateId = 0;
    Tick start = 0;
  };
  std::map<RowKey, std::vector<OpenEntry>> openStacks;

  // Arrow matching state (sequence numbers).
  struct PendingSend {
    RowKey key;
    Tick time = 0;
    std::uint32_t bytes = 0;
  };
  std::map<std::uint32_t, PendingSend> pendingSends;
  struct RawArrow {
    RowKey from;
    RowKey to;
    Tick t0 = 0, t1 = 0;
    std::uint32_t bytes = 0;
  };
  std::vector<RawArrow> rawArrows;

  auto stream = file.records();
  RecordView rec;
  while (stream.next(rec)) {
    if (rec.eventType() == kClockSyncState) continue;
    const RowKey threadKey{rec.node, rec.thread};
    if (threadRows && !options.includeSystemThreads) {
      const auto sysIt = isSystemThread.find(threadKey);
      if (sysIt != isSystemThread.end() && sysIt->second) continue;
    }
    if (options.window &&
        (rec.end() < options.window->first ||
         rec.start > options.window->second)) {
      // Still track nesting so connected segments spanning the window
      // open/close correctly.
      if (options.kind == ViewKind::kThreadActivity && options.connectPieces) {
        if (rec.bebits() == Bebits::kBegin) {
          openStacks[threadKey].push_back({stateIdOf(rec), rec.start});
        } else if (rec.bebits() == Bebits::kEnd) {
          auto& stack = openStacks[threadKey];
          if (!stack.empty()) stack.pop_back();
        }
      }
      continue;
    }

    const Tick clipStart =
        options.window ? std::max(rec.start, options.window->first)
                       : rec.start;
    const Tick clipEnd =
        options.window ? std::min(rec.end(), options.window->second)
                       : rec.end();

    switch (options.kind) {
      case ViewKind::kThreadActivity: {
        const std::uint32_t stateId = stateIdOf(rec);
        if (options.connectPieces) {
          auto& stack = openStacks[threadKey];
          const std::size_t rowIdx =
              b.row(threadKey, threadLabel(rec.node, rec.thread));
          if (rec.bebits() == Bebits::kBegin) {
            stack.push_back({stateId, clipStart});
          } else if (rec.bebits() == Bebits::kEnd) {
            Tick segStart = b.model.minTime;
            if (!stack.empty()) {
              segStart = stack.back().start;
              stack.pop_back();
            }
            b.legend(stateId, stateNameOf(rec));
            b.model.rows[rowIdx].segments.push_back(
                {stateId, segStart, clipEnd,
                 static_cast<std::uint8_t>(stack.size()), false});
          } else if (rec.bebits() == Bebits::kComplete) {
            b.legend(stateId, stateNameOf(rec));
            b.model.rows[rowIdx].segments.push_back(
                {stateId, clipStart, clipEnd,
                 static_cast<std::uint8_t>(stack.size()), false});
          }
          // Continuation pieces carry no new extent in connected mode.
        } else {
          if (rec.dura == 0 && rec.bebits() == Bebits::kContinuation) {
            break;  // frame-start pseudo-interval; pieces are all present
          }
          b.legend(stateId, stateNameOf(rec));
          const std::size_t rowIdx =
              b.row(threadKey, threadLabel(rec.node, rec.thread));
          b.model.rows[rowIdx].segments.push_back(
              {stateId, clipStart, clipEnd, 0, false});
        }
        break;
      }
      case ViewKind::kProcessorActivity: {
        if (rec.dura == 0 && rec.bebits() == Bebits::kContinuation) break;
        const std::uint32_t stateId = stateIdOf(rec);
        b.legend(stateId, stateNameOf(rec));
        const std::size_t rowIdx =
            b.row({rec.node, rec.cpu}, cpuLabel(rec.node, rec.cpu));
        b.model.rows[rowIdx].segments.push_back(
            {stateId, clipStart, clipEnd, 0, false});
        break;
      }
      case ViewKind::kThreadProcessor: {
        if (rec.dura == 0 && rec.bebits() == Bebits::kContinuation) break;
        const auto colorKey = static_cast<std::uint32_t>(
            rec.node * 64 + rec.cpu);
        b.legend(colorKey, cpuLabel(rec.node, rec.cpu));
        const std::size_t rowIdx =
            b.row(threadKey, threadLabel(rec.node, rec.thread));
        b.model.rows[rowIdx].segments.push_back(
            {colorKey, clipStart, clipEnd, 0, false});
        break;
      }
      case ViewKind::kProcessorThread: {
        if (rec.dura == 0 && rec.bebits() == Bebits::kContinuation) break;
        const auto colorKey = static_cast<std::uint32_t>(
            rec.node * kMaxThreadsPerNode + rec.thread);
        b.legend(colorKey, threadLabel(rec.node, rec.thread));
        const std::size_t rowIdx =
            b.row({rec.node, rec.cpu}, cpuLabel(rec.node, rec.cpu));
        b.model.rows[rowIdx].segments.push_back(
            {colorKey, clipStart, clipEnd, 0, false});
        break;
      }
      case ViewKind::kStateActivity: {
        if (rec.dura == 0 && rec.bebits() == Bebits::kContinuation) break;
        // One row per state; pieces of every thread land on that row,
        // colored by the thread they belong to.
        const std::uint32_t stateId = stateIdOf(rec);
        const auto colorKey = static_cast<std::uint32_t>(
            rec.node * kMaxThreadsPerNode + rec.thread);
        b.legend(colorKey, threadLabel(rec.node, rec.thread));
        const std::size_t rowIdx =
            b.row({-1, static_cast<std::int32_t>(stateId)},
                  stateNameOf(rec));
        b.model.rows[rowIdx].segments.push_back(
            {colorKey, clipStart, clipEnd, 0, false});
        break;
      }
    }

    // Arrow matching (thread views only; drawn between thread rows).
    if (options.arrows && threadRows) {
      const EventType event = rec.eventType();
      const Bebits bebits = rec.bebits();
      if ((event == EventType::kMpiSend || event == EventType::kMpiIsend) &&
          isFirstPiece(bebits)) {
        const auto seqno = accessor(rec.intervalType, kFieldSeqNo).get(rec);
        const auto bytes =
            accessor(rec.intervalType, kFieldMsgSizeSent).get(rec);
        if (seqno && *seqno > 0) {
          pendingSends[static_cast<std::uint32_t>(*seqno)] = {
              threadKey, rec.start,
              static_cast<std::uint32_t>(bytes.value_or(0))};
        }
      } else if ((event == EventType::kMpiRecv ||
                  event == EventType::kMpiWait) &&
                 isLastPiece(bebits)) {
        const auto seqno = accessor(rec.intervalType, kFieldSeqNo).get(rec);
        if (seqno && *seqno > 0) {
          const auto it =
              pendingSends.find(static_cast<std::uint32_t>(*seqno));
          if (it != pendingSends.end()) {
            rawArrows.push_back({it->second.key, threadKey, it->second.time,
                                 rec.end(), it->second.bytes});
            pendingSends.erase(it);
          }
        }
      }
    }
  }

  // Close connected states still open at the right edge.
  if (options.kind == ViewKind::kThreadActivity && options.connectPieces) {
    for (auto& [key, stack] : openStacks) {
      if (stack.empty()) continue;
      const std::size_t rowIdx =
          b.row(key, threadLabel(key.first, key.second));
      for (std::size_t depth = 0; depth < stack.size(); ++depth) {
        b.model.rows[rowIdx].segments.push_back(
            {stack[depth].stateId, std::max(stack[depth].start,
                                            b.model.minTime),
             b.model.maxTime, static_cast<std::uint8_t>(depth), false});
      }
    }
  }

  for (const RawArrow& a : rawArrows) {
    const auto fromIt = b.rowIndex.find(a.from);
    const auto toIt = b.rowIndex.find(a.to);
    if (fromIt == b.rowIndex.end() || toIt == b.rowIndex.end()) continue;
    b.model.arrows.push_back(
        {fromIt->second, toIt->second, a.t0, a.t1, a.bytes});
  }

  // Draw outer (shallower) segments first within each row.
  for (VizTimeline& row : b.model.rows) {
    std::stable_sort(row.segments.begin(), row.segments.end(),
                     [](const VizSegment& x, const VizSegment& y) {
                       return x.depth < y.depth;
                     });
  }
  return std::move(b.model);
}

namespace {

/// Shared assembly for frame and window views: consumes the records of
/// frames [firstFrame, lastFrame] and renders the states of the time
/// range [t0, t1], using the first frame's pseudo-intervals for states
/// crossing in from the left.
TimeSpaceModel assembleSlogView(const SlogReader& slog, std::size_t firstFrame,
                                std::size_t lastFrame, Tick t0, Tick t1,
                                std::string title);

}  // namespace

TimeSpaceModel buildSlogFrameView(const SlogReader& slog, std::size_t frameIdx) {
  const SlogFrameIndexEntry& entry = slog.frameIndex().at(frameIdx);
  return assembleSlogView(slog, frameIdx, frameIdx, entry.timeStart,
                          entry.timeEnd,
                          "frame " + std::to_string(frameIdx));
}

TimeSpaceModel buildSlogWindowView(const SlogReader& slog, Tick t0, Tick t1) {
  if (t1 <= t0) throw UsageError("window end must follow window start");
  if (slog.frameIndex().empty()) throw UsageError("SLOG file has no frames");
  // Clamp the window to the run and locate the frame range it spans.
  t0 = std::max(t0, slog.totalStart());
  t1 = std::min(t1, slog.totalEnd());
  const auto span = slog.framesOverlapping(t0, t1);
  if (!span) throw UsageError("window is outside the run");
  return assembleSlogView(slog, span->first, span->second, t0, t1,
                          "window view");
}

namespace {

TimeSpaceModel assembleSlogView(const SlogReader& slog, std::size_t firstFrame,
                                std::size_t lastFrame, Tick t0, Tick t1,
                                std::string title) {
  ModelBuilder b;
  b.model.kind = ViewKind::kThreadActivity;
  b.model.title = std::move(title);
  b.model.minTime = t0;
  b.model.maxTime = t1;

  for (const ThreadEntry& t : slog.threads()) {
    if (t.type == ThreadType::kSystem) continue;
    b.row({t.node, t.ltid}, threadLabel(t.node, t.ltid));
  }

  // Connected assembly: pseudo continuations restate states open at the
  // first frame's start; begin/complete/end pieces within the frames do
  // the rest. Segments are clipped to the requested window.
  struct OpenEntry {
    std::uint32_t stateId = 0;
    Tick start = 0;
    bool pseudo = false;
  };
  std::map<RowKey, std::vector<OpenEntry>> stacks;
  const auto clip = [&](Tick v) { return std::clamp(v, t0, t1); };

  for (std::size_t f = firstFrame; f <= lastFrame; ++f) {
    const SlogFramePtr frame = slog.readFrame(f);
    for (const SlogInterval& r : frame->intervals) {
      // Later frames restate their own pseudo-intervals; only the first
      // frame's matter (the stacks carry the rest forward).
      if (r.pseudo && f != firstFrame) continue;
      const RowKey key{r.node, r.thread};
      const std::size_t rowIdx = b.row(key, threadLabel(r.node, r.thread));
      auto& stack = stacks[key];
      const auto bebits = static_cast<Bebits>(r.bebits);
      b.legend(r.stateId, slog.stateName(r.stateId));
      if (r.pseudo) {
        stack.push_back({r.stateId, t0, true});
      } else if (bebits == Bebits::kBegin) {
        stack.push_back({r.stateId, r.start, false});
      } else if (bebits == Bebits::kEnd) {
        Tick segStart = t0;
        bool pseudo = false;
        if (!stack.empty()) {
          segStart = stack.back().start;
          pseudo = stack.back().pseudo;
          stack.pop_back();
        }
        if (r.end() >= t0 && segStart <= t1) {
          b.model.rows[rowIdx].segments.push_back(
              {r.stateId, clip(segStart), clip(r.end()),
               static_cast<std::uint8_t>(stack.size()), pseudo});
        }
      } else if (bebits == Bebits::kComplete) {
        if (r.end() >= t0 && r.start <= t1) {
          b.model.rows[rowIdx].segments.push_back(
              {r.stateId, clip(r.start), clip(r.end()),
               static_cast<std::uint8_t>(stack.size()), false});
        }
      }
    }
    for (const SlogArrow& a : frame->arrows) {
      const auto fromIt = b.rowIndex.find({a.srcNode, a.srcThread});
      const auto toIt = b.rowIndex.find({a.dstNode, a.dstThread});
      if (fromIt == b.rowIndex.end() || toIt == b.rowIndex.end()) continue;
      if (a.recvTime < t0 || a.sendTime > t1) continue;
      b.model.arrows.push_back(
          {fromIt->second, toIt->second, clip(a.sendTime), clip(a.recvTime),
           a.bytes});
    }
  }
  // States still open at the right edge extend to it.
  for (auto& [key, stack] : stacks) {
    const std::size_t rowIdx = b.row(key, threadLabel(key.first, key.second));
    for (std::size_t depth = 0; depth < stack.size(); ++depth) {
      if (stack[depth].start > t1) continue;
      b.model.rows[rowIdx].segments.push_back(
          {stack[depth].stateId, clip(stack[depth].start), t1,
           static_cast<std::uint8_t>(depth), stack[depth].pseudo});
    }
  }
  for (VizTimeline& row : b.model.rows) {
    std::stable_sort(row.segments.begin(), row.segments.end(),
                     [](const VizSegment& x, const VizSegment& y) {
                       return x.depth < y.depth;
                     });
  }
  return std::move(b.model);
}

}  // namespace

}  // namespace ute
