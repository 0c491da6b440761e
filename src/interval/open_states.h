// Open states and the frame rule (Sections 2.3.3 and 3.3).
//
// A state is open from its begin piece to its end piece. Every frame
// after the first, in a merged interval file and in a SLOG file alike,
// starts by restating each open state as a zero-duration continuation
// pseudo-interval, so a viewer can jump straight into the frame
// (Figure 7). OpenStates is the one tracker both writers use.
//
// Restatement grows with the open states, not with the payload, so each
// writer closes a frame only once its own budget is met *and* its real
// entries are at least kRealEntriesPerPseudo times its pseudo entries.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "interval/profile.h"
#include "interval/record.h"
#include "support/errors.h"
#include "trace/events.h"

namespace ute {

inline constexpr std::uint64_t kRealEntriesPerPseudo = 4;

/// The frame rule both writers close frames by.
constexpr bool frameMayClose(bool budgetMet, std::uint64_t pseudo,
                             std::uint64_t real) {
  return budgetMet && pseudo * kRealEntriesPerPseudo <= real;
}

class OpenStates {
 public:
  struct State {
    EventType type = kRunningState;
    std::int32_t cpu = 0;
    NodeId node = 0;
    LogicalThreadId thread = 0;
    /// The begin piece's always-fields, which a pseudo-interval copies.
    std::vector<std::uint8_t> alwaysBytes;
  };
  using Stacks =
      std::map<std::pair<NodeId, LogicalThreadId>, std::vector<State>>;

  /// Sizes each state type's always-fields (attr 0 beyond the common
  /// six) from its continuation spec.
  explicit OpenStates(const Profile& profile) {
    for (const auto& [type, spec] : profile.specs()) {
      if (intervalBebits(type) != Bebits::kContinuation) continue;
      std::size_t len = 0;
      for (std::size_t i = 6; i < spec.fields.size(); ++i) {
        if (spec.fields[i].attr == 0) len += spec.fields[i].elemLen;
      }
      alwaysLen_[intervalEventType(type)] = len;
    }
  }

  /// Pushes a begin piece and pops its end piece; other pieces leave the
  /// stacks alone. Throws FormatError on an end piece that does not match
  /// the state on top of its (node, thread) stack.
  void track(const RecordView& record) {
    const Bebits bebits = record.bebits();
    if (bebits != Bebits::kBegin && bebits != Bebits::kEnd) return;
    auto& stack = stacks_[{record.node, record.thread}];
    if (bebits == Bebits::kEnd) {
      if (stack.empty() || stack.back().type != record.eventType()) {
        throw FormatError("end piece without a matching begin piece (node " +
                          std::to_string(record.node) + ", thread " +
                          std::to_string(record.thread) + ")");
      }
      stack.pop_back();
      return;
    }
    State& s = stack.emplace_back(State{record.eventType(), record.cpu,
                                        record.node, record.thread, {}});
    const std::size_t n = alwaysLen_[s.type];
    if (record.body.size() >= kCommonPrefixBytes + n) {
      s.alwaysBytes.assign(record.body.begin() + kCommonPrefixBytes,
                           record.body.begin() + kCommonPrefixBytes + n);
    }
  }

  /// Open states in (node, thread) order, each stack bottom to top.
  const Stacks& stacks() const { return stacks_; }

  /// Calls `fn` with the continuation pseudo-record of every open state,
  /// in stacks() order: a merged-file body of zero duration at `at`,
  /// carrying the state's always-fields and origStart = `at`.
  void restate(Tick at,
               const std::function<void(const RecordView&)>& fn) const {
    for (const auto& [key, stack] : stacks_) {
      for (const State& s : stack) {
        ByteWriter extra;
        extra.bytes(s.alwaysBytes);
        extra.u64(at);
        const ByteWriter body = encodeRecordBody(
            makeIntervalType(s.type, Bebits::kContinuation), at, /*dura=*/0,
            s.cpu, s.node, s.thread, extra.view());
        fn(RecordView::parse(body.view()));
      }
    }
  }

 private:
  std::map<EventType, std::size_t> alwaysLen_;
  Stacks stacks_;
};

}  // namespace ute
