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

  /// One (node, thread)'s open states, bottom to top. An end piece pops
  /// by moving the depth down and keeps the slot, so the next begin piece
  /// reuses its always-field buffer instead of allocating one.
  class Stack {
   public:
    std::size_t size() const { return depth_; }
    const State& operator[](std::size_t i) const { return slots_[i]; }
    const State* begin() const { return slots_.data(); }
    const State* end() const { return slots_.data() + depth_; }

   private:
    friend class OpenStates;
    std::vector<State> slots_;
    std::size_t depth_ = 0;  ///< live slots; the rest wait for reuse
  };
  using Stacks = std::map<std::pair<NodeId, LogicalThreadId>, Stack>;

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
    Stack& stack = stacks_[{record.node, record.thread}];
    if (bebits == Bebits::kEnd) {
      if (stack.depth_ == 0 ||
          stack.slots_[stack.depth_ - 1].type != record.eventType()) {
        throw FormatError("end piece without a matching begin piece (node " +
                          std::to_string(record.node) + ", thread " +
                          std::to_string(record.thread) + ")");
      }
      --stack.depth_;
      return;
    }
    if (stack.depth_ == stack.slots_.size()) stack.slots_.emplace_back();
    State& s = stack.slots_[stack.depth_++];
    s.type = record.eventType();
    s.cpu = record.cpu;
    s.node = record.node;
    s.thread = record.thread;
    const std::size_t n = alwaysLen_[s.type];
    if (record.body.size() >= kCommonPrefixBytes + n) {
      s.alwaysBytes.assign(record.body.begin() + kCommonPrefixBytes,
                           record.body.begin() + kCommonPrefixBytes + n);
    } else {
      s.alwaysBytes.clear();
    }
  }

  /// Open states in (node, thread) order, each stack bottom to top.
  const Stacks& stacks() const { return stacks_; }

  /// Calls `fn(const RecordView&)` with the continuation pseudo-record of
  /// every open state, in stacks() order: a merged-file body of zero
  /// duration at `at`, carrying the state's always-fields and origStart =
  /// `at`. Each body is encoded into one reused buffer, valid only for
  /// the duration of its call.
  template <typename Fn>
  void restate(Tick at, Fn&& fn) {
    for (const auto& [key, stack] : stacks_) {
      for (const State& s : stack) {
        RecordView view;
        view.intervalType = makeIntervalType(s.type, Bebits::kContinuation);
        view.start = at;
        view.dura = 0;
        view.cpu = s.cpu;
        view.node = s.node;
        view.thread = s.thread;
        pseudo_.clear();
        appendRecordBody(pseudo_, view.intervalType, at, /*dura=*/0, s.cpu,
                         s.node, s.thread, s.alwaysBytes);
        pseudo_.u64(at);
        view.body = pseudo_.view();
        fn(view);
      }
    }
  }

 private:
  std::map<EventType, std::size_t> alwaysLen_;
  Stacks stacks_;
  ByteWriter pseudo_;  ///< restate's encode buffer
};

}  // namespace ute
