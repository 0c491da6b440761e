// OpenStates (Sections 2.3.3 and 3.3): the open-state tracker both
// writers restate frames from. Popped stack slots are reused, so these
// tests churn the stacks — pushes, pops and pushes into freed slots —
// and check that each frame start restates exactly the live states.
#include "interval/open_states.h"

#include <gtest/gtest.h>

#include <vector>

#include "interval/standard_profile.h"

namespace ute {
namespace {

/// A merged-file begin or end piece: a marker carries its id (the
/// always-field) and an instruction address; origStart comes last.
ByteWriter piece(EventType type, Bebits bebits, Tick start, NodeId node,
                 LogicalThreadId thread, std::uint32_t markerId = 0) {
  ByteWriter extra;
  if (type == EventType::kUserMarker) {
    extra.u32(markerId);
    extra.u64(0x1000 + markerId);
  }
  extra.u64(start);
  return encodeRecordBody(makeIntervalType(type, bebits), start, /*dura=*/1,
                          /*cpu=*/node + 2, node, thread, extra.view());
}

void track(OpenStates& states, const ByteWriter& body) {
  states.track(RecordView::parse(body.view()));
}

/// The pseudo-record encoding as written before slots were reused: the
/// continuation type, zero duration at `at`, the always-fields, origStart.
std::vector<std::uint8_t> expectedPseudo(EventType type, Tick at,
                                         NodeId node, LogicalThreadId thread,
                                         std::vector<std::uint8_t> always) {
  ByteWriter extra;
  extra.bytes(always);
  extra.u64(at);
  const ByteWriter body =
      encodeRecordBody(makeIntervalType(type, Bebits::kContinuation), at, 0,
                       node + 2, node, thread, extra.view());
  return {body.view().begin(), body.view().end()};
}

std::vector<std::uint8_t> markerAlways(std::uint32_t id) {
  ByteWriter w;
  w.u32(id);
  return w.take();
}

std::vector<std::vector<std::uint8_t>> restated(OpenStates& states, Tick at) {
  std::vector<std::vector<std::uint8_t>> bodies;
  states.restate(at, [&](const RecordView& pseudo) {
    EXPECT_EQ(RecordView::parse(pseudo.body).intervalType,
              pseudo.intervalType);
    EXPECT_EQ(pseudo.start, at);
    EXPECT_EQ(pseudo.dura, 0u);
    bodies.emplace_back(pseudo.body.begin(), pseudo.body.end());
  });
  return bodies;
}

TEST(OpenStates, ReusedSlotsRestateOnlyLiveStates) {
  const Profile profile = makeStandardProfile();
  OpenStates states(profile);

  // Frame 1: three begins, two of them nested on (0, 1).
  track(states, piece(EventType::kUserMarker, Bebits::kBegin, 10, 0, 1, 7));
  track(states, piece(kRunningState, Bebits::kBegin, 20, 0, 0));
  track(states, piece(EventType::kUserMarker, Bebits::kBegin, 30, 0, 1, 9));
  EXPECT_EQ(restated(states, 35),
            (std::vector<std::vector<std::uint8_t>>{
                expectedPseudo(kRunningState, 35, 0, 0, {}),
                expectedPseudo(EventType::kUserMarker, 35, 0, 1,
                               markerAlways(7)),
                expectedPseudo(EventType::kUserMarker, 35, 0, 1,
                               markerAlways(9)),
            }));

  // Frame 2: both markers end; their slots stay allocated but dead.
  track(states, piece(EventType::kUserMarker, Bebits::kEnd, 40, 0, 1, 9));
  track(states, piece(EventType::kUserMarker, Bebits::kEnd, 50, 0, 1, 7));
  EXPECT_EQ(states.stacks().at({0, 1}).size(), 0u);
  EXPECT_EQ(restated(states, 55),
            (std::vector<std::vector<std::uint8_t>>{
                expectedPseudo(kRunningState, 55, 0, 0, {})}));

  // Frame 3: a Running begin reuses the slot marker 7 held, and must not
  // inherit its always-field bytes.
  track(states, piece(kRunningState, Bebits::kBegin, 60, 0, 1));
  EXPECT_EQ(states.stacks().at({0, 1}).size(), 1u);
  EXPECT_EQ(restated(states, 65),
            (std::vector<std::vector<std::uint8_t>>{
                expectedPseudo(kRunningState, 65, 0, 0, {}),
                expectedPseudo(kRunningState, 65, 0, 1, {}),
            }));

  // A popped slot is not a live state: its end piece cannot match again.
  EXPECT_THROW(
      track(states, piece(EventType::kUserMarker, Bebits::kEnd, 70, 0, 1, 7)),
      FormatError);
}

TEST(OpenStates, RestatesInNodeThreadOrder) {
  const Profile profile = makeStandardProfile();
  OpenStates states(profile);
  track(states, piece(kRunningState, Bebits::kBegin, 10, 1, 0));
  track(states, piece(kRunningState, Bebits::kBegin, 20, 0, 3));
  track(states, piece(EventType::kUserMarker, Bebits::kBegin, 30, 0, 1, 4));
  EXPECT_EQ(restated(states, 40),
            (std::vector<std::vector<std::uint8_t>>{
                expectedPseudo(EventType::kUserMarker, 40, 0, 1,
                               markerAlways(4)),
                expectedPseudo(kRunningState, 40, 0, 3, {}),
                expectedPseudo(kRunningState, 40, 1, 0, {}),
            }));
}

}  // namespace
}  // namespace ute
