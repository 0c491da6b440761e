#include "interval/profile.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "interval/standard_profile.h"
#include "support/rng.h"

#include <unistd.h>

namespace ute {
namespace {

Profile sampleProfile() {
  ProfileBuilder b(7);
  b.record(makeIntervalType(EventType::kMpiSend, Bebits::kComplete),
           "MPI_Send");
  b.scalar("type", DataType::kU32);
  b.scalar("start", DataType::kU64);
  b.scalar("destTask", DataType::kI32);
  b.vector("payload", DataType::kChar, 2, /*attr=*/1);
  b.record(makeIntervalType(EventType::kMpiSend, Bebits::kBegin), "MPI_Send");
  b.scalar("type", DataType::kU32);
  b.scalar("start", DataType::kU64);
  return b.build();
}

TEST(Profile, BuilderInternsNames) {
  const Profile p = sampleProfile();
  EXPECT_EQ(p.versionId(), 7u);
  EXPECT_EQ(p.recordNames().size(), 1u);  // both specs share "MPI_Send"
  EXPECT_EQ(p.fieldNames().size(), 4u);
  ASSERT_TRUE(p.fieldNameIndex("destTask").has_value());
  EXPECT_FALSE(p.fieldNameIndex("unknown").has_value());
}

TEST(Profile, FindBySpecificIntervalType) {
  const Profile p = sampleProfile();
  const auto* complete =
      p.find(makeIntervalType(EventType::kMpiSend, Bebits::kComplete));
  ASSERT_NE(complete, nullptr);
  EXPECT_EQ(complete->fields.size(), 4u);
  const auto* begin =
      p.find(makeIntervalType(EventType::kMpiSend, Bebits::kBegin));
  ASSERT_NE(begin, nullptr);
  EXPECT_EQ(begin->fields.size(), 2u);
  EXPECT_EQ(p.find(12345), nullptr);
}

TEST(Profile, EncodeDecodeRoundTrip) {
  const Profile p = sampleProfile();
  const Profile back = Profile::decode(p.encode().view());
  EXPECT_EQ(back.versionId(), p.versionId());
  EXPECT_EQ(back.specs().size(), p.specs().size());
  const auto* spec =
      back.find(makeIntervalType(EventType::kMpiSend, Bebits::kComplete));
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(back.recordName(*spec), "MPI_Send");
  ASSERT_EQ(spec->fields.size(), 4u);
  EXPECT_EQ(back.fieldName(spec->fields[2]), "destTask");
  EXPECT_TRUE(spec->fields[3].isVector);
  EXPECT_EQ(spec->fields[3].attr, 1);
}

TEST(Profile, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (std::to_string(getpid()) + ".profile_rt.ute"))
          .string();
  sampleProfile().writeFile(path);
  const Profile back = Profile::readFile(path);
  EXPECT_EQ(back.versionId(), 7u);
}

TEST(Profile, DuplicateRecordTypeRejected) {
  ProfileBuilder b(1);
  b.record(5, "a");
  EXPECT_THROW(b.record(5, "b"), UsageError);
}

TEST(Profile, FieldBeforeRecordRejected) {
  ProfileBuilder b(1);
  EXPECT_THROW(b.scalar("x", DataType::kU8), UsageError);
}

TEST(Profile, DecodeRejectsGarbage) {
  const std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_THROW(Profile::decode(junk), FormatError);
}

TEST(Profile, DescribeMentionsRecordsAndFields) {
  const std::string text = sampleProfile().describe();
  EXPECT_NE(text.find("MPI_Send"), std::string::npos);
  EXPECT_NE(text.find("destTask"), std::string::npos);
  EXPECT_NE(text.find("complete"), std::string::npos);
}

TEST(StandardProfile, CoversAllBebitsOfAllStates) {
  const Profile p = makeStandardProfile();
  EXPECT_EQ(p.versionId(), kStandardProfileVersion);
  for (const EventType event :
       {kRunningState, EventType::kUserMarker, EventType::kMpiSend,
        EventType::kMpiRecv, EventType::kMpiBarrier,
        EventType::kMpiAllreduce}) {
    for (const Bebits bebits : {Bebits::kComplete, Bebits::kBegin,
                                Bebits::kContinuation, Bebits::kEnd}) {
      EXPECT_NE(p.find(makeIntervalType(event, bebits)), nullptr)
          << eventTypeName(event) << "/" << bebitsName(bebits);
    }
  }
  // ClockSync exists only as complete.
  EXPECT_NE(p.find(makeIntervalType(kClockSyncState, Bebits::kComplete)),
            nullptr);
  EXPECT_EQ(p.find(makeIntervalType(kClockSyncState, Bebits::kBegin)),
            nullptr);
}

TEST(StandardProfile, ArgumentFieldsOnlyOnFirstPieces) {
  const Profile p = makeStandardProfile();
  const auto fieldCount = [&](Bebits bebits) {
    return p.find(makeIntervalType(EventType::kMpiSend, bebits))
        ->fields.size();
  };
  // begin/complete carry the 5 send arguments; continuation does not.
  EXPECT_EQ(fieldCount(Bebits::kComplete), fieldCount(Bebits::kBegin));
  EXPECT_EQ(fieldCount(Bebits::kBegin), fieldCount(Bebits::kContinuation) + 5);
  EXPECT_EQ(fieldCount(Bebits::kEnd), fieldCount(Bebits::kContinuation));
}

TEST(StandardProfile, RecvResultsOnlyOnLastPieces) {
  const Profile p = makeStandardProfile();
  const auto has = [&](Bebits bebits, const char* name) {
    const auto* spec = p.find(makeIntervalType(EventType::kMpiRecv, bebits));
    for (const FieldSpec& f : spec->fields) {
      if (p.fieldName(f) == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(Bebits::kComplete, kFieldMsgSizeRecv));
  EXPECT_TRUE(has(Bebits::kEnd, kFieldMsgSizeRecv));
  EXPECT_FALSE(has(Bebits::kBegin, kFieldMsgSizeRecv));
  EXPECT_TRUE(has(Bebits::kBegin, kFieldSrcWanted));
  EXPECT_FALSE(has(Bebits::kEnd, kFieldSrcWanted));
}

TEST(StandardProfile, OrigStartIsMergedOnly) {
  const Profile p = makeStandardProfile();
  for (const auto& [type, spec] : p.specs()) {
    const FieldSpec& last = spec.fields.back();
    EXPECT_EQ(p.fieldName(last), kFieldOrigStart);
    EXPECT_EQ(last.attr, 1);
    EXPECT_TRUE(last.selectedBy(kMergedFileMask));
    EXPECT_FALSE(last.selectedBy(kNodeFileMask));
  }
}

TEST(StandardProfile, DeterministicBytes) {
  const auto a = makeStandardProfile().encode();
  const auto b = makeStandardProfile().encode();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.view().begin(), a.view().end(), b.view().begin()));
}

class ProfileFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProfileFuzzTest, RandomProfilesRoundTrip) {
  Rng rng(GetParam());
  ProfileBuilder b(static_cast<std::uint32_t>(rng.next()));
  const int nRecords = 1 + static_cast<int>(rng.below(20));
  for (int r = 0; r < nRecords; ++r) {
    b.record(static_cast<IntervalType>(r * 4), "rec" + std::to_string(r));
    const int nFields = 1 + static_cast<int>(rng.below(12));
    for (int f = 0; f < nFields; ++f) {
      const auto type = static_cast<DataType>(rng.below(10));
      const auto attr = static_cast<std::uint8_t>(rng.below(4));
      std::string name = "f";
      name += std::to_string(rng.below(30));
      if (rng.chance(0.25)) {
        const std::uint8_t counters[] = {1, 2, 4};
        b.vector(name, type, counters[rng.below(3)], attr);
      } else {
        b.scalar(name, type, attr);
      }
    }
  }
  const Profile p = b.build();
  const Profile back = Profile::decode(p.encode().view());
  ASSERT_EQ(back.specs().size(), p.specs().size());
  for (const auto& [type, spec] : p.specs()) {
    const auto* other = back.find(type);
    ASSERT_NE(other, nullptr);
    ASSERT_EQ(other->fields.size(), spec.fields.size());
    for (std::size_t i = 0; i < spec.fields.size(); ++i) {
      EXPECT_EQ(encodeFieldWord(other->fields[i]),
                encodeFieldWord(spec.fields[i]));
      EXPECT_EQ(back.fieldName(other->fields[i]),
                p.fieldName(spec.fields[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace ute
