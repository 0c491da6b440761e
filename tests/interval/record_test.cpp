#include "interval/record.h"

#include <gtest/gtest.h>

#include "interval/standard_profile.h"

namespace ute {
namespace {

ByteWriter sampleBody() {
  ByteWriter extra;
  extra.i32(2);      // destTask
  extra.i32(17);     // tag
  extra.u32(4096);   // msgSizeSent
  extra.u32(33);     // seqNo
  extra.i32(0);      // comm
  return encodeRecordBody(
      makeIntervalType(EventType::kMpiSend, Bebits::kComplete),
      /*start=*/1000, /*dura=*/250, /*cpu=*/3, /*node=*/1, /*thread=*/5,
      extra.view());
}

TEST(Record, CommonPrefixParses) {
  const ByteWriter body = sampleBody();
  const RecordView v = RecordView::parse(body.view());
  EXPECT_EQ(v.eventType(), EventType::kMpiSend);
  EXPECT_EQ(v.bebits(), Bebits::kComplete);
  EXPECT_EQ(v.start, 1000u);
  EXPECT_EQ(v.dura, 250u);
  EXPECT_EQ(v.end(), 1250u);
  EXPECT_EQ(v.cpu, 3);
  EXPECT_EQ(v.node, 1);
  EXPECT_EQ(v.thread, 5);
}

TEST(Record, ShortBodyRejected) {
  const std::vector<std::uint8_t> tiny(10, 0);
  EXPECT_THROW(RecordView::parse(tiny), FormatError);
}

TEST(Record, ClockSyncPairReadsBothClocks) {
  const IntervalType type = makeIntervalType(kClockSyncState,
                                             Bebits::kComplete);
  ByteWriter global;
  global.u64(0x0102030405060708ull);
  const ByteWriter body =
      encodeRecordBody(type, /*start=*/777, 0, 0, 1, 0, global.view());
  const TimestampPair pair = clockSyncPair(RecordView::parse(body.view()));
  EXPECT_EQ(pair.local, 777u);
  EXPECT_EQ(pair.global, 0x0102030405060708ull);

  // A body that ends before the global reading is a format error.
  const ByteWriter shortBody = encodeRecordBody(type, 777, 0, 0, 1, 0);
  EXPECT_THROW(clockSyncPair(RecordView::parse(shortBody.view())),
               FormatError);
}

TEST(Record, LengthPrefixShortAndExtended) {
  std::vector<std::uint8_t> out;
  const ByteWriter small = sampleBody();
  appendRecordWithLength(out, small.view());
  EXPECT_EQ(out[0], small.size());
  EXPECT_EQ(recordSizeOnDisk(small.size()), small.size() + 1);

  // A record longer than 255 bytes uses the 0 + u16 escape.
  ByteWriter extra;
  for (int i = 0; i < 100; ++i) extra.u32(static_cast<std::uint32_t>(i));
  const ByteWriter big = encodeRecordBody(1, 0, 0, 0, 0, 0, extra.view());
  std::vector<std::uint8_t> out2;
  appendRecordWithLength(out2, big.view());
  EXPECT_EQ(out2[0], 0);
  EXPECT_EQ(recordSizeOnDisk(big.size()), big.size() + 3);

  // Both decode back.
  ByteReader r1(out);
  EXPECT_EQ(readLengthPrefixedRecord(r1).size(), small.size());
  ByteReader r2(out2);
  EXPECT_EQ(readLengthPrefixedRecord(r2).size(), big.size());
}

TEST(Record, PatchTimesInPlace) {
  ByteWriter body = sampleBody();
  std::vector<std::uint8_t> bytes(body.view().begin(), body.view().end());
  patchRecordTimes(bytes, 777777, 42);
  const RecordView v = RecordView::parse(bytes);
  EXPECT_EQ(v.start, 777777u);
  EXPECT_EQ(v.dura, 42u);
  // Other fields untouched.
  EXPECT_EQ(v.cpu, 3);
  EXPECT_EQ(v.thread, 5);
}

TEST(Record, GetScalarByNameFindsArguments) {
  const Profile profile = makeStandardProfile();
  const ByteWriter body = sampleBody();
  const RecordView v = RecordView::parse(body.view());
  EXPECT_EQ(getScalarByName(profile, kNodeFileMask, v, "msgSizeSent"),
            std::optional<std::int64_t>(4096));
  EXPECT_EQ(getScalarByName(profile, kNodeFileMask, v, "destTask"),
            std::optional<std::int64_t>(2));
  EXPECT_EQ(getScalarByName(profile, kNodeFileMask, v, "seqNo"),
            std::optional<std::int64_t>(33));
  EXPECT_EQ(getScalarByName(profile, kNodeFileMask, v, "start"),
            std::optional<std::int64_t>(1000));
  EXPECT_FALSE(
      getScalarByName(profile, kNodeFileMask, v, "nonexistent").has_value());
  // origStart is masked out in node files...
  EXPECT_FALSE(
      getScalarByName(profile, kNodeFileMask, v, "origStart").has_value());
}

TEST(Record, MaskSelectsMergedOnlyFields) {
  const Profile profile = makeStandardProfile();
  ByteWriter extra;
  extra.i32(2);
  extra.i32(17);
  extra.u32(4096);
  extra.u32(33);
  extra.i32(0);
  extra.u64(999999);  // origStart, present under the merged mask
  const ByteWriter body = encodeRecordBody(
      makeIntervalType(EventType::kMpiSend, Bebits::kComplete), 1000, 250, 3,
      1, 5, extra.view());
  const RecordView v = RecordView::parse(body.view());
  EXPECT_EQ(getScalarByName(profile, kMergedFileMask, v, "origStart"),
            std::optional<std::int64_t>(999999));
  EXPECT_EQ(getScalarByName(profile, kMergedFileMask, v, "msgSizeSent"),
            std::optional<std::int64_t>(4096));
}

TEST(Record, SignExtensionOfNegativeFields) {
  const Profile profile = makeStandardProfile();
  ByteWriter extra;
  extra.i32(-1);  // srcWanted = MPI_ANY_SOURCE
  extra.i32(-1);  // tagWanted = MPI_ANY_TAG
  extra.i32(0);   // comm
  const ByteWriter body = encodeRecordBody(
      makeIntervalType(EventType::kMpiRecv, Bebits::kBegin), 10, 5, 0, 0, 0,
      extra.view());
  const RecordView v = RecordView::parse(body.view());
  EXPECT_EQ(getScalarByName(profile, kNodeFileMask, v, "srcWanted"),
            std::optional<std::int64_t>(-1));
}

TEST(Record, VectorFieldsWalkAndDecode) {
  // Custom profile: a record with a char-vector in the middle, then a
  // scalar that therefore has no fixed offset.
  ProfileBuilder b(1);
  b.record(4, "note");
  b.scalar("type", DataType::kU32);
  b.scalar("start", DataType::kU64);
  b.scalar("dura", DataType::kU64);
  b.scalar("cpu", DataType::kI32);
  b.scalar("node", DataType::kI32);
  b.scalar("thread", DataType::kI32);
  b.vector("text", DataType::kChar, 2);
  b.scalar("after", DataType::kU32);
  const Profile profile = b.build();

  ByteWriter extra;
  extra.lstring("hello interval");  // u16 counter + chars: matches spec
  extra.u32(777);
  const ByteWriter body = encodeRecordBody(4, 1, 2, 0, 0, 0, extra.view());
  const RecordView v = RecordView::parse(body.view());

  EXPECT_EQ(getStringByName(profile, ~0ull, v, "text"),
            std::optional<std::string>("hello interval"));
  EXPECT_EQ(getScalarByName(profile, ~0ull, v, "after"),
            std::optional<std::int64_t>(777));

  // forEachField visits all selected fields in order.
  std::vector<std::string> seen;
  forEachField(*profile.find(4), ~0ull, v.body,
               [&](const FieldSpec& f, std::span<const std::uint8_t>,
                   std::uint32_t) {
                 seen.push_back(profile.fieldName(f));
                 return true;
               });
  ASSERT_EQ(seen.size(), 8u);
  EXPECT_EQ(seen[6], "text");
  EXPECT_EQ(seen[7], "after");
}

TEST(Record, FieldAccessorFastAndSlowPathsAgree) {
  const Profile profile = makeStandardProfile();
  const ByteWriter body = sampleBody();
  const RecordView v = RecordView::parse(body.view());
  const IntervalType type =
      makeIntervalType(EventType::kMpiSend, Bebits::kComplete);
  const FieldAccessor fast(profile, type, kNodeFileMask, "seqNo");
  EXPECT_TRUE(fast.present());
  EXPECT_EQ(fast.get(v), std::optional<std::int64_t>(33));

  const FieldAccessor absent(profile, type, kNodeFileMask, "imaginary");
  EXPECT_FALSE(absent.present());
  EXPECT_FALSE(absent.get(v).has_value());

  // Slow path: field behind a vector in a custom profile.
  ProfileBuilder b(1);
  b.record(8, "vec");
  b.scalar("type", DataType::kU32);
  b.scalar("start", DataType::kU64);
  b.scalar("dura", DataType::kU64);
  b.scalar("cpu", DataType::kI32);
  b.scalar("node", DataType::kI32);
  b.scalar("thread", DataType::kI32);
  b.vector("blob", DataType::kU8, 1);
  b.scalar("tail", DataType::kI64);
  const Profile custom = b.build();
  ByteWriter extra;
  extra.u8(3);
  extra.u8(9);
  extra.u8(9);
  extra.u8(9);
  extra.i64(-5);
  const ByteWriter vecBody = encodeRecordBody(8, 0, 0, 0, 0, 0, extra.view());
  const FieldAccessor slow(custom, 8, ~0ull, "tail");
  EXPECT_TRUE(slow.present());
  EXPECT_EQ(slow.get(RecordView::parse(vecBody.view())),
            std::optional<std::int64_t>(-5));
}

TEST(Record, DecodeScalarHandlesAllTypes) {
  const std::uint8_t one[] = {0xff};
  EXPECT_EQ(decodeScalar(DataType::kU8, one), 255);
  EXPECT_EQ(decodeScalar(DataType::kI8, one), -1);
  const std::uint8_t two[] = {0x00, 0x80};
  EXPECT_EQ(decodeScalar(DataType::kI16, two), -32768);
  ByteWriter w;
  w.f64(2.75);
  EXPECT_EQ(decodeScalar(DataType::kF64, w.view()), 2);  // truncates
  EXPECT_DOUBLE_EQ(decodeScalarF64(DataType::kF64, w.view()), 2.75);
}

}  // namespace
}  // namespace ute
