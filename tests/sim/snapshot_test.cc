#include "src/sim/snapshot.h"

#include <gtest/gtest.h>

namespace nova::sim {
namespace {

TEST(SnapWriterReader, AllTypesRoundTrip) {
  SnapWriter w;
  w.U8(0xab);
  w.U16(0xbeef);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.I64(-42);
  w.Bool(true);
  w.F64(3.25);
  w.Str("hello");
  const std::uint8_t blob[3] = {1, 2, 3};
  w.Bytes(blob, sizeof(blob));

  SnapReader r(w.data().data(), w.size());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0xbeef);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.F64(), 3.25);
  EXPECT_EQ(r.Str(), "hello");
  std::uint8_t out[3] = {};
  r.Bytes(out, sizeof(out));
  EXPECT_EQ(out[2], 3);
  EXPECT_EQ(r.Finish(), Status::kSuccess);
}

TEST(SnapReader, TruncationLatchesAndZeroes) {
  SnapWriter w;
  w.U32(7);
  SnapReader r(w.data().data(), w.size());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 0u);  // Past the end: zero, latched.
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U32(), 0u);  // Still zero after the latch.
  EXPECT_EQ(r.Finish(), Status::kBadParameter);
}

TEST(SnapReader, PartialConsumptionFailsFinish) {
  SnapWriter w;
  w.U32(1);
  w.U32(2);
  SnapReader r(w.data().data(), w.size());
  EXPECT_EQ(r.U32(), 1u);
  EXPECT_TRUE(r.ok());  // No error yet...
  EXPECT_EQ(r.Finish(), Status::kBadParameter);  // ...but bytes remain.
}

TEST(Snapshot, EncodeDecodeRoundTrip) {
  Snapshot snap;
  snap.Section("b.second", 2).U64(99);
  SnapWriter& a = snap.Section("a.first", 1);
  a.U32(7);
  a.Str("state");

  Snapshot decoded;
  ASSERT_EQ(decoded.Decode(snap.Encode()), Status::kSuccess);
  ASSERT_TRUE(decoded.Has("a.first"));
  ASSERT_TRUE(decoded.Has("b.second"));
  EXPECT_EQ(decoded.SectionVersion("b.second"), 2);

  SnapReader r = decoded.Open("a.first", 1);
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.Str(), "state");
  EXPECT_EQ(r.Finish(), Status::kSuccess);
}

TEST(Snapshot, EncodeIsDeterministic) {
  const auto build = [] {
    Snapshot snap;
    snap.Section("z", 1).U64(1);
    snap.Section("a", 1).U64(2);
    return snap.Encode();
  };
  EXPECT_EQ(build(), build());
}

TEST(Snapshot, MissingSectionYieldsFailedReader) {
  Snapshot snap;
  SnapReader r = snap.Open("nope", 1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_EQ(r.Finish(), Status::kBadParameter);
}

TEST(Snapshot, VersionSkewYieldsFailedReader) {
  Snapshot snap;
  snap.Section("dev", 3).U64(1);
  SnapReader ok = snap.Open("dev", 3);
  EXPECT_TRUE(ok.ok());
  SnapReader skew = snap.Open("dev", 2);
  EXPECT_FALSE(skew.ok());
}

TEST(Snapshot, CorruptionDetectedOnDecode) {
  Snapshot snap;
  snap.Section("dev", 1).U64(0x1122334455667788ull);
  std::vector<std::uint8_t> bytes = snap.Encode();
  bytes.back() ^= 0xff;  // Flip payload: checksum must catch it.
  Snapshot decoded;
  EXPECT_NE(decoded.Decode(bytes), Status::kSuccess);
}

TEST(Snapshot, SectionLongerThanInputRejectedBeforeAllocating) {
  SnapWriter w;
  w.Bytes(Snapshot::kMagic, sizeof Snapshot::kMagic);
  w.U32(Snapshot::kFileVersion);
  w.U32(1);
  w.Str("dev");
  w.U16(1);
  w.U64(1ull << 62);  // Payload size: 4 EiB, none of it present.
  w.U64(0);
  Snapshot decoded;
  EXPECT_EQ(decoded.Decode(w.data()), Status::kBadParameter);
}

TEST(Snapshot, BadMagicRejected) {
  Snapshot snap;
  snap.Section("dev", 1).U64(1);
  std::vector<std::uint8_t> bytes = snap.Encode();
  bytes[0] ^= 0xff;
  Snapshot decoded;
  EXPECT_NE(decoded.Decode(bytes), Status::kSuccess);
}

TEST(Snapshot, PayloadBytesSumsSections) {
  Snapshot snap;
  snap.Section("a", 1).U64(1);  // 8 bytes.
  snap.Section("b", 1).U32(1);  // 4 bytes.
  EXPECT_EQ(snap.PayloadBytes(), 12u);
}

TEST(Snapshot, SectionReplaceDropsOldContent) {
  Snapshot snap;
  snap.Section("a", 1).U64(1);
  snap.Section("a", 1).U32(7);  // Restart the section.
  SnapReader r = snap.Open("a", 1);
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.Finish(), Status::kSuccess);
}

}  // namespace
}  // namespace nova::sim
