#include "src/hw/phys_mem.h"

#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <vector>

namespace nova::hw {
namespace {

TEST(PhysMem, ReadZeroBeforeWrite) {
  PhysMem mem(1 << 20);
  EXPECT_EQ(mem.Read64(0x1000), 0u);
  EXPECT_EQ(mem.resident_frames(), 0u);  // Reads do not materialize frames.
}

TEST(PhysMem, WriteReadRoundTrip) {
  PhysMem mem(1 << 20);
  EXPECT_EQ(mem.Write64(0x2008, 0xdeadbeefcafebabeull), Status::kSuccess);
  EXPECT_EQ(mem.Read64(0x2008), 0xdeadbeefcafebabeull);
  EXPECT_EQ(mem.resident_frames(), 1u);
}

TEST(PhysMem, CrossPageAccess) {
  PhysMem mem(1 << 20);
  const std::uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(mem.Write(kPageSize - 4, data, 8), Status::kSuccess);
  std::uint8_t out[8] = {};
  EXPECT_EQ(mem.Read(kPageSize - 4, out, 8), Status::kSuccess);
  EXPECT_EQ(0, memcmp(data, out, 8));
  EXPECT_EQ(mem.resident_frames(), 2u);
}

TEST(PhysMem, OutOfBoundsFaults) {
  PhysMem mem(1 << 20);
  std::uint8_t buf[16];
  EXPECT_EQ(mem.Read((1 << 20), buf, 1), Status::kMemoryFault);
  EXPECT_EQ(mem.Read((1 << 20) - 8, buf, 16), Status::kMemoryFault);
  EXPECT_EQ(mem.Write((1 << 20) - 1, buf, 2), Status::kMemoryFault);
  EXPECT_EQ(mem.Write((1 << 20) - 1, buf, 1), Status::kSuccess);
}

TEST(PhysMem, ZeroClearsRange) {
  PhysMem mem(1 << 20);
  (void)mem.Write64(0x3000, ~0ull);
  (void)mem.Write64(0x3ff8, ~0ull);
  EXPECT_EQ(mem.Zero(0x3000, kPageSize), Status::kSuccess);
  EXPECT_EQ(mem.Read64(0x3000), 0u);
  EXPECT_EQ(mem.Read64(0x3ff8), 0u);
}

TEST(PhysMem, ContainsChecks) {
  PhysMem mem(0x10000);
  EXPECT_TRUE(mem.Contains(0, 0x10000));
  EXPECT_FALSE(mem.Contains(0, 0x10001));
  EXPECT_FALSE(mem.Contains(0x10000, 1));
  EXPECT_TRUE(mem.Contains(0xffff, 1));
}

TEST(PhysMem, SaveLoadRoundTrip) {
  PhysMem src(1 << 20);
  (void)src.Write64(0x5008, 0x1122334455667788ull);
  (void)src.Write64(0x1000, 0x99ull);
  (void)src.Write64(0xff000, 0xabcdull);
  sim::SnapWriter w;
  ASSERT_EQ(src.SaveState(w), Status::kSuccess);

  PhysMem dst(1 << 20);
  (void)dst.Write64(0x7000, 1);  // Dropped by the load.
  sim::SnapReader r(w.data().data(), w.size());
  ASSERT_EQ(dst.LoadState(r), Status::kSuccess);
  EXPECT_EQ(r.Finish(), Status::kSuccess);
  EXPECT_EQ(dst.resident_frames(), 3u);
  EXPECT_EQ(dst.Read64(0x5008), 0x1122334455667788ull);
  EXPECT_EQ(dst.Read64(0x1000), 0x99ull);
  EXPECT_EQ(dst.Read64(0xff000), 0xabcdull);
  EXPECT_EQ(dst.Read64(0x7000), 0u);

  // RAM that ends mid-page still owns that last, partial frame.
  PhysMem partial_src(0x1800);
  ASSERT_EQ(partial_src.Write64(0x1400, 0x5566ull), Status::kSuccess);
  sim::SnapWriter pw;
  ASSERT_EQ(partial_src.SaveState(pw), Status::kSuccess);
  PhysMem partial_dst(0x1800);
  sim::SnapReader pr(pw.data().data(), pw.size());
  ASSERT_EQ(partial_dst.LoadState(pr), Status::kSuccess);
  EXPECT_EQ(pr.Finish(), Status::kSuccess);
  EXPECT_EQ(partial_dst.resident_frames(), 1u);
  EXPECT_EQ(partial_dst.Read64(0x1400), 0x5566ull);
}

// A migration stream carrying `frame_nos` (one zero page each) for a
// 1 MiB machine.
std::vector<std::uint8_t> StreamWithFrames(
    std::initializer_list<std::uint64_t> frame_nos) {
  sim::SnapWriter w;
  w.U64(1 << 20);
  w.U64(frame_nos.size());
  const std::array<std::uint8_t, kPageSize> page{};
  for (const std::uint64_t frame_no : frame_nos) {
    w.U64(frame_no);
    w.Bytes(page.data(), page.size());
  }
  return w.data();
}

// The load must fail and keep resident_frames() equal to the frames it
// actually holds: those accepted before the bad record.
void ExpectRejected(const std::vector<std::uint8_t>& stream,
                    std::size_t frames_held) {
  PhysMem mem(1 << 20);
  sim::SnapReader r(stream.data(), stream.size());
  EXPECT_EQ(mem.LoadState(r), Status::kBadParameter);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(mem.resident_frames(), frames_held);
  // Touching every page materializes exactly the frames not yet held.
  for (PhysAddr a = 0; a < mem.size(); a += kPageSize) {
    (void)mem.Write64(a, 1);
  }
  EXPECT_EQ(mem.resident_frames(), mem.size() / kPageSize);
}

TEST(PhysMem, LoadRejectsFrameBeyondRam) {
  ExpectRejected(StreamWithFrames({3, 256}), 1);
  ExpectRejected(StreamWithFrames({~0ull}), 0);
}

TEST(PhysMem, LoadRejectsDuplicateFrame) {
  ExpectRejected(StreamWithFrames({2, 5, 5}), 2);
}

TEST(PhysMem, LoadRejectsDescendingFrames) {
  ExpectRejected(StreamWithFrames({9, 4}), 1);
}

}  // namespace
}  // namespace nova::hw
