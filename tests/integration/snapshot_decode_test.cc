// A snapshot stream is untrusted input (the migration target ingests it
// off the wire). Each test here forges one field that a loader used to
// trust, and requires the load to fail with a Status: promptly, without
// an exception, and without reading or writing out of bounds.
//
// Bounded decode: a count read from the stream never sizes an allocation
// or a loop. Range checks: indices and enum bytes outside their range fail
// the reader with kBadParameter.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "src/hw/ahci.h"
#include "src/hw/disk.h"
#include "src/hw/iommu.h"
#include "src/hw/irq.h"
#include "src/hw/tlb.h"
#include "src/sim/fault.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"
#include "tests/integration/snapshot_sections.h"

namespace nova::bench {
namespace {

using sim::SnapReader;
using sim::SnapWriter;

// Loads `obj` from `w`'s bytes. A forged count must not drive the decode
// past the bytes present, so the load returns well within a second.
template <class T>
Status TimedLoad(T& obj, const SnapWriter& w) {
  const auto t0 = std::chrono::steady_clock::now();
  SnapReader r(w.data().data(), w.size());
  const Status st = obj.LoadState(r);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  return st;
}

// --- Bounded decode: counts that sized an allocation --------------------

TEST(BoundedDecode, DistributionSampleCount) {
  SnapWriter w;
  for (int i = 0; i < 4 + 4; ++i) w.U64(1);  // count/sum/min/max, rng.
  w.U64(~0ull);                              // Samples, none present.
  sim::Distribution d;
  EXPECT_EQ(TimedLoad(d, w), Status::kBadParameter);
}

TEST(BoundedDecode, TlbTagFreeListCount) {
  SnapWriter w;
  w.U16(5);
  w.U32(~0u);  // 4 Gi free tags, none present.
  hw::TlbTagAllocator tags;
  EXPECT_EQ(TimedLoad(tags, w), Status::kBadParameter);
}

// The DiskModel stream up to its pending table: service clock, request
// cursor, two counters and `sectors` written sectors (none present).
SnapWriter DiskPrefix(std::uint64_t sectors) {
  SnapWriter w;
  for (int i = 0; i < 4; ++i) w.U64(0);
  w.U64(sectors);
  return w;
}

TEST(BoundedDecode, DiskPendingPayloadSize) {
  SnapWriter w = DiskPrefix(0);
  w.U32(1);  // One pending request...
  w.U64(1);
  w.Bool(true);
  w.U64(0);
  w.U64(512);
  w.U64(0);
  w.U64(1ull << 62);  // ...whose write payload claims 4 EiB.
  sim::EventQueue events;
  hw::DiskModel disk(&events, hw::DiskGeometry{});
  EXPECT_EQ(TimedLoad(disk, w), Status::kBadParameter);
}

TEST(BoundedDecode, DiskSectorCountLoop) {
  SnapWriter w = DiskPrefix(~0ull);
  sim::EventQueue events;
  hw::DiskModel disk(&events, hw::DiskGeometry{});
  EXPECT_EQ(TimedLoad(disk, w), Status::kBadParameter);
}

TEST(BoundedDecode, AhciInflightDataSize) {
  SnapWriter w;
  for (int i = 0; i < 9; ++i) w.U32(0);  // Register file.
  w.U64(0);                              // DMA faults.
  w.Bool(true);                          // Slot 0 active, a read...
  w.Bool(false);
  w.U64(1ull << 62);  // ...whose buffer claims 4 EiB.
  hw::PhysMem mem(1 << 20);
  hw::Iommu iommu(&mem, true);
  hw::IrqChip irq;
  sim::EventQueue events;
  hw::DiskModel disk(&events, hw::DiskGeometry{});
  hw::AhciController hba(7, &iommu, &irq, 11, &disk);
  EXPECT_EQ(TimedLoad(hba, w), Status::kBadParameter);
}

TEST(BoundedDecode, IommuContextCountLoop) {
  SnapWriter w;
  w.U32(~0u);  // 4 Gi device contexts, none present.
  hw::PhysMem mem(1 << 20);
  hw::Iommu iommu(&mem, true);
  EXPECT_EQ(TimedLoad(iommu, w), Status::kBadParameter);
}

TEST(BoundedDecode, TraceReportEntryCountLoop) {
  SnapWriter w;
  w.U32(~0u);  // 4 Gi entries, none present.
  sim::TraceReport report;
  EXPECT_EQ(TimedLoad(report, w), Status::kBadParameter);
}

TEST(BoundedDecode, TraceReportOpenSpanDepth) {
  SnapWriter w;
  w.U32(0);    // No entries.
  w.U32(1);    // One open-span stack...
  w.U8(0);
  w.U32(~0u);  // ...4 Gi deep, no spans present.
  sim::TraceReport report;
  EXPECT_EQ(TimedLoad(report, w), Status::kBadParameter);
}

// The CompileWorkload section of a real checkpoint, with the first
// process's working-set count forged and the section cut right after it.
TEST(BoundedDecode, CompileWorkloadTouchedCount) {
  CompileScenario scn(PinnedShadowConfig());
  RunToMidpoint(scn);
  sim::Snapshot snap;
  ASSERT_EQ(scn.SaveState(snap), Status::kSuccess);
  RawSection s = RawSections(snap).at("guest.workload");
  // Process count, two logic slots, the RNG, then process 0's cr3.
  constexpr std::size_t kTouched = 4 + 4 + 4 + 32 + 8;
  s.payload.resize(kTouched + 4);
  for (std::size_t i = kTouched; i < s.payload.size(); ++i) {
    s.payload[i] = 0xff;
  }
  SnapWriter w;
  w.Bytes(s.payload.data(), s.payload.size());
  EXPECT_EQ(TimedLoad(scn.workload(), w), Status::kBadParameter);
}

// --- Range checks: trace ring indices -----------------------------------

SnapWriter TracerStream(std::uint64_t total, std::uint64_t head,
                        std::uint64_t valid) {
  SnapWriter w;
  w.Bool(false);
  w.U64(0);  // Digest.
  w.U64(total);
  w.U64(4);  // Ring capacity, as the twin's.
  w.U64(head);
  w.U64(valid);
  for (std::uint64_t i = 0; i < valid; ++i) {
    w.U64(i);  // ts, arg0, arg1, name, cat, type, tid.
    w.U64(0);
    w.U64(0);
    w.U16(0);
    w.U8(0);
    w.U8(static_cast<std::uint8_t>(sim::TraceType::kInstant));
    w.U8(0);
  }
  w.U32(1);
  w.Str("<none>");
  return w;
}

TEST(RangeChecks, TracerRetainedCountBeyondRing) {
  sim::Tracer tracer(nullptr, 4);
  EXPECT_EQ(TimedLoad(tracer, TracerStream(8, 0, 8)), Status::kBadParameter);
}

TEST(RangeChecks, TracerHeadBeyondRing) {
  sim::Tracer tracer(nullptr, 4);
  EXPECT_EQ(TimedLoad(tracer, TracerStream(2, 4, 2)), Status::kBadParameter);
}

TEST(RangeChecks, TracerWellFormedStreamLoads) {
  sim::Tracer tracer(nullptr, 4);
  EXPECT_EQ(TimedLoad(tracer, TracerStream(6, 2, 4)), Status::kSuccess);
}

// --- Range checks: indices a loaded stream carries ----------------------

// A report's entry ids index the tracer's name table only when printed, so
// the load accepts any id and Rows skips the ones the tracer never made.
TEST(RangeChecks, TraceReportRowsSkipUnknownIds) {
  sim::Tracer tracer;
  const std::uint16_t known = tracer.Intern("known");
  SnapWriter w;
  w.U32(2);  // Two entries: a known id and one past the name table.
  w.U16(known);
  w.U64(3);
  w.U64(30);
  w.U16(999);
  w.U64(1);
  w.U64(10);
  w.U32(0);  // No open spans.
  sim::TraceReport report;
  ASSERT_EQ(TimedLoad(report, w), Status::kSuccess);
  const auto rows = report.Rows(tracer);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.at("known"), (sim::TraceReport::Entry{3, 30}));
}

// An armed plan's activation events index its entries; a forged index
// must fail the event queue's load instead of arming a write past them.
TEST(RangeChecks, FaultPlanActivationIndexBeyondEntries) {
  SnapWriter w;
  w.U64(0);  // now, next seq, next id.
  w.U64(1);
  w.U64(2);
  w.U64(1);  // One pending event: when, seq, id, then its tag.
  w.U64(5);
  w.U64(0);
  w.U64(1);
  w.U64(sim::EventQueue::OwnerToken("sim.faultplan"));
  w.U32(1);
  w.U64(1);  // Entry 1 of a one-entry plan.
  w.U64(0);
  sim::FaultEvent ev;
  ev.at = 5;
  sim::FaultPlan plan(1);
  plan.Schedule(ev);
  sim::EventQueue events;
  plan.Arm(&events);
  EXPECT_EQ(TimedLoad(events, w), Status::kBadCapability);
  events.AdvanceTo(10);
}

// --- Range checks: a TLB's entries against its capacity ----------------

struct TlbRecord {
  std::uint16_t tag;
  std::uint64_t vpage;
  bool large;
  std::uint64_t page_size;
  std::uint64_t lru;
};

// A Tlb stream with the given stored counts and entries; the LRU clock
// is the largest stamp.
SnapWriter TlbStream(std::uint32_t count_4k, std::uint32_t count_large,
                     const std::vector<TlbRecord>& records) {
  std::uint64_t clock = 0;
  for (const TlbRecord& rec : records) clock = std::max(clock, rec.lru);
  SnapWriter w;
  w.U32(count_4k);
  w.U32(count_large);
  w.U64(clock);
  for (int i = 0; i < 3; ++i) w.U64(0);  // Hits, misses, flushes.
  w.U32(static_cast<std::uint32_t>(records.size()));
  for (const TlbRecord& rec : records) {
    w.U16(rec.tag);
    w.U64(rec.vpage);
    w.Bool(rec.large);
    w.U64(0x1000);  // Physical page.
    w.U64(rec.page_size);
    for (int i = 0; i < 4; ++i) w.Bool(true);  // writable, user, dirty, global.
    w.U64(rec.lru);
  }
  return w;
}

std::vector<TlbRecord> TlbPages(std::uint32_t n) {
  std::vector<TlbRecord> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back({1, i, false, hw::kPageSize, i + 1u});
  }
  return out;
}

// A rejected load leaves an empty TLB that still keeps its capacity.
void ExpectTlbRejected(hw::Tlb& tlb, const SnapWriter& w) {
  EXPECT_EQ(TimedLoad(tlb, w), Status::kBadParameter);
  EXPECT_EQ(tlb.size(), 0u);
  for (std::uint64_t p = 0; p < 64; ++p) {
    tlb.Insert(2, p << hw::kPageShift, 0, hw::kPageSize, true, true, true);
  }
  EXPECT_EQ(tlb.EntryCount(2), 4u);
}

TEST(RangeChecks, TlbClassOverCapacity) {
  hw::Tlb tlb(4, 2);
  ExpectTlbRejected(tlb, TlbStream(5, 0, TlbPages(5)));
  // Counts that claim an empty class over 600 real 4 KiB entries.
  ExpectTlbRejected(tlb, TlbStream(0, 0, TlbPages(600)));
}

TEST(RangeChecks, TlbDuplicatedKey) {
  hw::Tlb tlb(4, 2);
  std::vector<TlbRecord> recs = TlbPages(2);
  recs.push_back({1, 1, false, hw::kPageSize, 7});
  ExpectTlbRejected(tlb, TlbStream(3, 0, recs));
}

TEST(RangeChecks, TlbPageSizeDisagreesWithClass) {
  hw::Tlb tlb(4, 2);
  ExpectTlbRejected(tlb, TlbStream(0, 1, {{1, 0, true, hw::kPageSize, 1}}));
  ExpectTlbRejected(tlb, TlbStream(1, 0, {{1, 0, false, 2u << 20, 1}}));
  ExpectTlbRejected(tlb, TlbStream(0, 1, {{1, 0, true, 1u << 30, 1}}));
}

TEST(RangeChecks, TlbStoredCountDiffersFromEntries) {
  hw::Tlb tlb(4, 2);
  ExpectTlbRejected(tlb, TlbStream(2, 0, TlbPages(1)));
  ExpectTlbRejected(tlb, TlbStream(1, 1, TlbPages(2)));
}

TEST(RangeChecks, TlbRepeatedOrFutureLruStamp) {
  hw::Tlb tlb(4, 2);
  std::vector<TlbRecord> recs = TlbPages(2);
  recs[1].lru = recs[0].lru;
  ExpectTlbRejected(tlb, TlbStream(2, 0, recs));
  SnapWriter w = TlbStream(1, 0, TlbPages(1));
  std::vector<std::uint8_t> bytes = w.data();
  bytes[8] = 0;  // Clock 0, behind the entry's stamp 1.
  SnapWriter future;
  future.Bytes(bytes.data(), bytes.size());
  ExpectTlbRejected(tlb, future);
}

TEST(RangeChecks, TlbWellFormedStreamRoundTrips) {
  hw::Tlb tlb(4, 2);
  std::vector<TlbRecord> recs = TlbPages(3);
  recs.push_back({1, 512, true, 2u << 20, 9});
  recs.push_back({1, 1024, true, 4u << 20, 5});
  const SnapWriter w = TlbStream(3, 2, recs);
  ASSERT_EQ(TimedLoad(tlb, w), Status::kSuccess);
  EXPECT_EQ(tlb.size(), 5u);
  SnapWriter again;
  ASSERT_EQ(tlb.SaveState(again), Status::kSuccess);
  EXPECT_EQ(again.data(), w.data());
}

// --- Range checks: enum bytes of component sections ---------------------

TEST(RangeChecks, FaultKindByte) {
  const auto plan = [] {
    sim::FaultEvent ev;
    ev.at = 5;
    ev.kind = sim::FaultKind::kNicDrop;
    sim::FaultPlan p(1);
    p.Schedule(ev);
    return p;
  };
  SnapWriter w;
  ASSERT_EQ(plan().SaveState(w), Status::kSuccess);
  std::vector<std::uint8_t> bytes = w.data();
  // RNG, armed flag, seven injection counts, entry count, entry time.
  bytes.at(32 + 1 + 7 * 8 + 4 + 8) = 0xff;
  SnapWriter forged;
  forged.Bytes(bytes.data(), bytes.size());
  sim::FaultPlan twin = plan();
  EXPECT_EQ(TimedLoad(twin, forged), Status::kBadParameter);
}

TEST(RangeChecks, IommuPagingModeByte) {
  hw::PhysMem mem(1 << 20);
  hw::Iommu iommu(&mem, true);
  iommu.AttachDevice(3, 0x1000);
  SnapWriter w;
  ASSERT_EQ(iommu.SaveState(w), Status::kSuccess);
  std::vector<std::uint8_t> bytes = w.data();
  bytes.at(4 + 2 + 8) = 9;  // Context count, device id, root, then mode.
  SnapWriter forged;
  forged.Bytes(bytes.data(), bytes.size());
  hw::Iommu twin(&mem, true);
  EXPECT_EQ(TimedLoad(twin, forged), Status::kBadParameter);
}

TEST(RangeChecks, IrqRouteCpuBeyondMachine) {
  hw::IrqChip irq;
  irq.Configure(0, 1, 40);
  SnapWriter w;
  ASSERT_EQ(irq.SaveState(w), Status::kSuccess);
  std::vector<std::uint8_t> bytes = w.data();
  bytes.at(2) = 100;  // GSI 0's enabled and masked flags, then its CPU.
  SnapWriter forged;
  forged.Bytes(bytes.data(), bytes.size());
  hw::IrqChip twin;
  EXPECT_EQ(TimedLoad(twin, forged), Status::kBadParameter);
}

// --- Range checks in full checkpoints -----------------------------------

class CheckpointRangeChecks : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scn_ = new CompileScenario(PinnedShadowConfig());
    RunToMidpoint(*scn_);
  }
  static void TearDownTestSuite() {
    delete scn_;
    scn_ = nullptr;
  }

  static hv::Ec& Vcpu() { return *scn_->vm().vcpu_ec(); }

  // Saves the scenario twice, with `set(false)` and with `set(true)`
  // applied, finds the one byte of section `name` in which the two
  // checkpoints differ, writes `bad` there and loads the result onto a
  // fresh twin. `set(false)` must restore the live value.
  static Status LoadWithForgedByte(const std::string& name,
                                   const std::function<void(bool)>& set,
                                   std::uint8_t bad) {
    sim::Snapshot base;
    sim::Snapshot other;
    set(true);
    EXPECT_EQ(scn_->SaveState(other), Status::kSuccess);
    set(false);
    EXPECT_EQ(scn_->SaveState(base), Status::kSuccess);
    RawSection s = RawSections(base).at(name);
    const RawSection t = RawSections(other).at(name);
    EXPECT_EQ(s.payload.size(), t.payload.size());
    std::vector<std::size_t> diff;
    for (std::size_t i = 0; i < s.payload.size() && i < t.payload.size();
         ++i) {
      if (s.payload[i] != t.payload[i]) diff.push_back(i);
    }
    EXPECT_EQ(diff.size(), 1u);
    if (diff.size() != 1) return Status::kSuccess;
    s.payload[diff[0]] = bad;
    Restore(base, name, s);
    CompileScenario twin(PinnedShadowConfig());
    const auto t0 = std::chrono::steady_clock::now();
    const Status st = twin.LoadState(base);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
    return st;
  }

  static CompileScenario* scn_;
};

CompileScenario* CheckpointRangeChecks::scn_ = nullptr;

TEST_F(CheckpointRangeChecks, GuestFrameDepthBeyondFrames) {
  const int depth = Vcpu().gstate().frame_depth;
  const auto set = [depth](bool on) {
    Vcpu().gstate().frame_depth = on ? (depth == 0 ? 1 : 0) : depth;
  };
  // IRET would pop frames[199] of an 8-entry array.
  EXPECT_EQ(LoadWithForgedByte("hv.kernel", set, 200), Status::kBadParameter);
}

TEST_F(CheckpointRangeChecks, VmmCurrentVcpuBeyondHandlers) {
  sim::Snapshot snap;
  ASSERT_EQ(scn_->SaveState(snap), Status::kSuccess);
  RawSection s = RawSections(snap).at("vmm.guest");
  // Guest base page, vCPU count, exit and injection counters, cur_vcpu_.
  s.payload.at(8 + 4 + 8 + 8) = 0xff;
  Restore(snap, "vmm.guest", s);
  CompileScenario twin(PinnedShadowConfig());
  EXPECT_EQ(twin.LoadState(snap), Status::kBadParameter);
}

TEST_F(CheckpointRangeChecks, TranslationModeByte) {
  const hw::TranslationMode mode = Vcpu().ctl().mode;
  const auto set = [mode](bool on) {
    Vcpu().ctl().mode = on ? hw::TranslationMode::kNested : mode;
  };
  EXPECT_EQ(LoadWithForgedByte("hv.kernel", set, 3), Status::kBadParameter);
}

TEST_F(CheckpointRangeChecks, NestedPagingModeByte) {
  const hw::PagingMode format = Vcpu().ctl().nested_format;
  const auto set = [format](bool on) {
    Vcpu().ctl().nested_format = on ? hw::PagingMode::kTwoLevel : format;
  };
  EXPECT_EQ(LoadWithForgedByte("hv.kernel", set, 2), Status::kBadParameter);
}

TEST_F(CheckpointRangeChecks, CrdKindByte) {
  const hv::CrdKind kind = Vcpu().utcb().recv_window.kind;
  const auto set = [kind](bool on) {
    Vcpu().utcb().recv_window.kind =
        on ? (kind == hv::CrdKind::kIo ? hv::CrdKind::kMem : hv::CrdKind::kIo)
           : kind;
  };
  EXPECT_EQ(LoadWithForgedByte("hv.kernel", set, 4), Status::kBadParameter);
}

TEST_F(CheckpointRangeChecks, BlockStateByte) {
  const hv::Ec::BlockState state = Vcpu().block_state();
  const auto set = [state](bool on) {
    Vcpu().set_block_state(on ? (state == hv::Ec::BlockState::kBlockedSm
                                     ? hv::Ec::BlockState::kRunnable
                                     : hv::Ec::BlockState::kBlockedSm)
                              : state);
  };
  EXPECT_EQ(LoadWithForgedByte("hv.kernel", set, 3), Status::kBadParameter);
}

TEST_F(CheckpointRangeChecks, WakeStatusByte) {
  const Status wake = Vcpu().wake_status();
  const auto set = [wake](bool on) {
    Vcpu().set_wake_status(on ? (wake == Status::kTimeout ? Status::kAbort
                                                          : Status::kTimeout)
                              : wake);
  };
  EXPECT_EQ(LoadWithForgedByte("hv.kernel", set, kNumStatuses),
            Status::kBadParameter);
}

}  // namespace
}  // namespace nova::bench
