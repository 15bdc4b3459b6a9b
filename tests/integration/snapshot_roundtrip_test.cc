// Snapshot/restore round-trips: a scenario checkpointed mid-run and
// restored onto a twin must continue with a bit-identical trace digest —
// the snapshot is complete or it is nothing (DESIGN.md §13).
#include <gtest/gtest.h>

#include "bench/scenario.h"
#include "src/hv/vtlb.h"

namespace nova::bench {
namespace {

constexpr sim::PicoSeconds kDeadline = sim::Seconds(120);

RunConfig ShortConfig(std::uint64_t seed) {
  RunConfig c;
  c.stack = StackKind::kNova;
  c.workload.processes = 2;
  c.workload.ws_pages = 64;
  c.workload.total_units = 400;
  c.workload.compute_cycles = 8000;
  c.workload.mem_bursts = 3;
  c.workload.switch_every = 10;
  c.workload.disk_every = 80;
  c.workload.recycle_every = 200;
  c.workload.seed = seed;
  return c;
}

// Advance to a mid-run point: half the compile units retired.
void RunToMidpoint(CompileScenario& scn) {
  guest::CompileWorkload* w = &scn.workload();
  const std::uint64_t half = scn.config().workload.total_units / 2;
  scn.system().hv.RunUntilCondition(
      [w, half] { return w->units_done() >= half; }, kDeadline);
  ASSERT_FALSE(scn.done());
}

struct Tail {
  std::uint64_t digest = 0;
  std::uint64_t units = 0;
  std::uint64_t exits = 0;
  std::uint64_t page_faults = 0;
  std::uint64_t disk_reads = 0;
  double seconds = 0;
};

// Run the rest of the workload with the tracer on; the digest covers
// every event from this call to completion.
Tail FinishTraced(CompileScenario& scn) {
  sim::Tracer& tracer = scn.system().machine.tracer();
  tracer.Reset();
  tracer.set_enabled(true);
  scn.RunUntilDone(kDeadline);
  tracer.set_enabled(false);
  Tail t;
  t.digest = tracer.digest();
  t.units = scn.workload().units_done();
  t.exits = scn.vm().exits_handled();
  t.page_faults = scn.workload().page_faults_expected();
  t.disk_reads = scn.workload().disk_reads();
  t.seconds = static_cast<double>(scn.now()) /
              static_cast<double>(sim::kPicosPerSecond);
  return t;
}

class SnapshotRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotRoundTrip, RestoredTwinContinuesBitIdentically) {
  const RunConfig config = ShortConfig(GetParam());

  CompileScenario original(config);
  RunToMidpoint(original);
  sim::Snapshot snap;
  ASSERT_EQ(original.SaveState(snap), Status::kSuccess);
  // The wire encoding must survive encode/decode (what migration ships).
  sim::Snapshot shipped;
  ASSERT_EQ(shipped.Decode(snap.Encode()), Status::kSuccess);

  CompileScenario twin(config);
  ASSERT_EQ(twin.LoadState(shipped), Status::kSuccess);

  const Tail a = FinishTraced(original);
  const Tail b = FinishTraced(twin);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.units, b.units);
  EXPECT_EQ(a.exits, b.exits);
  EXPECT_EQ(a.page_faults, b.page_faults);
  EXPECT_EQ(a.disk_reads, b.disk_reads);
  EXPECT_EQ(a.seconds, b.seconds);
}

TEST_P(SnapshotRoundTrip, SaveLoadSaveIsByteIdentical) {
  const RunConfig config = ShortConfig(GetParam());

  CompileScenario original(config);
  RunToMidpoint(original);
  sim::Snapshot first;
  ASSERT_EQ(original.SaveState(first), Status::kSuccess);

  CompileScenario twin(config);
  ASSERT_EQ(twin.LoadState(first), Status::kSuccess);
  sim::Snapshot second;
  ASSERT_EQ(twin.SaveState(second), Status::kSuccess);
  // save ∘ load is the identity on the serialized state: restoring and
  // immediately re-checkpointing reproduces the snapshot byte for byte.
  EXPECT_EQ(first.Encode(), second.Encode());
}

INSTANTIATE_TEST_SUITE_P(MultiSeed, SnapshotRoundTrip,
                         ::testing::Values(42u, 7u, 1234u));

// The encoded bytes of one fixed checkpoint are pinned across commits,
// not just within one build. Shadow paging with the context cache and
// VPID fills the vTLB context table; the midpoint also holds resident RAM
// frames and the VMM's delegated DMA buffer pages. A container change
// that moved the walk order of any of them would move this digest.
TEST(SnapshotRoundTrip, FixedCheckpointEncodingIsPinned) {
  RunConfig config = ShortConfig(42);
  config.mode = hw::TranslationMode::kShadow;
  config.vtlb.cache_contexts = true;
  config.vtlb.use_vpid = true;
  CompileScenario scn(config);
  RunToMidpoint(scn);
  ASSERT_GE(scn.vm().vcpu_ec()->vtlb()->cached_contexts(), 2u);
  ASSERT_GT(scn.system().machine.mem().resident_frames(), 0u);
  ASSERT_GT(scn.workload().disk_reads(), 0u);

  sim::Snapshot snap;
  ASSERT_EQ(scn.SaveState(snap), Status::kSuccess);
  const std::vector<std::uint8_t> bytes = snap.Encode();
  // Every CPU adds its own section, so the pin depends on how many CPUs
  // the machine has (NOVA_TEST_CPUS, DESIGN.md §12). A count without a
  // pin fails: an unpinned run proves nothing about the encoding.
  struct Pin {
    std::size_t size;
    std::uint64_t digest;
  };
  Pin pin{};
  switch (scn.system().machine.num_cpus()) {
    case 1: pin = {1986627u, 0x5f8936179b18c196ull}; break;
    case 4: pin = {1987089u, 0xa144cac30618541aull}; break;
    default:
      FAIL() << "no pinned encoding for a "
             << scn.system().machine.num_cpus() << "-CPU machine";
  }
  EXPECT_EQ(bytes.size(), pin.size);
  EXPECT_EQ(sim::SnapFnv1a(bytes.data(), bytes.size()), pin.digest);
}

TEST(SnapshotRoundTrip, StructurallyMismatchedTwinFailsLoudly) {
  CompileScenario original(ShortConfig(42));
  RunToMidpoint(original);
  sim::Snapshot snap;
  ASSERT_EQ(original.SaveState(snap), Status::kSuccess);

  RunConfig other = ShortConfig(42);
  other.workload.processes = 3;  // Different object graph.
  CompileScenario mismatched(other);
  EXPECT_NE(mismatched.LoadState(snap), Status::kSuccess);
}

}  // namespace
}  // namespace nova::bench
