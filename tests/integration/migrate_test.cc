// Live migration end-to-end: pre-copy convergence, digest-exact resume on
// the target, and abort-and-resume-at-source under link partitions.
#include <gtest/gtest.h>

#include "bench/scenario.h"
#include "src/services/migration.h"

namespace nova::bench {
namespace {

constexpr sim::PicoSeconds kDeadline = sim::Seconds(120);

RunConfig MigrateConfig() {
  RunConfig c;
  c.stack = StackKind::kNova;
  c.workload.processes = 2;
  c.workload.ws_pages = 64;
  // Long enough that the workload is still running when pre-copy cuts
  // over — migration of a live, dirtying guest, not an idle one.
  c.workload.total_units = 20000;
  c.workload.compute_cycles = 8000;
  c.workload.mem_bursts = 3;
  c.workload.switch_every = 10;
  c.workload.disk_every = 80;
  c.workload.recycle_every = 5000;
  return c;
}

services::MigrationConfig FastLink() {
  services::MigrationConfig mc;
  mc.bandwidth_mbps = 40000;  // Keeps round 0 (full RAM) shorter than the run.
  mc.max_rounds = 8;
  mc.stop_copy_threshold_pages = 64;
  return mc;
}

struct Nodes {
  CompileScenario src;
  CompileScenario dst;
  explicit Nodes(const RunConfig& c) : src(c), dst(c) {}

  services::MigrationDriver::Endpoints Endpoints() {
    services::MigrationDriver::Endpoints ep;
    ep.source_hv = &src.system().hv;
    ep.source_vm_pd = src.vm().vm_pd();
    ep.link = src.system().platform.link.get();
    ep.guest_pages = kBenchGuestMem >> hw::kPageShift;
    ep.run_source = [this](sim::PicoSeconds dt) { src.RunFor(dt); };
    ep.save = [this](sim::Snapshot& s) { return src.SaveState(s); };
    ep.load = [this](sim::Snapshot& s) { return dst.LoadState(s); };
    return ep;
  }
};

std::uint64_t FinishDigest(CompileScenario& scn) {
  sim::Tracer& tracer = scn.system().machine.tracer();
  tracer.Reset();
  tracer.set_enabled(true);
  scn.RunUntilDone(kDeadline);
  tracer.set_enabled(false);
  return tracer.digest();
}

// Both dirty-tracking modes: the hardware-assist write observer and
// write-protect faults on the VM's host page table.
class Migration : public ::testing::TestWithParam<hv::DirtyTrackMode> {};

TEST_P(Migration, PrecopyConvergesAndTargetResumesExactly) {
  Nodes nodes(MigrateConfig());
  nodes.src.RunFor(sim::Milliseconds(2));  // Warm the working set.
  ASSERT_FALSE(nodes.src.done());

  services::MigrationConfig mc = FastLink();
  mc.track_mode = GetParam();
  services::MigrationDriver driver(nodes.Endpoints(), mc);
  const services::MigrationResult r = driver.Run();
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.rounds, 1u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_GT(r.bytes_sent, 0u);
  EXPECT_GT(r.snapshot_bytes, 0u);
  // Downtime covers only the residual dirty set + state, a small slice of
  // the whole transfer.
  EXPECT_LT(r.downtime_ps, r.total_ps);
  // Later rounds ship only what the guest re-dirtied — far less than the
  // round-0 full copy.
  ASSERT_GE(r.round_pages.size(), 1u);
  if (r.round_pages.size() > 1) {
    EXPECT_LT(r.round_pages.back(), r.round_pages.front() / 4);
  }
  // Only write-protect tracking takes dirty-log faults.
  const std::uint64_t faults =
      nodes.src.system().hv.stats().counter("dirty-log-faults").value();
  if (GetParam() == hv::DirtyTrackMode::kWriteProtect) {
    EXPECT_GT(faults, 0u);
  } else {
    EXPECT_EQ(faults, 0u);
  }

  // The paused source is the oracle: it holds exactly the state the
  // snapshot captured, so running both to completion must produce
  // bit-identical trace digests and final progress.
  const std::uint64_t src_digest = FinishDigest(nodes.src);
  const std::uint64_t dst_digest = FinishDigest(nodes.dst);
  EXPECT_EQ(src_digest, dst_digest);
  EXPECT_EQ(nodes.src.workload().units_done(),
            nodes.dst.workload().units_done());
  EXPECT_TRUE(nodes.dst.done());
  // The restored VM's kernel-memory ledger balances: the target charged
  // exactly what the source had charged, no leaked or double-counted
  // frames across the restore.
  EXPECT_EQ(nodes.src.vm().vm_pd()->kmem().used(),
            nodes.dst.vm().vm_pd()->kmem().used());
  EXPECT_EQ(nodes.src.vm().vm_pd()->kmem().limit(),
            nodes.dst.vm().vm_pd()->kmem().limit());
}

INSTANTIATE_TEST_SUITE_P(
    DirtyTrackModes, Migration,
    ::testing::Values(hv::DirtyTrackMode::kAssist,
                      hv::DirtyTrackMode::kWriteProtect),
    [](const ::testing::TestParamInfo<hv::DirtyTrackMode>& mode) {
      return mode.param == hv::DirtyTrackMode::kAssist ? "Assist"
                                                       : "WriteProtect";
    });

TEST(Migration, PartitionRetriesThenSucceeds) {
  Nodes nodes(MigrateConfig());
  nodes.src.RunFor(sim::Milliseconds(1));

  // Partition the link for the first 3 ms: the first transfer attempts
  // abort and back off; the window heals well before the retry budget.
  sim::FaultPlan plan(/*seed=*/9);
  plan.Schedule({.at = 0,
                 .kind = sim::FaultKind::kLinkPartition,
                 .target = "netlink",
                 .window_ps = sim::Milliseconds(3)});
  plan.Arm(&nodes.src.system().machine.events());
  nodes.src.system().platform.link->set_fault_plan(&plan);

  services::MigrationConfig mc = FastLink();
  mc.retry_max = 10;
  mc.retry_backoff_ps = sim::Milliseconds(1);
  services::MigrationDriver driver(nodes.Endpoints(), mc);
  const services::MigrationResult r = driver.Run();
  EXPECT_TRUE(r.success);
  EXPECT_GT(r.retries, 0u);
  nodes.dst.RunUntilDone(kDeadline);
  EXPECT_TRUE(nodes.dst.done());
}

TEST(Migration, UnreachableTargetAbortsAndSourceResumes) {
  Nodes nodes(MigrateConfig());
  nodes.src.RunFor(sim::Milliseconds(1));

  // A partition that outlasts every retry: migration must fail cleanly.
  sim::FaultPlan plan(/*seed=*/9);
  plan.Schedule({.at = 0,
                 .kind = sim::FaultKind::kLinkPartition,
                 .target = "netlink",
                 .window_ps = sim::Seconds(100)});
  plan.Arm(&nodes.src.system().machine.events());
  nodes.src.system().platform.link->set_fault_plan(&plan);

  services::MigrationConfig mc = FastLink();
  mc.retry_max = 2;
  mc.retry_backoff_ps = sim::Milliseconds(1);
  services::MigrationDriver driver(nodes.Endpoints(), mc);
  const services::MigrationResult r = driver.Run();
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.retries, mc.retry_max + 1);

  // The failed migration must not have harmed the guest: the source
  // resumes and completes the workload.
  nodes.src.RunUntilDone(kDeadline);
  EXPECT_TRUE(nodes.src.done());
  EXPECT_EQ(nodes.src.workload().units_done(),
            MigrateConfig().workload.total_units);
}

}  // namespace
}  // namespace nova::bench
