#include "driver/workloads.h"

#include <cstring>
#include <utility>

#include "bench/scenario.h"
#include "src/guest/workload_disk.h"
#include "src/services/migration.h"

namespace perfbench {
namespace {

namespace bench = nova::bench;
namespace guest = nova::guest;
namespace hw = nova::hw;
namespace root = nova::root;
namespace services = nova::services;
namespace sim = nova::sim;
namespace vmm = nova::vmm;
using nova::Status;

constexpr sim::PicoSeconds kCompileDeadline = sim::Seconds(120);
constexpr sim::PicoSeconds kDiskDeadline = sim::Seconds(60);
constexpr std::uint64_t kDiskBlock = 4096;

// Table 2 rows (the hypervisor's counter names) and their fingerprint keys.
constexpr std::pair<const char*, const char*> kEventRows[] = {
    {"vTLB Fill", "ev.vtlb_fill"},
    {"Guest Page Fault", "ev.guest_pf"},
    {"CR Read/Write", "ev.cr"},
    {"vTLB Flush", "ev.vtlb_flush"},
    {"Port I/O", "ev.pio"},
    {"INVLPG", "ev.invlpg"},
    {"Hardware Interrupts", "ev.hw_intr"},
    {"Memory-Mapped I/O", "ev.mmio"},
    {"HLT", "ev.hlt"},
    {"Interrupt Window", "ev.intr_window"},
    {"Recall", "ev.recall"},
    {"CPUID", "ev.cpuid"},
};

// Table 2 settings for the compile column (bench/tab2_events), seeded.
bench::RunConfig CompileConfig(const Spec& spec) {
  bench::RunConfig c;
  c.stack = bench::StackKind::kNova;
  c.mode = spec.kind == WorkloadKind::kCompileVtlb ? hw::TranslationMode::kShadow
                                                   : hw::TranslationMode::kNested;
  c.workload.processes = 4;
  c.workload.ws_pages = 192;
  c.workload.total_units = spec.compile_units;
  c.workload.compute_cycles = 30000;
  c.workload.mem_bursts = 6;
  c.workload.fresh_prob = 0.04;
  c.workload.switch_every = 20;
  c.workload.disk_every = 150;
  c.workload.seed = spec.seed;
  return c;
}

// ext_migrate part 1: a live compile guest that never finishes.
bench::RunConfig MigrateConfig(const Spec& spec) {
  bench::RunConfig c;
  c.stack = bench::StackKind::kNova;
  c.workload.processes = 2;
  c.workload.ws_pages = spec.migrate_ws_pages;
  c.workload.total_units = 10'000'000;
  c.workload.compute_cycles = 8000;
  c.workload.mem_bursts = 3;
  c.workload.switch_every = 10;
  c.workload.disk_every = 80;
  c.workload.recycle_every = 1'000'000;
  c.workload.seed = spec.seed;
  return c;
}

// One disk block of seed-derived content (SplitMix64 stream).
std::vector<std::uint8_t> SeededBlock(std::uint64_t seed) {
  std::vector<std::uint8_t> block(kDiskBlock);
  std::uint64_t x = seed;
  for (std::size_t i = 0; i < block.size(); i += 8) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    std::memcpy(block.data() + i, &z, 8);
  }
  return block;
}

// The Table 2 "Disk 4k" stack (bench/tab2_events RunDisk4k), built as an
// object so it can be checkpointed onto a twin. The last block the guest
// reads carries seed-derived content, which the rep verifies arrived in
// the guest's DMA buffer.
class DiskNode {
 public:
  DiskNode(std::uint64_t requests, const std::vector<std::uint8_t>& last_block) {
    root::SystemConfig sc;
    sc.machine =
        hw::MachineConfig{.cpus = {&hw::CoreI7_920()}, .ram_size = 512ull << 20};
    system_ = std::make_unique<root::NovaSystem>(sc);
    system_->platform.disk->WriteContent((requests - 1) * kDiskBlock,
                                         last_block.data(), last_block.size());
    vmm::VmmConfig vc;
    vc.guest_mem_bytes = bench::kBenchGuestMem;
    vm_ = std::make_unique<vmm::Vmm>(&system_->hv, system_->root.get(), vc);
    vm_->ConnectDiskServer(&system_->StartDiskServer());

    mux_.Attach(system_->hv.engine(0));
    vmm::Vmm* vm = vm_.get();
    gk_ = std::make_unique<guest::GuestKernel>(
        &system_->machine.mem(),
        [vm](std::uint64_t gpa) { return vm->GpaToHpa(gpa); }, &mux_,
        guest::GuestKernelConfig{.mem_bytes = bench::kBenchGuestMem});
    gk_->BuildStandardHandlers();
    driver_ = std::make_unique<guest::GuestAhciDriver>(
        gk_.get(), guest::GuestAhciDriver::Config{
                       .mmio_base = vmm::vahci::kMmioBase,
                       .irq_vector = vmm::vahci::kVector,
                       .read_ci = [vm]() -> std::uint32_t {
                         return static_cast<std::uint32_t>(vm->vahci().MmioRead(
                             vmm::vahci::kMmioBase + hw::ahci::kPxCi, 4));
                       },
                       .read_err = nullptr});
    workload_ = std::make_unique<guest::DiskWorkload>(
        gk_.get(), driver_.get(),
        guest::DiskWorkload::Config{.block_bytes = kDiskBlock,
                                    .total_requests = requests});
    gk_->EmitBoot(workload_->EmitMain());
    gk_->Install();
    gk_->PrimeState(vm_->gstate());
    (void)vm_->Start(vm_->gstate().rip);
  }

  root::NovaSystem& system() { return *system_; }
  vmm::Vmm& vm() { return *vm_; }
  guest::GuestKernel& guest_kernel() { return *gk_; }
  guest::DiskWorkload& workload() { return *workload_; }

  // The node and every layer above it that holds state: the VMM and the
  // guest kernel and driver bookkeeping. DiskWorkload keeps only its
  // progress cursors and has no snapshot support; a restored twin is
  // compared by re-saving it, never run.
  Status SaveState(sim::Snapshot& snap) const {
    if (Status s = system_->SaveState(snap); s != Status::kSuccess) {
      return s;
    }
    if (Status s = vm_->SaveState(snap.Section("vmm.guest", 1)); s != Status::kSuccess) {
      return s;
    }
    if (Status s = gk_->SaveState(snap.Section("guest.kernel", 1)); s != Status::kSuccess) {
      return s;
    }
    return driver_->SaveState(snap.Section("guest.driver", 1));
  }
  Status LoadState(sim::Snapshot& snap) {
    if (Status s = system_->LoadState(snap); s != Status::kSuccess) {
      return s;
    }
    const auto load = [&snap](const char* name, auto* obj) -> Status {
      sim::SnapReader r = snap.Open(name, 1);
      if (Status s = obj->LoadState(r); s != Status::kSuccess) {
        return s;
      }
      return r.Finish();
    };
    if (Status s = load("vmm.guest", vm_.get()); s != Status::kSuccess) {
      return s;
    }
    if (Status s = load("guest.kernel", gk_.get()); s != Status::kSuccess) {
      return s;
    }
    return load("guest.driver", driver_.get());
  }

 private:
  // snapshot-x-list(DiskNode): system_, vm_, mux_, gk_, driver_, workload_
  std::unique_ptr<root::NovaSystem> system_;
  std::unique_ptr<vmm::Vmm> vm_;
  guest::GuestLogicMux mux_;
  std::unique_ptr<guest::GuestKernel> gk_;
  std::unique_ptr<guest::GuestAhciDriver> driver_;
  std::unique_ptr<guest::DiskWorkload> workload_;
};

// Records the measured phase into the node's tracer and folds it, the way
// bench/common.cc RunVirtualized does. Stop() resets the tracer so that a
// snapshot taken afterwards is byte-identical to an untraced one.
class TraceSession {
 public:
  void Start(sim::Tracer& tracer) {
    tracer_ = &tracer;
    tracer.Reset();
    tracer.set_sink(&report_);
    tracer.set_enabled(true);
  }
  void Stop() {
    if (tracer_ == nullptr) {
      return;
    }
    tracer_->set_enabled(false);
    report_.FoldRemaining(*tracer_);
    digest_ = tracer_->digest();
    rows_ = report_.Rows(*tracer_);
    tracer_->set_sink(nullptr);
    tracer_->Reset();
    tracer_ = nullptr;
  }
  std::uint64_t digest() const { return digest_; }
  std::map<std::string, sim::TraceReport::Entry>& rows() { return rows_; }

 private:
  sim::Tracer* tracer_ = nullptr;
  sim::TraceReport report_;
  std::uint64_t digest_ = 0;
  std::map<std::string, sim::TraceReport::Entry> rows_;
};

// Counters of one node that every workload pins.
void AddNodeCounters(root::NovaSystem& sys, vmm::Vmm& vm, Fingerprint* fp) {
  const sim::StatRegistry& stats = sys.hv.stats();
  for (const auto& [row, key] : kEventRows) {
    (*fp)[key] = stats.Value(row);
  }
  (*fp)["ipc_calls"] = stats.Value("ipc-calls");
  (*fp)["dirty_log_faults"] = stats.Value("dirty-log-faults");
  (*fp)["vmm_exits"] = vm.exits_handled();
  (*fp)["virq_injected"] = vm.interrupts_injected();
  hw::Tlb& tlb = sys.machine.cpu(0).tlb();
  (*fp)["tlb_hits"] = tlb.hits().value();
  (*fp)["tlb_misses"] = tlb.misses().value();
  (*fp)["resident_frames"] = sys.machine.mem().resident_frames();
  if (sys.disk_server != nullptr) {
    (*fp)["disk_completed"] = sys.disk_server->requests_completed();
    (*fp)["disk_retried"] = sys.disk_server->requests_retried();
    (*fp)["disk_failed"] = sys.disk_server->requests_failed();
  }
}

// Disk-server requests are operations: a retried or failed one counts.
void CountDiskOps(root::NovaSystem& sys, RepResult* r) {
  if (sys.disk_server == nullptr) {
    return;
  }
  r->attempted += sys.disk_server->requests_issued();
  const std::uint64_t bad =
      sys.disk_server->requests_retried() + sys.disk_server->requests_failed();
  if (bad != 0) {
    r->failed += bad;
    r->op_errors.push_back("disk server retried or failed " + std::to_string(bad) +
                           " requests");
  }
}

// The trace fold must agree with the independent counters on every
// Table 2 row (the cross-check bench/tab2_events performs).
void CheckTraceAgainstCounters(TraceSession& ts, const sim::StatRegistry& stats,
                               RepResult* r) {
  for (const auto& [row, key] : kEventRows) {
    const auto it = ts.rows().find(row);
    const std::uint64_t traced = it == ts.rows().end() ? 0 : it->second.count;
    if (traced != stats.Value(row)) {
      r->errors.push_back(std::string("trace/counter mismatch on '") + row +
                          "': trace=" + std::to_string(traced) +
                          " counter=" + std::to_string(stats.Value(row)));
    }
  }
}

// Save -> Encode -> Decode -> Load onto the twin: one stop-and-copy. The
// twin's re-save must reproduce the source's encoding byte for byte.
template <typename Node>
void CheckpointRoundTrip(const Node& node, Node& twin, SpanLog& log, RepResult* r) {
  ++r->attempted;
  double pause = 0;
  sim::Snapshot snap;
  Status st;
  {
    SpanLog::Scope s(log, "hv.save");
    st = node.SaveState(snap);
    pause += s.Elapsed();
  }
  std::vector<std::uint8_t> bytes;
  {
    SpanLog::Scope s(log, "sim.snapshot.encode");
    bytes = snap.Encode();
    pause += s.Elapsed();
  }
  snap = sim::Snapshot();
  sim::Snapshot decoded;
  if (st == Status::kSuccess) {
    SpanLog::Scope s(log, "sim.snapshot.decode");
    st = decoded.Decode(bytes);
    pause += s.Elapsed();
  }
  if (st == Status::kSuccess) {
    SpanLog::Scope s(log, "hv.load");
    st = twin.LoadState(decoded);
    pause += s.Elapsed();
  }
  decoded = sim::Snapshot();
  sim::Snapshot resave;
  if (st == Status::kSuccess) {
    st = twin.SaveState(resave);
  }
  if (st != Status::kSuccess || resave.Encode() != bytes) {
    ++r->failed;
    r->op_errors.push_back("checkpoint round trip: twin re-save differs from source");
  }
  r->pause_s.push_back(pause);
  r->snapshot_bytes = bytes.size();
}

template <typename Node>
ReplayInputs MakeReplayInputs(std::shared_ptr<void> hold, Node& node,
                              const hw::CpuModel* cpu, std::uint64_t process_pages) {
  ReplayInputs in;
  in.hold = std::move(hold);
  root::NovaSystem& sys = node.system();
  vmm::Vmm* vm = &node.vm();
  in.mem = &sys.machine.mem();
  in.cpu = cpu;
  in.gpa_to_hpa = [vm](std::uint64_t gpa) { return vm->GpaToHpa(gpa); };
  in.guest_cr3 = vm->gstate().cr3;
  in.pt_pool_end = node.guest_kernel().pt().pool_next();
  in.process_pages = process_pages;
  in.pending_events = sys.machine.events().size();
  return in;
}

// Reset the node's counters where the measured phase starts (as
// RunVirtualized does), optionally start tracing, and note the start.
struct PhaseStart {
  sim::PicoSeconds t0 = 0;
  std::uint64_t insns0 = 0;
};
PhaseStart BeginPhase(root::NovaSystem& sys, bool trace, TraceSession* ts) {
  hw::Cpu& cpu = sys.machine.cpu(0);
  cpu.ResetUtilization();
  sys.hv.stats().ResetAll();
  if (trace) {
    ts->Start(sys.machine.tracer());
  }
  return PhaseStart{cpu.NowPs(), sys.hv.engine(0).instructions()};
}

void FinishTrace(bool trace, TraceSession& ts, root::NovaSystem& sys, RepResult* r) {
  ts.Stop();
  if (trace) {
    CheckTraceAgainstCounters(ts, sys.hv.stats(), r);
    r->fp["trace_digest"] = ts.digest();
    r->trace_rows = std::move(ts.rows());
  }
}

RepResult RunCompileRep(const Spec& spec, bool trace, bool checkpoint, SpanLog& log) {
  RepResult r;
  const bench::RunConfig config = CompileConfig(spec);
  struct Hold {
    std::unique_ptr<bench::CompileScenario> node, twin;
  };
  auto hold = std::make_shared<Hold>();
  {
    SpanLog::Scope s(log, "setup");
    hold->node = std::make_unique<bench::CompileScenario>(config);
    r.setup_s = s.Elapsed();
  }
  {
    SpanLog::Scope s(log, "setup.twin");
    hold->twin = std::make_unique<bench::CompileScenario>(config);
  }
  bench::CompileScenario& node = *hold->node;
  root::NovaSystem& sys = node.system();
  TraceSession ts;
  const PhaseStart start = BeginPhase(sys, trace, &ts);
  {
    SpanLog::Scope s(log, "hv.run");
    node.RunUntilDone(kCompileDeadline);
    r.host_s = s.Elapsed();
  }
  r.guest_insns = sys.hv.engine(0).instructions() - start.insns0;
  FinishTrace(trace, ts, sys, &r);
  if (!node.done()) {
    r.errors.push_back("compile workload did not finish before the deadline");
  }
  guest::CompileWorkload& w = node.workload();
  r.fp["sim_ps"] = sys.machine.cpu(0).NowPs() - start.t0;
  r.fp["guest_insns"] = r.guest_insns;
  r.fp["units_done"] = w.units_done();
  r.fp["page_faults"] = w.page_faults_expected();
  r.fp["context_switches"] = w.context_switches();
  r.fp["disk_reads"] = w.disk_reads();
  AddNodeCounters(sys, node.vm(), &r.fp);
  CountDiskOps(sys, &r);

  if (checkpoint) {
    CheckpointRoundTrip(node, *hold->twin, log, &r);
  }
  r.replay = MakeReplayInputs(hold, node, config.cpu, w.page_faults_expected());
  return r;
}

RepResult RunDiskRep(const Spec& spec, bool trace, bool checkpoint, SpanLog& log) {
  RepResult r;
  const std::vector<std::uint8_t> block = SeededBlock(spec.seed);
  struct Hold {
    std::unique_ptr<DiskNode> node, twin;
  };
  auto hold = std::make_shared<Hold>();
  {
    SpanLog::Scope s(log, "setup");
    hold->node = std::make_unique<DiskNode>(spec.disk_requests, block);
    r.setup_s = s.Elapsed();
  }
  {
    SpanLog::Scope s(log, "setup.twin");
    hold->twin = std::make_unique<DiskNode>(spec.disk_requests, block);
  }
  DiskNode& node = *hold->node;
  root::NovaSystem& sys = node.system();
  TraceSession ts;
  const PhaseStart start = BeginPhase(sys, trace, &ts);
  {
    SpanLog::Scope s(log, "hv.run");
    guest::DiskWorkload* w = &node.workload();
    sys.hv.RunUntilCondition([w] { return w->done(); }, kDiskDeadline);
    r.host_s = s.Elapsed();
  }
  r.guest_insns = sys.hv.engine(0).instructions() - start.insns0;
  FinishTrace(trace, ts, sys, &r);

  guest::DiskWorkload& w = node.workload();
  if (!w.done() || w.completed() != spec.disk_requests) {
    r.errors.push_back("disk workload completed " + std::to_string(w.completed()) +
                       " of " + std::to_string(spec.disk_requests) + " requests");
  }
  std::vector<std::uint8_t> got(kDiskBlock);
  node.guest_kernel().ReadGuestRaw(guest::GuestLayout::kDmaBase, got.data(), got.size());
  if (got != block) {
    r.errors.push_back("the last block read does not hold the seeded disk content");
  }
  r.fp["sim_ps"] = sys.machine.cpu(0).NowPs() - start.t0;
  r.fp["guest_insns"] = r.guest_insns;
  r.fp["disk_requests"] = w.completed();
  AddNodeCounters(sys, node.vm(), &r.fp);
  CountDiskOps(sys, &r);

  if (checkpoint) {
    CheckpointRoundTrip(node, *hold->twin, log, &r);
  }
  r.replay = MakeReplayInputs(hold, node, &hw::CoreI7_920(), 0);
  return r;
}

RepResult RunMigrateRep(const Spec& spec, bool trace, SpanLog& log) {
  RepResult r;
  const bench::RunConfig config = MigrateConfig(spec);
  struct Hold {
    std::unique_ptr<bench::CompileScenario> src, dst;
  };
  auto hold = std::make_shared<Hold>();
  {
    SpanLog::Scope s(log, "setup");
    hold->src = std::make_unique<bench::CompileScenario>(config);
    hold->dst = std::make_unique<bench::CompileScenario>(config);
    r.setup_s = s.Elapsed();
  }
  bench::CompileScenario& src = *hold->src;
  bench::CompileScenario& dst = *hold->dst;
  root::NovaSystem& sys = src.system();

  // The ext_migrate part 1 driver settings, tracking dirty pages by
  // write-protecting the VM's nested page table.
  services::MigrationConfig mc;
  mc.bandwidth_mbps = 40000;
  mc.max_rounds = 8;
  mc.stop_copy_threshold_pages = 64;
  mc.track_mode = nova::hv::DirtyTrackMode::kWriteProtect;

  std::vector<std::uint8_t> bytes;
  double pause = 0;
  services::MigrationDriver::Endpoints ep;
  ep.source_hv = &sys.hv;
  ep.source_vm_pd = src.vm().vm_pd();
  ep.link = sys.platform.link.get();
  ep.guest_pages = bench::kBenchGuestMem >> hw::kPageShift;
  ep.run_source = [&](sim::PicoSeconds dt) {
    SpanLog::Scope s(log, "services.migration.run_source");
    src.RunFor(dt);
  };
  TraceSession ts;
  // The trace covers everything the source executes; it stops before the
  // stop-and-copy so the shipped snapshot does not carry the trace ring.
  ep.save = [&](sim::Snapshot& snap) {
    ts.Stop();
    Status st;
    {
      SpanLog::Scope s(log, "hv.save");
      st = src.SaveState(snap);
      pause += s.Elapsed();
    }
    SpanLog::Scope s(log, "sim.snapshot.encode");
    bytes = snap.Encode();
    pause += s.Elapsed();
    return st;
  };
  ep.load = [&](sim::Snapshot&) {
    sim::Snapshot decoded;
    Status st;
    {
      SpanLog::Scope s(log, "sim.snapshot.decode");
      st = decoded.Decode(bytes);
      pause += s.Elapsed();
    }
    if (st != Status::kSuccess) {
      return st;
    }
    SpanLog::Scope s(log, "hv.load");
    st = dst.LoadState(decoded);
    pause += s.Elapsed();
    return st;
  };

  const PhaseStart start = BeginPhase(sys, trace, &ts);
  services::MigrationResult mr;
  {
    SpanLog::Scope measure(log, "measure");
    {
      SpanLog::Scope s(log, "hv.run");
      src.RunFor(sim::Milliseconds(2));  // Warm the working set.
    }
    SpanLog::Scope s(log, "services.migration");
    services::MigrationDriver driver(ep, mc);
    mr = driver.Run();
    r.host_s = measure.Elapsed();
  }
  r.guest_insns = sys.hv.engine(0).instructions() - start.insns0;
  FinishTrace(trace, ts, sys, &r);

  ++r.attempted;
  sim::Snapshot resave;
  const bool resave_ok = mr.success && dst.SaveState(resave) == Status::kSuccess &&
                         resave.Encode() == bytes;
  if (!mr.success) {
    ++r.failed;
    r.op_errors.push_back("migration did not succeed");
  } else if (!resave_ok) {
    ++r.failed;
    r.op_errors.push_back("migration target re-save differs from the source save");
  }
  r.pause_s.push_back(pause);
  r.snapshot_bytes = bytes.size();

  r.fp["sim_ps"] = mr.total_ps;
  r.fp["downtime_ps"] = mr.downtime_ps;
  r.fp["guest_insns"] = r.guest_insns;
  r.fp["migration_rounds"] = mr.rounds;
  r.fp["migration_retries"] = mr.retries;
  r.fp["precopy_pages"] = mr.precopy_pages;
  r.fp["stop_copy_pages"] = mr.stop_copy_pages;
  r.fp["bytes_sent"] = mr.bytes_sent;
  r.fp["snapshot_payload_bytes"] = mr.snapshot_bytes;
  r.fp["snapshot_bytes"] = r.snapshot_bytes;
  r.fp["units_done"] = src.workload().units_done();
  AddNodeCounters(sys, src.vm(), &r.fp);
  CountDiskOps(sys, &r);
  r.replay = MakeReplayInputs(hold, src, config.cpu, src.workload().page_faults_expected());
  return r;
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  for (const WorkloadKind k : {WorkloadKind::kCompileEpt, WorkloadKind::kCompileVtlb,
                               WorkloadKind::kDiskVahci, WorkloadKind::kMigratePrecopy}) {
    if (name == WorkloadName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kCompileEpt:
      return "compile_ept";
    case WorkloadKind::kCompileVtlb:
      return "compile_vtlb";
    case WorkloadKind::kDiskVahci:
      return "disk_vahci";
    case WorkloadKind::kMigratePrecopy:
      return "migrate_precopy";
  }
  return "?";
}

RepResult RunRep(const Spec& spec, bool trace, bool checkpoint, SpanLog& log) {
  switch (spec.kind) {
    case WorkloadKind::kCompileEpt:
    case WorkloadKind::kCompileVtlb:
      return RunCompileRep(spec, trace, checkpoint, log);
    case WorkloadKind::kDiskVahci:
      return RunDiskRep(spec, trace, checkpoint, log);
    case WorkloadKind::kMigratePrecopy:
      return RunMigrateRep(spec, trace, log);
  }
  return RepResult{};
}

}  // namespace perfbench
