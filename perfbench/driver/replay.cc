#include "driver/replay.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "bench/scenario.h"
#include "src/hv/kernel.h"
#include "src/hw/isa.h"
#include "src/hw/machine.h"
#include "src/hw/paging.h"
#include "src/hw/tlb.h"
#include "src/hw/vm_engine.h"
#include "src/sim/event_queue.h"

namespace perfbench {
namespace {

namespace guest = nova::guest;
namespace hv = nova::hv;
namespace hw = nova::hw;
namespace sim = nova::sim;

// Results feed this so the compiler cannot drop the replayed calls.
volatile std::uint64_t g_sink = 0;

constexpr int kBatches = 7;
constexpr double kBatchSeconds = 0.01;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Calls `op(i)` for i = 0, 1, ... in batches sized to about kBatchSeconds
// each and returns the median batch's nanoseconds per call.
double NsPerCall(SpanLog& log, const char* name,
                 const std::function<void(std::uint64_t)>& op) {
  SpanLog::Scope span(log, std::string("replay.") + name);
  std::uint64_t i = 0;
  std::uint64_t n = 64;
  for (;;) {  // Calibrate the batch size (also warms caches).
    const double t0 = NowSeconds();
    for (std::uint64_t k = 0; k < n; ++k) {
      op(i++);
    }
    if (NowSeconds() - t0 >= kBatchSeconds || n >= (1ull << 26)) {
      break;
    }
    n *= 2;
  }
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const double t0 = NowSeconds();
    for (std::uint64_t k = 0; k < n; ++k) {
      op(i++);
    }
    ns.push_back((NowSeconds() - t0) * 1e9 / static_cast<double>(n));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

// Frame numbers of every materialized frame, read back from the memory's
// own snapshot encoding (size, count, then frame number + page per frame).
std::vector<std::uint64_t> ResidentFrames(const hw::PhysMem& mem) {
  sim::SnapWriter w;
  std::vector<std::uint64_t> frames;
  if (mem.SaveState(w) != nova::Status::kSuccess) {
    return frames;
  }
  sim::SnapReader r(w.data().data(), w.data().size());
  (void)r.U64();
  const std::uint64_t count = r.U64();
  std::vector<std::uint8_t> page(hw::kPageSize);
  for (std::uint64_t k = 0; k < count && r.ok(); ++k) {
    frames.push_back(r.U64());
    r.Bytes(page.data(), page.size());
  }
  return frames;
}

// A guest-physical image of the rep's guest page-table frames, so that
// hw::PageTable can walk the guest's own tables by guest-physical address.
struct GuestTables {
  hw::PhysMem mem{nova::bench::kBenchGuestMem};
  std::vector<std::uint64_t> vas;  // Mapped guest-virtual pages.
};

void BuildGuestTables(const ReplayInputs& in, GuestTables* gt) {
  // Second-level tables come from the kernel's page-table pool; a process
  // root comes from the frame heap.
  std::vector<std::uint64_t> table_pages = {in.guest_cr3 & ~hw::kPageMask};
  for (std::uint64_t gpa = guest::GuestLayout::kPtRoot; gpa < in.pt_pool_end;
       gpa += hw::kPageSize) {
    table_pages.push_back(gpa);
  }
  std::vector<std::uint8_t> page(hw::kPageSize);
  const std::vector<std::uint8_t> zero(hw::kPageSize, 0);
  for (const std::uint64_t gpa : table_pages) {
    (void)in.mem->Read(in.gpa_to_hpa(gpa), page.data(), page.size());
    if (page != zero) {
      (void)gt->mem.Write(gpa, page.data(), page.size());
    }
  }
  const hw::PageTable pt(&gt->mem, hw::PagingMode::kTwoLevel, in.guest_cr3);
  std::vector<std::uint64_t> candidates;
  for (std::uint64_t p = 0; p < in.process_pages; ++p) {
    candidates.push_back(guest::GuestLayout::kProcVirtBase + p * hw::kPageSize);
  }
  for (std::uint64_t va = guest::GuestLayout::kCodeBase;
       va < guest::GuestLayout::kHeapBase; va += 16 * hw::kPageSize) {
    candidates.push_back(va);
  }
  for (const std::uint64_t va : candidates) {
    if (pt.Probe(va).status == nova::Status::kSuccess) {
      gt->vas.push_back(va);
    }
  }
}

}  // namespace

std::map<std::string, double> RunReplays(const ReplayInputs& in, SpanLog& log) {
  std::map<std::string, double> out;
  const std::vector<std::uint64_t> frames = ResidentFrames(*in.mem);
  if (frames.empty()) {
    return out;
  }

  // hw::PhysMem over the rep's resident frames, 8 bytes per call at a
  // varying offset. Writes store back the values read before timing, so
  // only Write is timed and the node's memory is unchanged.
  const std::size_t n_addrs = std::max<std::size_t>(frames.size(), 4096);
  std::vector<std::uint64_t> addrs(n_addrs), values(n_addrs);
  for (std::size_t k = 0; k < n_addrs; ++k) {
    addrs[k] = frames[k % frames.size()] * hw::kPageSize + ((k * 72) & 0xff8);
    (void)in.mem->Read(addrs[k], &values[k], 8);
  }
  out["hw.mem.read_ns"] = NsPerCall(log, "hw.mem.read", [&](std::uint64_t i) {
    std::uint64_t v = 0;
    (void)in.mem->Read(addrs[i % n_addrs], &v, 8);
    g_sink = g_sink + v;
  });
  out["hw.mem.write_ns"] = NsPerCall(log, "hw.mem.write", [&](std::uint64_t i) {
    (void)in.mem->Write(addrs[i % n_addrs], &values[i % n_addrs], 8);
  });

  // hw::Tlb at the rep CPU's capacity, filled to capacity with the resident
  // frames as translations. Hits look up installed pages, misses look up
  // the frames left out, and inserts cycle through more pages than fit, so
  // every insert evicts (the full-TLB victim search).
  {
    const std::uint32_t cap = in.cpu->tlb_4k_entries;
    std::vector<std::uint64_t> pages(frames.begin(), frames.end());
    for (std::uint64_t k = 0; pages.size() < 2ull * cap + 1; ++k) {
      pages.push_back(frames[k % frames.size()] + (in.mem->size() >> hw::kPageShift) * (1 + k / frames.size()));
    }
    hw::Tlb tlb(in.cpu->tlb_4k_entries, in.cpu->tlb_large_entries);
    constexpr hw::TlbTag kTag = 1;
    for (std::uint32_t k = 0; k < cap; ++k) {
      tlb.Insert(kTag, pages[k] << hw::kPageShift, pages[k] << hw::kPageShift,
                 hw::kPageSize, true, true, true);
    }
    out["hw.tlb.lookup_hit_ns"] = NsPerCall(log, "hw.tlb.lookup_hit", [&](std::uint64_t i) {
      const auto pa = tlb.Lookup(kTag, pages[i % cap] << hw::kPageShift, hw::Access{});
      g_sink = g_sink + (pa ? *pa : 1);
    });
    const std::size_t spare = pages.size() - cap;
    out["hw.tlb.lookup_miss_ns"] = NsPerCall(log, "hw.tlb.lookup_miss", [&](std::uint64_t i) {
      const auto pa = tlb.Lookup(kTag, pages[cap + i % spare] << hw::kPageShift, hw::Access{});
      g_sink = g_sink + (pa ? *pa : 1);
    });
    out["hw.tlb.insert_full_ns"] = NsPerCall(log, "hw.tlb.insert_full", [&](std::uint64_t i) {
      const std::uint64_t p = pages[(cap + i) % pages.size()];
      tlb.Insert(kTag, p << hw::kPageShift, p << hw::kPageShift, hw::kPageSize, true,
                 true, true);
    });
  }

  // hw::PageTable::Walk over the live guest process's own CR3.
  {
    GuestTables gt;
    BuildGuestTables(in, &gt);
    if (!gt.vas.empty()) {
      const hw::PageTable pt(&gt.mem, hw::PagingMode::kTwoLevel, in.guest_cr3);
      out["hw.paging.walk_ns"] = NsPerCall(log, "hw.paging.walk", [&](std::uint64_t i) {
        const hw::WalkResult w = pt.Walk(gt.vas[i % gt.vas.size()], hw::Access{}, false);
        g_sink = g_sink + w.pa;
      });
    }
  }

  // hw::VmEngine::Run on a load/add/store loop, on the rep's CPU model.
  {
    hw::Machine machine(hw::MachineConfig{.cpus = {in.cpu}, .ram_size = 64ull << 20});
    hw::VmEngine engine(&machine.cpu(0), &machine.mem(), &machine.bus(), &machine.irq());
    hw::isa::Assembler as(0x10000);
    as.MovImm(1, 0x20000);
    const std::uint64_t top = as.Load(2, 1, 0);
    as.AddImm(2, 1);
    as.Store(2, 1, 0);
    as.AddImm(3, 1);
    as.Jmp(top);
    (void)machine.mem().Write(as.base(), as.bytes().data(), as.bytes().size());
    hw::GuestState gs;
    gs.rip = 0x10000;
    constexpr sim::Cycles kBudget = 4096;
    std::uint64_t insns = 0;
    const double ns_per_run = NsPerCall(log, "hw.engine.run", [&](std::uint64_t) {
      const std::uint64_t before = engine.instructions();
      (void)engine.Run(gs, hw::VmControls{}, kBudget);
      insns = engine.instructions() - before;
    });
    out["hw.engine.ns_per_insn"] = insns == 0 ? 0 : ns_per_run / static_cast<double>(insns);
  }

  // hv::Hypervisor::Call: a portal call and reply on the rep's CPU model.
  {
    hw::Machine machine(hw::MachineConfig{.cpus = {in.cpu}, .ram_size = 256ull << 20});
    hv::Hypervisor hyp(&machine);
    hv::Pd* root_pd = hyp.Boot();
    (void)hyp.CreatePd(root_pd, 100, "server", false);
    hv::Ec* handler = nullptr;
    (void)hyp.CreateEcLocal(root_pd, 110, 100, 0, [](std::uint64_t) {}, &handler);
    (void)hyp.CreatePt(root_pd, 111, 110, 0, 0);
    hv::Ec* client = nullptr;
    (void)hyp.CreateEcGlobal(root_pd, 112, hv::kSelOwnPd, 0, [] {}, &client);
    out["hv.ipc.call_ns"] = NsPerCall(log, "hv.ipc.call", [&](std::uint64_t) {
      g_sink = g_sink + static_cast<std::uint64_t>(hyp.Call(client, 111));
    });
  }

  // sim::EventQueue: schedule one event and fire it, with the queue as deep
  // as the rep's own queue was.
  {
    sim::EventQueue q;
    for (std::size_t k = 0; k < in.pending_events; ++k) {
      q.ScheduleAt(sim::Seconds(1'000'000) + static_cast<sim::PicoSeconds>(k), [] {});
    }
    std::uint64_t fired = 0;
    out["sim.events.op_ns"] = NsPerCall(log, "sim.events.op", [&](std::uint64_t) {
      q.ScheduleAfter(1000, [&fired] { ++fired; });
      (void)q.RunOne();
    });
    g_sink = g_sink + fired;
  }
  return out;
}

}  // namespace perfbench
