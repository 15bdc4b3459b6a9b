#include "src/hv/dirty_log.h"

#include "src/hv/kernel.h"

namespace nova::hv {

DirtyLog::DirtyLog(Hypervisor* hv, Pd* vm, DirtyTrackMode mode)
    : hv_(hv),
      vm_(vm),
      mode_(mode),
      fault_counter_(hv->stats().counter("dirty-log-faults")),
      tracer_(&hv->machine().tracer()),
      trace_fault_(tracer_->Intern("dirty-log fault")) {}

DirtyLog::~DirtyLog() {
  Disarm();
  if (hv_->dirty_log() == this) {
    hv_->SetDirtyLog(nullptr);
  }
}

void DirtyLog::FlushVmTlbs() {
  const hw::TlbTag tag = vm_->vm_tag();
  hw::Machine& machine = hv_->machine();
  for (std::uint32_t i = 0; i < machine.num_cpus(); ++i) {
    machine.cpu(i).tlb().FlushTag(tag);
    hv_->engine(i).FlushNestedTlb(tag);
  }
}

void DirtyLog::Protect(std::uint64_t page) {
  (void)vm_->mem_space().table().SetLeafFlags(page << hw::kPageShift,
                                              /*set=*/0,
                                              /*clear=*/hw::pte::kWritable);
}

void DirtyLog::Arm() {
  dirty_frames_.clear();
  dirty_pages_.clear();
  if (mode_ == DirtyTrackMode::kAssist) {
    // Record the host frames every successful write touches. A single
    // observer slot exists per machine; arming claims it.
    hv_->machine().mem().set_write_observer(
        [this](hw::PhysAddr addr, std::uint64_t len) {
          const std::uint64_t first = hw::FrameOf(addr);
          const std::uint64_t last = hw::FrameOf(addr + len - 1);
          for (std::uint64_t f = first; f <= last; ++f) {
            dirty_frames_.insert(f);
          }
        });
  } else {
    hv_->SetDirtyLog(this);
    vm_->mem_space().ForEachMapping(
        [this](std::uint64_t page, std::uint64_t hpa_page, std::uint8_t perms,
               bool large) {
          (void)hpa_page;
          (void)large;
          if ((perms & perm::kWrite) != 0) {
            Protect(page);
          }
        });
    // Stale writable translations must not bypass the trap.
    FlushVmTlbs();
  }
  armed_ = true;
}

void DirtyLog::Disarm() {
  if (!armed_) {
    return;
  }
  if (mode_ == DirtyTrackMode::kAssist) {
    hv_->machine().mem().set_write_observer(nullptr);
  } else {
    // Restore write permission everywhere the VM legitimately holds it.
    hw::PageTable& table = vm_->mem_space().table();
    vm_->mem_space().ForEachMapping(
        [&table](std::uint64_t page, std::uint64_t hpa_page,
                 std::uint8_t perms, bool large) {
          (void)hpa_page;
          (void)large;
          if ((perms & perm::kWrite) != 0) {
            (void)table.SetLeafFlags(page << hw::kPageShift,
                                     /*set=*/hw::pte::kWritable, /*clear=*/0);
          }
        });
    FlushVmTlbs();
  }
  armed_ = false;
}

void DirtyLog::CollectAndReset(std::vector<std::uint64_t>* out) {
  if (mode_ == DirtyTrackMode::kAssist) {
    // Intersect dirty host frames with the VM's guest mappings: catches
    // lazily-mapped pages and filters frames owned by other domains.
    vm_->mem_space().ForEachMapping(
        [this, out](std::uint64_t page, std::uint64_t hpa_page,
                    std::uint8_t perms, bool large) {
          (void)perms;
          (void)large;
          if (dirty_frames_.count(hpa_page) != 0) {
            out->push_back(page);
          }
        });
    dirty_frames_.clear();
    return;
  }
  for (const std::uint64_t page : dirty_pages_) {
    out->push_back(page);
    if (armed_) {
      Protect(page);  // Next round starts tracking immediately.
    }
  }
  if (armed_ && !dirty_pages_.empty()) {
    FlushVmTlbs();
  }
  dirty_pages_.clear();
}

bool DirtyLog::HandleWriteFault(Ec* vcpu, std::uint64_t gpa) {
  if (!armed_ || mode_ != DirtyTrackMode::kWriteProtect ||
      &vcpu->pd() != vm_) {
    return false;
  }
  const std::uint64_t page = gpa >> hw::kPageShift;
  MemSpace& ms = vm_->mem_space();
  // Only a write the VM legitimately holds is our trap; an unmapped page
  // or a genuinely read-only one belongs to the VMM's MMIO path.
  if ((ms.PermsFor(page) & perm::kWrite) == 0) {
    return false;
  }
  const hw::WalkResult leaf = ms.table().Probe(gpa);
  if (!Ok(leaf.status) || (leaf.pte & hw::pte::kWritable) != 0) {
    return false;  // Present and already writable: not our fault.
  }
  // Mark every 4 KiB page the restored leaf covers (a superpage leaf
  // regains write permission as a whole and will not fault again).
  const std::uint64_t pages = leaf.page_size >> hw::kPageShift;
  const std::uint64_t base = page & ~(pages - 1);
  for (std::uint64_t p = base; p < base + pages; ++p) {
    dirty_pages_.insert(p);
  }
  (void)ms.table().SetLeafFlags(gpa, /*set=*/hw::pte::kWritable, /*clear=*/0);
  ++faults_;
  fault_counter_.Add();
  if (tracer_->enabled()) {
    tracer_->InstantAt(hv_->machine().cpu(vcpu->cpu()).NowPs(),
                       sim::TraceCat::kVmExit, trace_fault_,
                       static_cast<std::uint8_t>(vcpu->cpu()), gpa);
  }
  return true;
}

}  // namespace nova::hv
