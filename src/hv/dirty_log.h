// Dirty-page tracking for one VM: the primitive behind iterative pre-copy
// migration (services/migration) and incremental checkpointing.
//
// Two mechanisms, selectable per log:
//
//   kAssist       — a PhysMem write-observer records the host frames every
//                   successful Write/Zero touches (PML-style hardware
//                   assist). Catches all dirtying agents — guest stores,
//                   host-side WriteGuestRaw, device DMA — at zero simulated
//                   cost, and is invisible to trace digests: arming it
//                   perturbs nothing the simulation can observe.
//   kWriteProtect — clears pte::kWritable on every writable leaf of the
//                   VM's nested page table; the first guest write to a
//                   page then faults (kEptViolation), the kernel marks the
//                   page dirty, restores write permission and retries.
//                   This is the classic shadow dirty-bit scheme: faithful
//                   to real EPT write-protection hardware, but the extra
//                   faults and TLB flushes are visible in traces and
//                   cycle counts (documented in DESIGN.md §13).
//
// Collection intersects the dirty set with the VM's guest-physical
// mappings in ascending page order, so rounds are deterministic.
//
// One DirtyLog may be armed per Machine in kAssist mode (the write
// observer is a single slot); write-protect logs are per-VM.
#ifndef SRC_HV_DIRTY_LOG_H_
#define SRC_HV_DIRTY_LOG_H_

#include <cstdint>
#include <set>
#include <unordered_set>
#include <vector>

#include "src/sim/stats.h"
#include "src/sim/status.h"
#include "src/sim/trace.h"

namespace nova::hv {

class Ec;
class Hypervisor;
class Pd;

enum class DirtyTrackMode : std::uint8_t {
  kAssist,
  kWriteProtect,
};

class DirtyLog {
 public:
  DirtyLog(Hypervisor* hv, Pd* vm, DirtyTrackMode mode);
  ~DirtyLog();

  DirtyLog(const DirtyLog&) = delete;
  DirtyLog& operator=(const DirtyLog&) = delete;

  // Start tracking: clears the dirty set; kAssist installs the PhysMem
  // write observer, kWriteProtect strips write permission from every
  // writable leaf of the VM's nested table and flushes its TLB tag.
  void Arm();

  // Stop tracking and restore the untracked state (observer removed /
  // write permissions restored). The dirty set survives until Arm().
  void Disarm();

  // Append the dirty guest page numbers (ascending) to `out` and reset
  // for the next round; in kWriteProtect mode the collected pages are
  // re-protected so the next round starts tracking immediately.
  void CollectAndReset(std::vector<std::uint64_t>* out);

  // Write-protect fault hook, called from the kEptViolation path before
  // VMM dispatch. True when the fault was this log's protection trap: the
  // page is marked dirty, write permission is restored, and the vCPU
  // retries the instruction without a VMM round-trip.
  bool HandleWriteFault(Ec* vcpu, std::uint64_t gpa);

  DirtyTrackMode mode() const { return mode_; }
  Pd* vm() const { return vm_; }
  bool armed() const { return armed_; }
  std::uint64_t faults() const { return faults_; }

 private:
  // Write-protect one guest page (leaf granularity; superpage leaves are
  // protected once and fault once for the whole superpage).
  void Protect(std::uint64_t page);
  // Flush the VM's tag from every core's TLB and every engine's nested
  // TLB, so no stale writable translation survives (re)arming.
  void FlushVmTlbs();

  // snapshot-x-list(DirtyLog): hv_, vm_, mode_, fault_counter_, tracer_,
  //   trace_fault_, armed_, faults_, dirty_frames_, dirty_pages_
  //   (rebuilt per migration round; never armed across a checkpoint)
  Hypervisor* hv_;
  Pd* vm_;
  DirtyTrackMode mode_;
  sim::Counter& fault_counter_;  // "dirty-log-faults" in the kernel registry.
  sim::Tracer* tracer_;
  std::uint16_t trace_fault_;  // Interned "dirty-log fault".
  bool armed_ = false;
  std::uint64_t faults_ = 0;
  std::unordered_set<std::uint64_t> dirty_frames_;  // kAssist: host frames.
  std::set<std::uint64_t> dirty_pages_;             // kWriteProtect: guest pages.
};

}  // namespace nova::hv

#endif  // SRC_HV_DIRTY_LOG_H_
