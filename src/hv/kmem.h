// Per-PD kernel-memory accounting.
//
// Every kernel frame the hypervisor hands out — page-table nodes, shadow
// (vTLB) tables, capability-space chunks, per-object frames (UTCB, VMCS,
// SC, portal, semaphore) — is charged against a KmemQuota account. The
// accounting unit is one 4 KiB kernel frame; sub-frame objects round up
// to a whole frame, matching NOVA's slab-per-frame kernel allocator.
//
// Accounts form a donation tree mirroring the PD creation tree:
//
//  - A *bounded* account has a finite limit, carved out of (donated from)
//    the creator's nearest bounded ancestor at CreatePd time. The root
//    PD's account is bounded by the kernel frame pool itself.
//  - A *pass-through* account (the default) has no limit of its own;
//    charges walk up the donor chain and land on the nearest bounded
//    ancestor. A PD tree with no explicit quotas therefore behaves
//    exactly like the pre-quota kernel: one shared pool, root-bounded.
//
// Charges are recorded on every account along the walk so that a PD's
// used() always reflects its own subtree, and destroying a PD can credit
// precisely what it consumed.
#ifndef SRC_HV_KMEM_H_
#define SRC_HV_KMEM_H_

#include <cstdint>

#include "src/hw/phys_mem.h"
#include "src/sim/snapshot.h"
#include "src/sim/status.h"

namespace nova::hv {

class Pd;

// One PD's kernel-memory account, in 4 KiB frame units.
class KmemQuota {
 public:
  static constexpr std::uint64_t kUnlimited = ~0ull;

  // A bounded account has a finite limit carved from its donor.
  bool bounded() const { return limit_ != kUnlimited; }
  std::uint64_t limit() const { return limit_; }
  std::uint64_t used() const { return used_; }
  std::uint64_t available() const {
    return bounded() ? limit_ - used_ : kUnlimited;
  }

  // Terminal charge/credit on this account (the donor walk lives in
  // Pd::ChargeKmem, which knows the tree).
  [[nodiscard]] bool TryCharge(std::uint64_t frames) {
    if (bounded() && limit_ - used_ < frames) return false;
    used_ += frames;
    return true;
  }
  // Unconditional usage record for pass-through accounts on the walk
  // between a charging PD and its bounded terminal.
  void RecordCharge(std::uint64_t frames) { used_ += frames; }
  void Credit(std::uint64_t frames) {
    used_ = frames > used_ ? 0 : used_ - frames;
  }

  // Donation: move `frames` of limit between bounded accounts. The caller
  // (CreatePd / ReclaimPd) checks availability on the donor first.
  void SetLimit(std::uint64_t limit) { limit_ = limit; }
  void GrowLimit(std::uint64_t frames) { limit_ += frames; }
  void ShrinkLimit(std::uint64_t frames) {
    limit_ = frames > limit_ ? 0 : limit_ - frames;
  }

  Status SaveState(sim::SnapWriter& w) const { return Fields(*this, w); }
  Status LoadState(sim::SnapReader& r) { return Fields(*this, r); }

 private:
  template <class Self, class Io>
  static Status Fields(Self& s, Io& io) {
    io.U64(s.limit_);
    io.U64(s.used_);
    return io.status();
  }

  // snapshot-x-list(KmemQuota): limit_, used_
  std::uint64_t limit_ = kUnlimited;  // kUnlimited => pass-through.
  std::uint64_t used_ = 0;
};

// Frame source that charges the owning PD's quota chain. Implemented by
// the Hypervisor; Pd holds it so page-table growth inside MemSpace is
// accounted without objects.h depending on kernel.h.
class KmemPool {
 public:
  virtual ~KmemPool() = default;

  // Allocate one zeroed kernel frame charged to `pd`'s account chain.
  // Returns 0 when the quota or the pool is exhausted.
  // [[nodiscard]]: kNullPhys on quota exhaustion must be observed, or
  // the caller writes page-table entries into frame 0. Non-virtual
  // because GCC does not diagnose a discarded result of a virtual call.
  [[nodiscard]] hw::PhysAddr AllocFrameFor(Pd* pd) {
    return DoAllocFrameFor(pd);
  }

  // Return a frame to the pool and credit `pd`'s account chain.
  virtual void FreeFrameFor(Pd* pd, hw::PhysAddr frame) = 0;

 private:
  virtual hw::PhysAddr DoAllocFrameFor(Pd* pd) = 0;
};

}  // namespace nova::hv

#endif  // SRC_HV_KMEM_H_
