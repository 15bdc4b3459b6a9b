// IOMMU (DMA remapping unit) model.
//
// Each DMA-capable device is identified by a requester id. Without an
// IOMMU, device DMA is identity-mapped and unchecked — any driver that
// performs DMA must be trusted (§4.2 of the paper). With an IOMMU, the
// hypervisor installs per-device translation tables, blocks DMA into its
// own protected memory region, and restricts the interrupt vectors a
// device may raise.
#ifndef SRC_HW_IOMMU_H_
#define SRC_HW_IOMMU_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/hw/paging.h"
#include "src/hw/phys_mem.h"
#include "src/sim/stats.h"

namespace nova::hw {

using DeviceId = std::uint16_t;  // Requester id (bus:dev.fn).

class Iommu {
 public:
  // `present` models platforms without VT-d: all checks disabled.
  Iommu(PhysMem* mem, bool present) : mem_(mem), present_(present) {}

  bool present() const { return present_; }

  // Mark a physical range as protected (the hypervisor's own image).
  // DMA into it always faults when the IOMMU is present.
  void ProtectRange(PhysAddr base, std::uint64_t size);

  // Install a translation context for a device. Subsequent DMA from `dev`
  // goes through a remapping table rooted at `root` (the owning domain's
  // page table, so its format follows the host paging mode).
  void AttachDevice(DeviceId dev, PhysAddr root,
                    PagingMode mode = PagingMode::kFourLevel);
  void DetachDevice(DeviceId dev);
  bool IsAttached(DeviceId dev) const { return contexts_.contains(dev); }

  // Map iova -> pa in the device's remapping table.
  Status Map(DeviceId dev, std::uint64_t iova, PhysAddr pa, std::uint64_t size,
             bool writable, const PageTable::FrameAllocator& alloc);
  Status Unmap(DeviceId dev, std::uint64_t iova, std::uint64_t size);

  // Restrict the GSIs `dev` is allowed to raise (interrupt remapping).
  void AllowGsi(DeviceId dev, std::uint32_t gsi);
  bool GsiAllowed(DeviceId dev, std::uint32_t gsi) const;

  // DMA path used by all device models. Returns kDenied on a remapping
  // fault; the transfer is fully rejected (no partial writes).
  Status DmaRead(DeviceId dev, std::uint64_t iova, void* out, std::uint64_t len);
  Status DmaWrite(DeviceId dev, std::uint64_t iova, const void* data, std::uint64_t len);

  std::uint64_t faults() const { return faults_.value(); }

  // Latched fault log: one record per remapping fault (like the VT-d fault
  // recording registers). Bounded; the root task reads and clears it to
  // attribute DMA violations to a device.
  struct FaultRecord {
    DeviceId dev = 0;
    std::uint64_t iova = 0;
    bool write = false;
  };
  const std::vector<FaultRecord>& fault_log() const { return fault_log_; }
  void ClearFaultLog() { fault_log_.clear(); }

  // Serialize contexts as (dev, root, mode) triples — the remapping tables
  // themselves are real frames in PhysMem and ride its section — plus the
  // GSI allow-masks, protected ranges, and the fault counter/log.
  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);

 private:
  static constexpr std::size_t kMaxFaultRecords = 64;

  void RecordFault(DeviceId dev, std::uint64_t iova, bool write);
  // Translate one page-contained chunk; returns kDenied on fault.
  Status Translate(DeviceId dev, std::uint64_t iova, bool write, PhysAddr* out);
  bool IsProtected(PhysAddr pa, std::uint64_t len) const;
  template <class Self, class Io>
  static Status Fields(Self& s, Io& io);

  struct Context {
    std::unique_ptr<PageTable> table;
  };

  // snapshot-x-list(Iommu): mem_, present_, contexts_, allowed_gsis_,
  // protected_, faults_, fault_log_
  PhysMem* mem_;
  bool present_;
  std::map<DeviceId, Context> contexts_;
  std::map<DeviceId, std::uint64_t> allowed_gsis_;  // Bitmask.
  std::vector<std::pair<PhysAddr, std::uint64_t>> protected_;
  sim::Counter faults_;
  std::vector<FaultRecord> fault_log_;
};

}  // namespace nova::hw

#endif  // SRC_HW_IOMMU_H_
