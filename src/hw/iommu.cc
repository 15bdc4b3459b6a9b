#include "src/hw/iommu.h"

#include <algorithm>

namespace nova::hw {

void Iommu::ProtectRange(PhysAddr base, std::uint64_t size) {
  protected_.emplace_back(base, size);
}

void Iommu::AttachDevice(DeviceId dev, PhysAddr root, PagingMode mode) {
  contexts_[dev] = Context{.table = std::make_unique<PageTable>(mem_, mode, root)};
}

void Iommu::DetachDevice(DeviceId dev) { contexts_.erase(dev); }

Status Iommu::Map(DeviceId dev, std::uint64_t iova, PhysAddr pa,
                  std::uint64_t size, bool writable,
                  const PageTable::FrameAllocator& alloc) {
  auto it = contexts_.find(dev);
  if (it == contexts_.end()) {
    return Status::kBadDevice;
  }
  for (std::uint64_t off = 0; off < size; off += kPageSize) {
    const std::uint64_t flags = pte::kUser | (writable ? pte::kWritable : 0);
    const Status s = it->second.table->Map(iova + off, pa + off, kPageSize, flags, alloc);
    if (!Ok(s)) {
      return s;
    }
  }
  return Status::kSuccess;
}

Status Iommu::Unmap(DeviceId dev, std::uint64_t iova, std::uint64_t size) {
  auto it = contexts_.find(dev);
  if (it == contexts_.end()) {
    return Status::kBadDevice;
  }
  for (std::uint64_t off = 0; off < size; off += kPageSize) {
    (void)it->second.table->Unmap(iova + off);
  }
  return Status::kSuccess;
}

void Iommu::AllowGsi(DeviceId dev, std::uint32_t gsi) {
  allowed_gsis_[dev] |= 1ull << gsi;
}

bool Iommu::GsiAllowed(DeviceId dev, std::uint32_t gsi) const {
  if (!present_) {
    return true;  // No interrupt remapping without an IOMMU.
  }
  auto it = allowed_gsis_.find(dev);
  return it != allowed_gsis_.end() && (it->second & (1ull << gsi)) != 0;
}

void Iommu::RecordFault(DeviceId dev, std::uint64_t iova, bool write) {
  faults_.Add();
  if (fault_log_.size() < kMaxFaultRecords) {
    fault_log_.push_back({dev, iova, write});
  }
}

bool Iommu::IsProtected(PhysAddr pa, std::uint64_t len) const {
  for (const auto& [base, size] : protected_) {
    if (pa < base + size && base < pa + len) {
      return true;
    }
  }
  return false;
}

Status Iommu::Translate(DeviceId dev, std::uint64_t iova, bool write, PhysAddr* out) {
  if (!present_) {
    *out = iova;  // Identity, unchecked: legacy platform.
    return Status::kSuccess;
  }
  auto it = contexts_.find(dev);
  if (it == contexts_.end()) {
    // Device has no remapping context: identity, but the hypervisor region
    // is still shielded by the unit.
    *out = iova;
    return Status::kSuccess;
  }
  const WalkResult r = it->second.table->Walk(
      iova, Access{.write = write, .user = true}, /*set_ad=*/false);
  if (!Ok(r.status)) {
    RecordFault(dev, iova, write);
    return Status::kDenied;
  }
  *out = r.pa;
  return Status::kSuccess;
}

Status Iommu::DmaRead(DeviceId dev, std::uint64_t iova, void* out, std::uint64_t len) {
  auto* dst = static_cast<std::uint8_t*>(out);
  while (len > 0) {
    const std::uint64_t chunk = std::min<std::uint64_t>(len, kPageSize - (iova & kPageMask));
    PhysAddr pa = 0;
    const Status s = Translate(dev, iova, /*write=*/false, &pa);
    if (!Ok(s)) {
      return s;
    }
    if (present_ && IsProtected(pa, chunk)) {
      RecordFault(dev, iova, /*write=*/false);
      return Status::kDenied;
    }
    const Status rs = mem_->Read(pa, dst, chunk);
    if (!Ok(rs)) {
      return rs;
    }
    iova += chunk;
    dst += chunk;
    len -= chunk;
  }
  return Status::kSuccess;
}

Status Iommu::DmaWrite(DeviceId dev, std::uint64_t iova, const void* data,
                       std::uint64_t len) {
  // Validate the whole transfer first so faults never partially commit.
  std::uint64_t probe = iova;
  std::uint64_t remaining = len;
  while (remaining > 0) {
    const std::uint64_t chunk =
        std::min<std::uint64_t>(remaining, kPageSize - (probe & kPageMask));
    PhysAddr pa = 0;
    const Status s = Translate(dev, probe, /*write=*/true, &pa);
    if (!Ok(s)) {
      return s;
    }
    if (present_ && IsProtected(pa, chunk)) {
      RecordFault(dev, probe, /*write=*/true);
      return Status::kDenied;
    }
    probe += chunk;
    remaining -= chunk;
  }

  const auto* src = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const std::uint64_t chunk = std::min<std::uint64_t>(len, kPageSize - (iova & kPageMask));
    PhysAddr pa = 0;
    (void)Translate(dev, iova, /*write=*/true, &pa);
    const Status ws = mem_->Write(pa, src, chunk);
    if (!Ok(ws)) {
      return ws;
    }
    iova += chunk;
    src += chunk;
    len -= chunk;
  }
  return Status::kSuccess;
}

Status Iommu::SaveState(sim::SnapWriter& w) const {
  w.U32(static_cast<std::uint32_t>(contexts_.size()));
  for (const auto& [dev, ctx] : contexts_) {
    const PageTable& table = *ctx.table;
    w.U16(dev);
    w.U64(table.root());
    w.U8(static_cast<std::uint8_t>(table.mode()));
  }
  w.U32(static_cast<std::uint32_t>(allowed_gsis_.size()));
  for (const auto& [dev, mask] : allowed_gsis_) {
    w.U16(dev);
    w.U64(mask);
  }
  w.U32(static_cast<std::uint32_t>(protected_.size()));
  for (const auto& [base, size] : protected_) {
    w.U64(base);
    w.U64(size);
  }
  Status st = faults_.SaveState(w);
  if (!Ok(st)) {
    return st;
  }
  w.U32(static_cast<std::uint32_t>(fault_log_.size()));
  for (const FaultRecord& f : fault_log_) {
    w.U16(f.dev);
    w.U64(f.iova);
    w.Bool(f.write);
  }
  return Status::kSuccess;
}

Status Iommu::LoadState(sim::SnapReader& r) {
  contexts_.clear();
  const std::uint32_t n_ctx = r.U32();
  for (std::uint32_t i = 0; i < n_ctx; ++i) {
    const DeviceId dev = r.U16();
    const PhysAddr root = r.U64();
    const auto mode = static_cast<PagingMode>(r.U8());
    AttachDevice(dev, root, mode);
  }
  allowed_gsis_.clear();
  const std::uint32_t n_gsi = r.U32();
  for (std::uint32_t i = 0; i < n_gsi; ++i) {
    const DeviceId dev = r.U16();
    allowed_gsis_[dev] = r.U64();
  }
  protected_.clear();
  const std::uint32_t n_prot = r.U32();
  for (std::uint32_t i = 0; i < n_prot; ++i) {
    const PhysAddr base = r.U64();
    const std::uint64_t size = r.U64();
    protected_.emplace_back(base, size);
  }
  Status st = faults_.LoadState(r);
  if (!Ok(st)) {
    return st;
  }
  fault_log_.clear();
  const std::uint32_t n_log = r.U32();
  for (std::uint32_t i = 0; i < n_log; ++i) {
    FaultRecord f;
    f.dev = r.U16();
    f.iova = r.U64();
    f.write = r.Bool();
    fault_log_.push_back(f);
  }
  return r.status();
}

}  // namespace nova::hw
