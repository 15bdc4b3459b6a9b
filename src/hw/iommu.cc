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

template <class Self, class Io>
Status Iommu::Fields(Self& s, Io& io) {
  struct Ctx {
    DeviceId dev = 0;
    PhysAddr root = 0;
    PagingMode mode = PagingMode::kFourLevel;
  };
  std::vector<Ctx> ctxs;
  if constexpr (!Io::kLoading) {
    for (const auto& [dev, ctx] : s.contexts_) {
      ctxs.push_back({dev, ctx.table->root(), ctx.table->mode()});
    }
  }
  io.Seq32(ctxs, [&io](auto& c) {
    io.U16(c.dev);
    io.U64(c.root);
    io.Enum(c.mode, PagingMode::kFourLevel);
  });
  if constexpr (Io::kLoading) {
    s.contexts_.clear();
    for (const Ctx& c : ctxs) s.AttachDevice(c.dev, c.root, c.mode);
  }
  io.Seq32(s.allowed_gsis_, [&io](auto& kv) {
    io.U16(kv.first);
    io.U64(kv.second);
  });
  io.Seq32(s.protected_, [&io](auto& range) {
    io.U64(range.first);
    io.U64(range.second);
  });
  io.State(s.faults_);
  io.Seq32(s.fault_log_, [&io](auto& f) {
    io.U16(f.dev);
    io.U64(f.iova);
    io.Bool(f.write);
  });
  return io.status();
}

Status Iommu::SaveState(sim::SnapWriter& w) const { return Fields(*this, w); }
Status Iommu::LoadState(sim::SnapReader& r) { return Fields(*this, r); }

}  // namespace nova::hw
