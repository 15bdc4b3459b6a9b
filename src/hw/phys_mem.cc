#include "src/hw/phys_mem.h"

#include <algorithm>

namespace nova::hw {

PhysMem::Frame& PhysMem::FrameForAlloc(std::uint64_t frame_no) {
  auto& slot = frames_[frame_no];
  if (!slot) {
    slot = std::make_unique<Frame>();
    slot->fill(0);
    ++resident_;
  }
  return *slot;
}

Status PhysMem::Read(PhysAddr addr, void* out, std::uint64_t len) const {
  if (!Contains(addr, len)) {
    return Status::kMemoryFault;
  }
  auto* dst = static_cast<std::uint8_t*>(out);
  while (len > 0) {
    const std::uint64_t frame_no = FrameOf(addr);
    const std::uint64_t off = addr & kPageMask;
    const std::uint64_t chunk = std::min(len, kPageSize - off);
    if (const Frame* f = FrameFor(frame_no)) {
      std::memcpy(dst, f->data() + off, chunk);
    } else {
      std::memset(dst, 0, chunk);  // Untouched RAM reads as zero.
    }
    addr += chunk;
    dst += chunk;
    len -= chunk;
  }
  return Status::kSuccess;
}

Status PhysMem::Write(PhysAddr addr, const void* data, std::uint64_t len) {
  if (!Contains(addr, len)) {
    return Status::kMemoryFault;
  }
  if (observer_) {
    observer_(addr, len);
  }
  const auto* src = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const std::uint64_t frame_no = FrameOf(addr);
    const std::uint64_t off = addr & kPageMask;
    const std::uint64_t chunk = std::min(len, kPageSize - off);
    std::memcpy(FrameForAlloc(frame_no).data() + off, src, chunk);
    addr += chunk;
    src += chunk;
    len -= chunk;
  }
  return Status::kSuccess;
}

Status PhysMem::Zero(PhysAddr addr, std::uint64_t len) {
  if (!Contains(addr, len)) {
    return Status::kMemoryFault;
  }
  if (observer_) {
    observer_(addr, len);
  }
  while (len > 0) {
    const std::uint64_t frame_no = FrameOf(addr);
    const std::uint64_t off = addr & kPageMask;
    const std::uint64_t chunk = std::min(len, kPageSize - off);
    // Only materialized frames need clearing; absent frames read as zero.
    if (Frame* f = FrameFor(frame_no)) {
      std::memset(f->data() + off, 0, chunk);
    }
    addr += chunk;
    len -= chunk;
  }
  return Status::kSuccess;
}

Status PhysMem::SaveState(sim::SnapWriter& w) const {
  w.U64(size_);
  w.U64(resident_);
  for (std::uint64_t frame_no = 0; frame_no < frames_.size(); ++frame_no) {
    if (const Frame* f = FrameFor(frame_no)) {
      w.U64(frame_no);
      w.Bytes(f->data(), kPageSize);
    }
  }
  return Status::kSuccess;
}

Status PhysMem::LoadState(sim::SnapReader& r) {
  if (r.U64() != size_) {
    r.Fail();  // The twin must be constructed with identical RAM.
    return Status::kBadParameter;
  }
  for (auto& slot : frames_) {
    slot.reset();
  }
  resident_ = 0;
  const std::uint64_t count = r.U64();
  std::uint64_t next = 0;  // Lowest frame number the next record may carry.
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    const std::uint64_t frame_no = r.U64();
    if (frame_no < next || frame_no >= frames_.size()) {
      r.Fail();  // Beyond installed RAM, a duplicate, or out of order.
      return Status::kBadParameter;
    }
    next = frame_no + 1;
    auto frame = std::make_unique<Frame>();
    r.Bytes(frame->data(), kPageSize);
    frames_[frame_no] = std::move(frame);
    ++resident_;
  }
  return r.status();
}

}  // namespace nova::hw
