// Simulated physical memory.
//
// A sparse store of 4 KiB frames behind a flat directory indexed by frame
// number (installed RAM is fixed at construction). Page tables, DMA
// buffers, guest images and the UTCBs all live in here as real bytes —
// page-table walkers dereference real entries, and the vTLB algorithm
// parses real guest PTEs.
#ifndef SRC_HW_PHYS_MEM_H_
#define SRC_HW_PHYS_MEM_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/snapshot.h"
#include "src/sim/status.h"

namespace nova::hw {

using PhysAddr = std::uint64_t;

constexpr std::uint64_t kPageSize = 4096;
constexpr std::uint64_t kPageMask = kPageSize - 1;
constexpr std::uint64_t kPageShift = 12;

constexpr PhysAddr PageAlignDown(PhysAddr a) { return a & ~kPageMask; }
constexpr PhysAddr PageAlignUp(PhysAddr a) { return (a + kPageMask) & ~kPageMask; }
constexpr std::uint64_t FrameOf(PhysAddr a) { return a >> kPageShift; }

class PhysMem {
 public:
  // `size` is the amount of installed RAM; accesses beyond it fault.
  explicit PhysMem(std::uint64_t size)
      : size_(size), frames_((size + kPageMask) >> kPageShift) {}

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  std::uint64_t size() const { return size_; }
  bool Contains(PhysAddr addr, std::uint64_t len) const {
    return addr < size_ && len <= size_ - addr;
  }

  // Typed accessors. Unaligned access within a page is allowed; access
  // crossing the end of installed RAM returns kMemoryFault. Frames are
  // allocated zero-filled on first touch.
  Status Read(PhysAddr addr, void* out, std::uint64_t len) const;
  Status Write(PhysAddr addr, const void* data, std::uint64_t len);

  template <typename T>
  T ReadAs(PhysAddr addr) const {
    T v{};
    // Out-of-range reads yield T{} by design: callers that need the
    // fault distinction use Read() directly.
    (void)Read(addr, &v, sizeof(T));
    return v;
  }
  template <typename T>
  Status WriteAs(PhysAddr addr, T v) {
    return Write(addr, &v, sizeof(T));
  }

  std::uint32_t Read32(PhysAddr a) const { return ReadAs<std::uint32_t>(a); }
  std::uint64_t Read64(PhysAddr a) const { return ReadAs<std::uint64_t>(a); }
  Status Write32(PhysAddr a, std::uint32_t v) { return WriteAs(a, v); }
  Status Write64(PhysAddr a, std::uint64_t v) { return WriteAs(a, v); }

  // Zero-fill a range.
  Status Zero(PhysAddr addr, std::uint64_t len);

  // Number of frames that have actually been materialized.
  std::size_t resident_frames() const { return resident_; }

  // Write observer: called with (addr, len) on every successful Write/Zero.
  // This is the dirty-log "hardware assist" hook (PML-style): all mutation
  // paths — guest stores, host-side image writes, device DMA — funnel
  // through PhysMem::Write, so observing here catches every dirtying agent
  // with zero simulated cost. Null (default) disables the hook.
  using WriteObserver = std::function<void(PhysAddr addr, std::uint64_t len)>;
  void set_write_observer(WriteObserver obs) { observer_ = std::move(obs); }

  // Serialize installed-RAM size and every resident frame in ascending
  // frame order. Load fails with kBadParameter if the twin's size differs
  // or a frame number is beyond installed RAM or not strictly ascending.
  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);

 private:
  using Frame = std::array<std::uint8_t, kPageSize>;

  Frame* FrameFor(std::uint64_t frame_no) const {  // nullptr if absent.
    return frames_[frame_no].get();
  }
  Frame& FrameForAlloc(std::uint64_t frame_no);  // Allocates.

  // snapshot-x-list(PhysMem): size_, frames_, resident_, observer_
  std::uint64_t size_;
  std::vector<std::unique_ptr<Frame>> frames_;  // One slot per frame of RAM.
  std::size_t resident_ = 0;                    // Non-null slots.
  WriteObserver observer_;
};

}  // namespace nova::hw

#endif  // SRC_HW_PHYS_MEM_H_
