// Virtual interval timer.
//
// The guest programs a periodic tick through two port writes; the VMM arms
// a host timeout and raises the timer vector at the virtual interrupt
// controller on every expiry — the "hardware timer" interrupt source of
// Table 2.
#ifndef SRC_VMM_VPIT_H_
#define SRC_VMM_VPIT_H_

#include <cstdint>
#include <string_view>

#include "src/sim/event_queue.h"
#include "src/sim/snapshot.h"
#include "src/vmm/device_model.h"
#include "src/vmm/vpic.h"

namespace nova::vmm {

namespace vpit {
constexpr std::uint16_t kPortPeriodLo = 0x40;  // Microseconds, low 16 bits.
constexpr std::uint16_t kPortPeriodHi = 0x41;  // High 16 bits; write starts.
constexpr std::uint16_t kPortControl = 0x43;   // Write 0: stop.
constexpr std::uint8_t kVector = 32;           // Timer interrupt vector.
}  // namespace vpit

class VPit : public DeviceModel {
 public:
  // `owner` is the event owner ("vmm.<name>.vpit") of the tick events;
  // its factory builds them when armed and again when a snapshot restores
  // them (stale generations are dropped on fire).
  VPit(sim::EventQueue* events, VPic* vpic, std::string_view owner);
  ~VPit() override { ++generation_; }

  bool OwnsPort(std::uint16_t port) const override {
    return port >= vpit::kPortPeriodLo && port <= vpit::kPortControl;
  }
  std::uint32_t PioRead(std::uint16_t port) override;
  void PioWrite(std::uint16_t port, std::uint32_t value) override;

  std::uint64_t ticks() const { return ticks_; }
  bool running() const { return period_ != 0; }

  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);

 private:
  void Arm();
  void Tick();
  template <class Self, class Io>
  static Status Fields(Self& s, Io& io);

  // snapshot-x-list(VPit): events_, vpic_, owner_, period_, period_lo_,
  //   generation_, ticks_
  sim::EventQueue* events_;
  VPic* vpic_;
  sim::EventOwner owner_;  // Op 1: tick of generation a.
  sim::PicoSeconds period_ = 0;
  std::uint16_t period_lo_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace nova::vmm

#endif  // SRC_VMM_VPIT_H_
