// Virtual AHCI SATA controller (§8.2).
//
// Register-compatible with the host controller model: the same guest
// driver binary runs against the real device (direct assignment) and this
// model (full virtualization). The backend routes issued commands to the
// user-level disk server; DMA is performed by the *host* controller
// directly into the guest's buffers, so the model never copies payload
// data (§8.2: "eliminates the need for copying the data").
#ifndef SRC_VMM_VAHCI_H_
#define SRC_VMM_VAHCI_H_

#include <cstdint>
#include <functional>

#include "src/hw/ahci.h"
#include "src/sim/snapshot.h"
#include "src/sim/status.h"
#include "src/vmm/device_model.h"

namespace nova::vmm {

namespace vahci {
constexpr std::uint64_t kMmioBase = 0xfe00'0000;
constexpr std::uint64_t kMmioSize = 0x1000;
constexpr std::uint8_t kVector = 43;  // Virtual interrupt vector.
}  // namespace vahci

class VAhci : public DeviceModel {
 public:
  struct Backend {
    // Read guest-physical memory (command structures).
    std::function<bool(std::uint64_t gpa, void* out, std::uint64_t len)> read_guest;
    // Submit to the host disk path. `buffer_gpa` is where the host device
    // will DMA directly. `cookie` comes back through OnCompletion.
    std::function<Status(bool write, std::uint64_t lba, std::uint64_t sectors,
                         std::uint64_t buffer_gpa, std::uint64_t cookie)>
        issue;
    std::function<void(std::uint8_t vector)> raise_irq;
  };

  explicit VAhci(Backend backend) : DeviceModel("vahci"), backend_(std::move(backend)) {}

  bool OwnsGpa(std::uint64_t gpa) const override {
    return gpa >= vahci::kMmioBase && gpa < vahci::kMmioBase + vahci::kMmioSize;
  }
  std::uint64_t MmioRead(std::uint64_t gpa, unsigned size) override;
  void MmioWrite(std::uint64_t gpa, unsigned size, std::uint64_t value) override;

  // Host completion arrived for `cookie` (the slot number). A non-success
  // status surfaces to the guest as a task-file error on that slot, with
  // the slot recorded in the vendor error register (kPxVs) for the guest
  // driver's retry path.
  void OnCompletion(std::uint64_t cookie, Status status = Status::kSuccess);

  // Post-restart recovery: report every slot in `mask` as errored so the
  // guest driver re-issues the commands that were in flight when the old
  // VMM (and with it the old controller state) went down.
  void InjectAbort(std::uint32_t mask);

  // Guest-programmed control registers, checkpointed by the supervisor and
  // restored into the replacement VMM's controller model — the resumed
  // guest does not re-run its driver bring-up code.
  struct Regs {
    std::uint32_t ghc = 0;
    std::uint32_t px_clb = 0;
    std::uint32_t px_ie = 0;
    std::uint32_t px_cmd = 0;
  };
  Regs SaveRegs() const { return Regs{ghc_, px_clb_, px_ie_, px_cmd_}; }
  void RestoreRegs(const Regs& r) {
    ghc_ = r.ghc;
    px_clb_ = r.px_clb;
    px_ie_ = r.px_ie;
    px_cmd_ = r.px_cmd;
  }

  std::uint64_t commands_issued() const { return issued_; }
  std::uint64_t commands_completed() const { return completed_; }
  std::uint64_t commands_errored() const { return errored_; }
  std::uint32_t error_slots() const { return error_slots_; }

  Status SaveState(sim::SnapWriter& w) const { return Fields(*this, w); }
  Status LoadState(sim::SnapReader& r) { return Fields(*this, r); }

 private:
  template <class Self, class Io>
  static Status Fields(Self& s, Io& io) {
    for (auto* reg : {&s.ghc_, &s.is_, &s.px_clb_, &s.px_is_, &s.px_ie_,
                      &s.px_cmd_, &s.px_ci_, &s.error_slots_}) {
      io.U32(*reg);
    }
    io.U64(s.issued_);
    io.U64(s.completed_);
    io.U64(s.errored_);
    return io.status();
  }

  void IssueSlot(int slot);
  void FailSlot(int slot);
  void UpdateIrq();

  // snapshot-x-list(VAhci): backend_, ghc_, is_, px_clb_, px_is_, px_ie_,
  //   px_cmd_, px_ci_, error_slots_, issued_, completed_, errored_
  Backend backend_;
  std::uint32_t ghc_ = 0;
  std::uint32_t is_ = 0;
  std::uint32_t px_clb_ = 0;
  std::uint32_t px_is_ = 0;
  std::uint32_t px_ie_ = 0;
  std::uint32_t px_cmd_ = 0;
  std::uint32_t px_ci_ = 0;
  std::uint32_t error_slots_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t errored_ = 0;
};

}  // namespace nova::vmm

#endif  // SRC_VMM_VAHCI_H_
