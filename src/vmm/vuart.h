// Virtual serial port: the guest console. Output bytes are collected so
// tests and examples can assert on what the guest printed.
#ifndef SRC_VMM_VUART_H_
#define SRC_VMM_VUART_H_

#include <cstdint>
#include <string>

#include "src/sim/snapshot.h"
#include "src/sim/status.h"
#include "src/vmm/device_model.h"

namespace nova::vmm {

namespace vuart {
constexpr std::uint16_t kPortBase = 0x3f8;
constexpr std::uint16_t kData = 0x3f8;
constexpr std::uint16_t kLsr = 0x3fd;
constexpr std::uint32_t kLsrTxEmpty = 0x60;
}  // namespace vuart

class VUart : public DeviceModel {
 public:
  VUart() : DeviceModel("vuart") {}

  bool OwnsPort(std::uint16_t port) const override {
    return port >= vuart::kPortBase && port < vuart::kPortBase + 8;
  }
  std::uint32_t PioRead(std::uint16_t port) override {
    return port == vuart::kLsr ? vuart::kLsrTxEmpty : 0;
  }
  void PioWrite(std::uint16_t port, std::uint32_t value) override {
    if (port == vuart::kData) {
      output_.push_back(static_cast<char>(value & 0xff));
    }
  }

  const std::string& output() const { return output_; }
  void ClearOutput() { output_.clear(); }

  Status SaveState(sim::SnapWriter& w) const { return Fields(*this, w); }
  Status LoadState(sim::SnapReader& r) { return Fields(*this, r); }

 private:
  template <class Self, class Io>
  static Status Fields(Self& s, Io& io) {
    io.Str(s.output_);
    return io.status();
  }

  // snapshot-x-list(VUart): output_
  std::string output_;
};

}  // namespace nova::vmm

#endif  // SRC_VMM_VUART_H_
