// Full-system assembly: machine + microhypervisor + root partition
// manager + standard platform devices, with helpers to start the disk
// server and build VMMs. The shared entry point for examples, benchmarks
// and integration tests.
#ifndef SRC_ROOT_SYSTEM_H_
#define SRC_ROOT_SYSTEM_H_

#include <memory>

#include "src/hv/kernel.h"
#include "src/hw/machine.h"
#include "src/root/platform.h"
#include "src/root/root_pm.h"
#include "src/services/disk_server.h"

namespace nova::root {

struct SystemConfig {
  hw::MachineConfig machine{};
  hv::HvCosts hv_costs{};
  std::uint64_t kernel_reserve = 64ull << 20;
  hw::DiskGeometry disk_geometry{};
};

class NovaSystem {
 public:
  explicit NovaSystem(SystemConfig config = SystemConfig{})
      : machine(config.machine), hv(&machine, config.hv_costs) {
    hv.Boot(config.kernel_reserve);
    root = std::make_unique<RootPartitionManager>(&hv);
    platform = SetupStandardPlatform(&machine, root.get(), config.disk_geometry);
  }

  // Start the user-level disk server (idempotent).
  services::DiskServer& StartDiskServer(std::uint32_t cpu = 0) {
    if (disk_server == nullptr) {
      disk_server = std::make_unique<services::DiskServer>(&hv, root.get(), cpu);
    }
    return *disk_server;
  }

  // Whole-node checkpoint: hardware, kernel object graph, root policy and
  // the disk server, each in its own named section. Scenario-level state
  // (VMMs, guests) is layered on top by the owner of those objects.
  // Restore targets a twin NovaSystem built from the identical SystemConfig
  // whose scenario construction ran the same sequence (same StartDiskServer
  // and channel-open calls); presence and wiring are verified, not rebuilt.
  Status SaveState(sim::Snapshot& snap) const {
    return Sections(*this, sim::SnapSaver(snap));
  }
  Status LoadState(const sim::Snapshot& snap) {
    return Sections(*this, sim::SnapLoader(snap));
  }

  template <class Self, class Snap>
  static Status Sections(Self& s, Snap io) {
    io.State(s.machine, s.hv);
    io.Section("hw.ahci", 1, *s.platform.ahci);
    io.Section("hw.disk", 1, *s.platform.disk);
    io.Section("hw.nic", 1, *s.platform.nic);
    io.Section("hw.netlink", 1, *s.platform.link);
    io.Section("hw.timer", 1, *s.platform.timer);
    io.Section("hw.uart", 1, *s.platform.uart);
    io.Section("root.pm", 1, *s.root);
    io.Section("root.sys", 1, [&s](auto& sec) {
      bool has_server = s.disk_server != nullptr;
      sec.Bool(has_server);
      sec.Require(has_server == (s.disk_server != nullptr));  // Same twin.
    });
    if (s.disk_server != nullptr) io.Section("svc.disk", 1, *s.disk_server);
    return io.status();
  }

  hw::Machine machine;
  hv::Hypervisor hv;
  std::unique_ptr<RootPartitionManager> root;
  Platform platform;
  std::unique_ptr<services::DiskServer> disk_server;
};

}  // namespace nova::root

#endif  // SRC_ROOT_SYSTEM_H_
