#include "src/hw/machine.h"

#include <cstdlib>

namespace nova::hw {

MachineConfig ApplyTestCpuOverride(MachineConfig config) {
  const char* env = std::getenv("NOVA_TEST_CPUS");
  if (env == nullptr || config.cpus.size() != 1) {
    return config;
  }
  const long n = std::strtol(env, nullptr, 10);
  if (n > 1 && n <= 64) {
    config.cpus.assign(static_cast<std::size_t>(n), config.cpus[0]);
  }
  return config;
}

Machine::Machine(const MachineConfig& config_in)
    : mem_(config_in.ram_size), iommu_(&mem_, config_in.iommu_present) {
  const MachineConfig config = ApplyTestCpuOverride(config_in);
  irq_.set_tracer(&tracer_);
  std::uint32_t id = 0;
  for (const CpuModel* model : config.cpus) {
    cpus_.push_back(std::make_unique<Cpu>(id++, model));
  }
}

sim::PicoSeconds Machine::MinNowPs() const {
  sim::PicoSeconds min = cpus_[0]->NowPs();
  for (const auto& c : cpus_) {
    if (c->NowPs() < min) {
      min = c->NowPs();
    }
  }
  return min;
}

template <class Self, class Snap>
Status Machine::Sections(Self& s, Snap io) {
  io.Section("hw.mem", 1, s.mem_);
  io.Section("sim.events", 1, s.events_);
  io.Section("hw.irq", 1, s.irq_);
  io.Section("hw.iommu", 1, s.iommu_);
  io.Section("sim.stats", 1, s.stats_);
  io.Section("sim.trace", 1, s.tracer_);
  io.Section("hw.cpus", 1, [&s](auto& sec) {
    sec.Check32(s.cpus_.size());  // The twin has the same CPU topology.
    for (auto& c : s.cpus_) sec.State(*c);
  });
  return io.status();
}

Status Machine::SaveState(sim::Snapshot& snap) const {
  return Sections(*this, sim::SnapSaver(snap));
}
Status Machine::LoadState(const sim::Snapshot& snap) {
  return Sections(*this, sim::SnapLoader(snap));
}

bool Machine::SkipToNextEvent() {
  if (events_.empty()) {
    return false;
  }
  const sim::PicoSeconds deadline = events_.NextDeadline();
  if (!events_.RunOne()) {
    return false;
  }
  for (auto& c : cpus_) {
    c->AdvanceToPs(deadline);
  }
  return true;
}

}  // namespace nova::hw
