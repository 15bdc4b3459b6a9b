// Platform interrupt fabric.
//
// Models an IOAPIC-style chip: devices assert global system interrupts
// (GSIs); the chip routes each enabled GSI to a destination CPU as a
// vector. Delivery is edge-style with a per-GSI mask bit — the
// microhypervisor masks a GSI on arrival and the user-level driver unmasks
// it after handling, exactly the flow the paper's drivers use.
#ifndef SRC_HW_IRQ_H_
#define SRC_HW_IRQ_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace nova::hw {

constexpr std::uint32_t kNumGsis = 64;
constexpr std::uint32_t kMaxCpus = 8;

class IrqChip {
 public:
  struct Route {
    bool enabled = false;
    bool masked = true;
    std::uint32_t cpu = 0;
    std::uint8_t vector = 0;
  };

  // Configuration (done by the microhypervisor).
  void Configure(std::uint32_t gsi, std::uint32_t cpu, std::uint8_t vector);
  void Mask(std::uint32_t gsi);
  void Unmask(std::uint32_t gsi);
  const Route& route(std::uint32_t gsi) const { return routes_[gsi]; }

  // Device side: assert a GSI (edge). If the route is enabled and unmasked,
  // the interrupt becomes pending at the destination CPU; a masked GSI
  // stays latched and fires on unmask.
  void Assert(std::uint32_t gsi);

  // CPU side: highest pending vector for `cpu`, if any.
  std::optional<std::uint8_t> PendingVector(std::uint32_t cpu) const;
  // Snapshot of all pending vectors (highest first) without consuming.
  std::vector<std::uint8_t> PendingVectors(std::uint32_t cpu) const;
  // Acknowledge (consume) a pending vector on `cpu`.
  void Acknowledge(std::uint32_t cpu, std::uint8_t vector);
  bool HasPending(std::uint32_t cpu) const;

  std::uint64_t asserted(std::uint32_t gsi) const { return assert_counts_[gsi]; }

  // Wires the machine's tracer in; interns the chip's event names once.
  void set_tracer(sim::Tracer* t);

  Status SaveState(sim::SnapWriter& w) const { return Fields(*this, w); }
  Status LoadState(sim::SnapReader& r) { return Fields(*this, r); }

 private:
  template <class Self, class Io>
  static Status Fields(Self& s, Io& io) {
    for (auto& rt : s.routes_) {
      io.Bool(rt.enabled);
      io.Bool(rt.masked);
      io.U32(rt.cpu);
      io.Require(rt.cpu < kMaxCpus);  // Indexes pending_ on delivery.
      io.U8(rt.vector);
    }
    for (auto& l : s.latched_) io.Bool(l);
    for (auto& cpu_bits : s.pending_) {
      for (auto& word : cpu_bits) io.U64(word);
    }
    for (auto& c : s.assert_counts_) io.U64(c);
    return io.status();
  }

  void Deliver(std::uint32_t gsi);

  // snapshot-x-list(IrqChip): tracer_, trace_assert_, trace_deliver_,
  // routes_, latched_, pending_, assert_counts_
  sim::Tracer* tracer_ = &sim::Tracer::Disabled();
  std::uint16_t trace_assert_ = 0;
  std::uint16_t trace_deliver_ = 0;
  std::array<Route, kNumGsis> routes_{};
  std::array<bool, kNumGsis> latched_{};
  // Per-CPU pending vector bitmap (256 vectors).
  std::array<std::array<std::uint64_t, 4>, kMaxCpus> pending_{};
  std::array<std::uint64_t, kNumGsis> assert_counts_{};
};

}  // namespace nova::hw

#endif  // SRC_HW_IRQ_H_
