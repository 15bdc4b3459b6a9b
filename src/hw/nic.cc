#include "src/hw/nic.h"

#include <cstring>

namespace nova::hw {

namespace {
constexpr std::uint32_t kOpCoalesce = 1;
constexpr std::uint32_t kOpSend = 1;
}  // namespace

Nic::Nic(DeviceId id, Iommu* iommu, IrqChip* irq, std::uint32_t gsi,
         sim::EventQueue* events)
    : Device(id, "nic"),
      iommu_(iommu),
      irq_(irq),
      gsi_(gsi),
      events_(events),
      owner_(events->RegisterOwner("hw.nic", [this](const sim::EventTag&) {
        return [this] { CoalesceExpired(); };
      })) {}

void Nic::set_tracer(sim::Tracer* t) {
  tracer_ = t;
  trace_rx_ = t->Intern("NIC RX DMA");
}

std::uint64_t Nic::MmioRead(std::uint64_t offset, unsigned /*size*/) {
  switch (offset) {
    case nic::kCtrl: return ctrl_;
    case nic::kStatus: return 0x3;  // Link up, full duplex.
    case nic::kIcr: {
      const std::uint32_t v = icr_;
      icr_ = 0;  // Read-to-clear.
      return v;
    }
    case nic::kItr: return itr_;
    case nic::kIms: return ims_;
    case nic::kRctl: return rctl_;
    case nic::kRdbal: return rdbal_;
    case nic::kRdbah: return rdbah_;
    case nic::kRdlen: return rdlen_;
    case nic::kRdh: return rdh_;
    case nic::kRdt: return rdt_;
    default: return 0;
  }
}

void Nic::MmioWrite(std::uint64_t offset, unsigned /*size*/, std::uint64_t value) {
  const auto v = static_cast<std::uint32_t>(value);
  switch (offset) {
    case nic::kCtrl: ctrl_ = v; break;
    case nic::kItr: itr_ = v; break;
    case nic::kIms: ims_ |= v; break;
    case nic::kImc: ims_ &= ~v; break;
    case nic::kRctl: rctl_ = v; break;
    case nic::kRdbal: rdbal_ = v & ~0xfu; break;
    case nic::kRdbah: rdbah_ = v; break;
    case nic::kRdlen: rdlen_ = v & ~0x7fu; break;
    case nic::kRdh: rdh_ = v; break;
    case nic::kRdt: rdt_ = v; break;
    default: break;
  }
}

bool Nic::Receive(const std::uint8_t* frame, std::uint32_t length) {
  if (fault_plan_ != nullptr &&
      fault_plan_->ShouldFault(sim::FaultKind::kNicDrop, "nic")) {
    rx_dropped_.Add();  // Injected wire loss.
    return false;
  }
  std::vector<std::uint8_t> corrupted;
  if (fault_plan_ != nullptr && length > 0 &&
      fault_plan_->ShouldFault(sim::FaultKind::kNicCorrupt, "nic")) {
    // Injected bit error: flip one byte, deterministically placed.
    corrupted.assign(frame, frame + length);
    corrupted[length / 2] ^= 0xff;
    frame = corrupted.data();
    rx_corrupted_.Add();
  }
  if ((rctl_ & nic::kRctlEnable) == 0 || RingEntries() == 0) {
    rx_dropped_.Add();
    return false;
  }
  // Hardware owns descriptors [RDH, RDT); ring full when RDH == RDT.
  if (rdh_ == rdt_) {
    rx_dropped_.Add();
    return false;
  }
  const std::uint64_t ring_base =
      (static_cast<std::uint64_t>(rdbah_) << 32) | rdbal_;
  const std::uint64_t desc_addr = ring_base + rdh_ * 16ull;

  nic::RxDescriptor desc{};
  if (!Ok(iommu_->DmaRead(id(), desc_addr, &desc, sizeof(desc)))) {
    rx_dropped_.Add();
    return false;
  }
  if (!Ok(iommu_->DmaWrite(id(), desc.buffer, frame, length))) {
    rx_dropped_.Add();
    return false;
  }
  desc.length = static_cast<std::uint16_t>(length);
  desc.status = nic::kRxStatusDd | nic::kRxStatusEop;
  if (!Ok(iommu_->DmaWrite(id(), desc_addr, &desc, sizeof(desc)))) {
    rx_dropped_.Add();
    return false;
  }
  rdh_ = (rdh_ + 1) % RingEntries();
  rx_packets_.Add();
  tracer_->Instant(sim::TraceCat::kDevice, trace_rx_, length);

  icr_ |= nic::kIcrRxt0;
  RaiseOrCoalesce();
  return true;
}

void Nic::RaiseOrCoalesce() {
  if ((icr_ & ims_) == 0) {
    return;
  }
  const sim::PicoSeconds interval = static_cast<sim::PicoSeconds>(itr_) * 256 *
                                    sim::kPicosPerNano;
  const sim::PicoSeconds now = events_->now();
  if (interval == 0 || now >= last_irq_ + interval) {
    FireIrq();
    return;
  }
  if (!irq_scheduled_) {
    irq_scheduled_ = true;
    events_->ScheduleAtTagged(last_irq_ + interval, owner_, kOpCoalesce);
  }
}

void Nic::CoalesceExpired() {
  irq_scheduled_ = false;
  if ((icr_ & ims_) != 0) {
    FireIrq();
  }
}

template <class Self, class Io>
Status Nic::Fields(Self& s, Io& io) {
  for (auto* reg : {&s.ctrl_, &s.icr_, &s.itr_, &s.ims_, &s.rctl_, &s.rdbal_,
                    &s.rdbah_, &s.rdlen_, &s.rdh_, &s.rdt_}) {
    io.U32(*reg);
  }
  io.Bool(s.irq_scheduled_);
  io.U64(s.last_irq_);
  io.State(s.rx_packets_, s.rx_dropped_, s.rx_corrupted_, s.irqs_);
  return io.status();
}

Status Nic::SaveState(sim::SnapWriter& w) const { return Fields(*this, w); }
Status Nic::LoadState(sim::SnapReader& r) { return Fields(*this, r); }

void Nic::FireIrq() {
  last_irq_ = events_->now();
  irqs_.Add();
  if (iommu_->GsiAllowed(id(), gsi_)) {
    irq_->Assert(gsi_);
  }
}

NetLink::NetLink(sim::EventQueue* events, Nic* nic)
    : events_(events),
      owner_(events->RegisterOwner("hw.netlink", [this](const sim::EventTag&) {
        return [this] { SendOne(); };
      })),
      nic_(nic) {}

void NetLink::StartStream(double mbit_per_s, std::uint32_t packet_bytes) {
  running_ = true;
  packet_bytes_ = packet_bytes;
  const double bits_per_packet = packet_bytes * 8.0;
  const double packets_per_second = mbit_per_s * 1e6 / bits_per_packet;
  interval_ = static_cast<sim::PicoSeconds>(1e12 / packets_per_second);
  events_->ScheduleAfterTagged(interval_, owner_, kOpSend);
}

void NetLink::Stop() { running_ = false; }

bool NetLink::Partitioned() const {
  return fault_plan_ != nullptr &&
         fault_plan_->InWindow(sim::FaultKind::kLinkPartition, "netlink",
                               events_->now());
}

void NetLink::SendOne() {
  if (!running_) {
    return;
  }
  if (Partitioned()) {
    // Partition window: the frame is lost on the wire; the receiver never
    // sees it. Keep the clock ticking so the link resumes when it heals.
    ++seq_;
    sent_.Add();
    lost_.Add();
  } else {
    std::vector<std::uint8_t> frame(packet_bytes_);
    // Ethernet-ish header + sequence number + pattern payload.
    std::memset(frame.data(), 0xee, std::min<std::size_t>(frame.size(), 14));
    if (frame.size() >= 22) {
      std::memcpy(frame.data() + 14, &seq_, 8);
    }
    for (std::size_t i = 22; i < frame.size(); ++i) {
      frame[i] = static_cast<std::uint8_t>(seq_ + i);
    }
    ++seq_;
    nic_->Receive(frame.data(), packet_bytes_);
    sent_.Add();
  }
  events_->ScheduleAfterTagged(interval_, owner_, kOpSend);
}

template <class Self, class Io>
Status NetLink::Fields(Self& s, Io& io) {
  io.Bool(s.running_);
  io.U32(s.packet_bytes_);
  io.U64(s.interval_);
  io.U64(s.seq_);
  io.State(s.sent_, s.lost_);
  return io.status();
}

Status NetLink::SaveState(sim::SnapWriter& w) const {
  return Fields(*this, w);
}
Status NetLink::LoadState(sim::SnapReader& r) { return Fields(*this, r); }

}  // namespace nova::hw
