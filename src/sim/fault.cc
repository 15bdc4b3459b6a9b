#include "src/sim/fault.h"

namespace nova::sim {

namespace {
// Tag vocabulary for the plan's activation events.
constexpr std::uint32_t kOpActivate = 1;
}  // namespace

void FaultPlan::set_tracer(Tracer* t) {
  tracer_ = t;
  for (int i = 0; i < kNumFaultKinds; ++i) {
    trace_fire_[i] = t->Intern(
        std::string("fault:") + FaultKindName(static_cast<FaultKind>(i)));
  }
}

void FaultPlan::Arm(EventQueue* events) {
  armed_ = true;
  // The entry count is fixed by construction (the load checks it), so a
  // tag indexing past it is forged.
  const EventOwner owner = events->RegisterOwner(
      "sim.faultplan", [this](const EventTag& tag) -> EventQueue::Callback {
        if (tag.op != kOpActivate || tag.a >= entries_.size()) {
          return nullptr;
        }
        return [this, i = tag.a] { entries_[i].active = true; };
      });
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& entry = entries_[i];
    if (entry.ev.at <= events->now()) {
      entry.active = true;
    } else {
      events->ScheduleAtTagged(entry.ev.at, owner, kOpActivate, i);
    }
  }
}

bool FaultPlan::ShouldFault(FaultKind kind, std::string_view target) {
  for (Entry& entry : entries_) {
    if (!entry.active || entry.ev.kind != kind) {
      continue;
    }
    if (!entry.ev.target.empty() && entry.ev.target != target) {
      continue;
    }
    if (entry.ev.rate < 1.0 && !rng_.Chance(entry.ev.rate)) {
      continue;
    }
    if (entry.ev.count != 0 && --entry.ev.count == 0) {
      entry.active = false;
    }
    ++injected_[static_cast<int>(kind)];
    tracer_->Instant(TraceCat::kFault, trace_fire_[static_cast<int>(kind)],
                     static_cast<std::uint64_t>(kind));
    return true;
  }
  return false;
}

bool FaultPlan::InWindow(FaultKind kind, std::string_view target,
                         PicoSeconds now) const {
  if (!armed_) {
    return false;
  }
  for (const Entry& entry : entries_) {
    if (entry.ev.kind != kind || entry.ev.window_ps == 0) {
      continue;
    }
    if (!entry.ev.target.empty() && entry.ev.target != target) {
      continue;
    }
    if (now >= entry.ev.at && now < entry.ev.at + entry.ev.window_ps) {
      return true;
    }
  }
  return false;
}

std::uint64_t FaultPlan::total_injected() const {
  std::uint64_t total = 0;
  for (int i = 0; i < kNumFaultKinds; ++i) {
    total += injected_[i];
  }
  return total;
}

template <class Self, class Io>
Status FaultPlan::Fields(Self& s, Io& io) {
  io.State(s.rng_);
  io.Bool(s.armed_);
  for (auto& n : s.injected_) io.U64(n);
  io.Check32(s.entries_.size());  // The twin scheduled the same plan.
  for (auto& e : s.entries_) {
    io.U64(e.ev.at);
    io.Enum(e.ev.kind, FaultKind::kLinkPartition);
    io.Str(e.ev.target);
    io.U64(e.ev.count);
    io.F64(e.ev.rate);
    io.U64(e.ev.window_ps);
    io.Bool(e.active);
  }
  return io.status();
}

Status FaultPlan::SaveState(SnapWriter& w) const { return Fields(*this, w); }
Status FaultPlan::LoadState(SnapReader& r) { return Fields(*this, r); }

}  // namespace nova::sim
