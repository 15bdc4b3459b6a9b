#include "src/sim/event_queue.h"

#include <algorithm>

namespace nova::sim {

EventQueue::EventId EventQueue::ScheduleAtTagged(PicoSeconds when,
                                                 EventTag tag, Callback cb) {
  const EventId id = next_id_++;
  heap_.push(Event{when, next_seq_++, id, tag, std::move(cb)});
  ++live_;
  return id;
}

bool EventQueue::Cancel(EventId id) {
  // Lazy deletion: remember the id and skip it when it reaches the top.
  if (id == 0 || id >= next_id_) {
    return false;
  }
  if (std::find(cancelled_.begin(), cancelled_.end(), id) != cancelled_.end()) {
    return false;
  }
  cancelled_.push_back(id);
  if (live_ > 0) {
    --live_;
  }
  return true;
}

void EventQueue::PopCancelled() const {
  while (!heap_.empty()) {
    auto it = std::find(cancelled_.begin(), cancelled_.end(), heap_.top().id);
    if (it == cancelled_.end()) {
      return;
    }
    cancelled_.erase(it);
    heap_.pop();
  }
}

void EventQueue::AdvanceTo(PicoSeconds t) {
  for (;;) {
    PopCancelled();
    if (heap_.empty() || heap_.top().when > t) {
      break;
    }
    Event ev = heap_.top();
    heap_.pop();
    --live_;
    now_ = std::max(now_, ev.when);
    ev.cb();
  }
  now_ = std::max(now_, t);
}

bool EventQueue::RunOne() {
  PopCancelled();
  if (heap_.empty()) {
    return false;
  }
  Event ev = heap_.top();
  heap_.pop();
  --live_;
  now_ = std::max(now_, ev.when);
  ev.cb();
  return true;
}

PicoSeconds EventQueue::NextDeadline() const {
  PopCancelled();
  return heap_.top().when;
}

template <class Self, class Io>
Status EventQueue::Fields(Self& s, Io& io) {
  io.U64(s.now_);
  io.U64(s.next_seq_);
  io.U64(s.next_id_);
  std::vector<Event> pending;
  if constexpr (!Io::kLoading) {
    // Enumerate by draining a copy of the heap (std::function is
    // copyable), skipping lazily-cancelled entries so the restored queue
    // starts clean.
    auto copy = s.heap_;
    while (!copy.empty()) {
      Event ev = copy.top();
      copy.pop();
      if (std::find(s.cancelled_.begin(), s.cancelled_.end(), ev.id) !=
          s.cancelled_.end()) {
        continue;
      }
      io.Require(ev.tag.owner != 0);  // Untagged closure: not restorable.
      pending.push_back(std::move(ev));
    }
  }
  io.Seq64(pending, [&io](auto& ev) {
    io.U64(ev.when);
    io.U64(ev.seq);
    io.U64(ev.id);
    io.U64(ev.tag.owner);
    io.U32(ev.tag.op);
    io.U64(ev.tag.a);
    io.U64(ev.tag.b);
  });
  if constexpr (Io::kLoading) {
    // Drop every pending event, the twin's construction-time ones too, and
    // rebuild the saved set through the rebinder registry.
    s.heap_ = {};
    s.cancelled_.clear();
    s.live_ = 0;
    for (Event& ev : pending) {
      auto it = s.rebinders_.find(ev.tag.owner);
      if (it != s.rebinders_.end()) ev.cb = it->second(ev.tag);
      if (!ev.cb) {
        io.Latch(Status::kBadCapability);  // No rebinder for this owner.
        break;
      }
      s.heap_.push(std::move(ev));
      ++s.live_;
    }
  }
  return io.status();
}

Status EventQueue::SaveState(SnapWriter& w) const { return Fields(*this, w); }
Status EventQueue::LoadState(SnapReader& r) { return Fields(*this, r); }

}  // namespace nova::sim
