#include "src/sim/event_queue.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace nova::sim {

EventOwner EventQueue::RegisterOwner(std::string_view name, Factory factory) {
  const std::uint64_t token = OwnerToken(name);
  auto shared = std::make_shared<const Factory>(std::move(factory));
  owners_[token] = shared;
  return EventOwner(token, std::move(shared));
}

EventQueue::EventId EventQueue::ScheduleAtTagged(PicoSeconds when,
                                                 const EventOwner& owner,
                                                 std::uint32_t op,
                                                 std::uint64_t a,
                                                 std::uint64_t b) {
  const EventTag tag{owner.token_, op, a, b};
  Callback cb = (*owner.factory_)(tag);
  if (!cb) {
    // The owner rejected its own live tag: a bug at this call site. Stop
    // here rather than queue an empty closure that fails when it fires.
    std::fprintf(stderr,
                 "EventQueue: owner %016llx rejected op %u (a=%llu b=%llu) "
                 "at schedule time\n",
                 static_cast<unsigned long long>(tag.owner), op,
                 static_cast<unsigned long long>(a),
                 static_cast<unsigned long long>(b));
    std::abort();
  }
  return Push(when, tag, std::move(cb));
}

EventQueue::EventId EventQueue::Push(PicoSeconds when, const EventTag& tag,
                                     Callback cb) {
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
    // rebuild the saved set through the owners' factories.
    s.heap_ = {};
    s.cancelled_.clear();
    s.live_ = 0;
    for (Event& ev : pending) {
      auto it = s.owners_.find(ev.tag.owner);
      if (it != s.owners_.end()) ev.cb = (*it->second)(ev.tag);
      if (!ev.cb) {
        io.Latch(Status::kBadCapability);  // Unknown owner or rejected tag.
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
