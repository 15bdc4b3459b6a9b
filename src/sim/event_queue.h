// Discrete-event queue driving device-level simulation.
//
// Devices (disk, NIC, timers) schedule callbacks at absolute picosecond
// timestamps; the machine's run loop drains events that are due as CPU
// time advances. Events fire in strictly non-decreasing time order with
// FIFO ordering among events scheduled for the same instant.
//
// Snapshot support: callbacks are closures and cannot be serialized, so
// every event that may be pending at a snapshot point carries an
// `EventTag` — a stable (owner, op, a, b) description of what the closure
// does. Saving writes the exact (when, seq, id, tag) of each pending
// event; restoring looks the owner token up in the rebinder registry
// (populated during twin construction) and asks it to rebuild an
// equivalent closure from the tag. Seq and id are restored verbatim so
// FIFO ties and future Cancel() ids behave identically post-restore.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/sim/snapshot.h"
#include "src/sim/status.h"
#include "src/sim/time.h"

namespace nova::sim {

// Serializable description of a pending event's closure. `owner` is an
// OwnerToken() of the component name ("hw.disk", "vmm.vm0.hb", ...); `op`
// distinguishes the owner's event flavours; `a`/`b` carry the closure's
// captured parameters (request ids, generation counters, entry indices).
// owner == 0 means untagged: such an event pending at snapshot time is a
// save error, which is how snapshot-hostile closures are flushed out.
struct EventTag {
  std::uint64_t owner = 0;
  std::uint32_t op = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class EventQueue {
 public:
  using Callback = std::function<void()>;
  using EventId = std::uint64_t;
  // Rebuilds the closure of a restored event from its tag.
  using Rebinder = std::function<Callback(const EventTag&)>;

  // Stable 64-bit token for a component name (FNV-1a; never returns 0).
  static constexpr std::uint64_t OwnerToken(std::string_view name) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    return h == 0 ? 1 : h;
  }

  // Schedule `cb` to fire at absolute time `when`. Times in the past fire
  // on the next Advance(). Returns an id usable with Cancel().
  EventId ScheduleAt(PicoSeconds when, Callback cb) {
    return ScheduleAtTagged(when, EventTag{}, std::move(cb));
  }
  EventId ScheduleAfter(PicoSeconds delay, Callback cb) {
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  // Tagged variants: identical scheduling semantics, but the event can be
  // serialized and re-bound across a snapshot/restore cycle.
  EventId ScheduleAtTagged(PicoSeconds when, EventTag tag, Callback cb);
  EventId ScheduleAfterTagged(PicoSeconds delay, EventTag tag, Callback cb) {
    return ScheduleAtTagged(now_ + delay, std::move(tag), std::move(cb));
  }

  // Register the closure factory for an owner token. Called during
  // construction by every component that schedules tagged events; a later
  // registration for the same owner replaces the earlier one.
  void RegisterRebinder(std::uint64_t owner, Rebinder fn) {
    rebinders_[owner] = std::move(fn);
  }

  // Cancel a pending event; returns false if it already fired or is unknown.
  bool Cancel(EventId id);

  // Advance simulated time to `t`, firing every event due at or before `t`.
  // Callbacks may schedule further events, including at times <= t.
  void AdvanceTo(PicoSeconds t);

  // Fire the single earliest pending event (if any), jumping time forward
  // to its deadline. Returns false when the queue is empty. Used by idle
  // loops: when all CPUs halt, time skips to the next device event.
  bool RunOne();

  PicoSeconds now() const { return now_; }
  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  PicoSeconds NextDeadline() const;  // Only valid when !empty().

  // Serialize every live pending event. Fails with kBadState-style error
  // (kBadParameter) if any pending event is untagged — closures that
  // cannot be described cannot be restored.
  Status SaveState(SnapWriter& w) const;
  // Drop all pending events (including the twin's construction-time ones)
  // and rebuild the saved set through the rebinder registry. Restores
  // now_/next_seq_/next_id_ so post-restore scheduling is bit-identical.
  Status LoadState(SnapReader& r);

 private:
  struct Event {
    PicoSeconds when;
    std::uint64_t seq;
    EventId id;
    EventTag tag;
    Callback cb;
    bool operator>(const Event& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  void PopCancelled() const;
  template <class Self, class Io>
  static Status Fields(Self& s, Io& io);

  // snapshot-x-list(EventQueue): heap_, cancelled_, now_, next_seq_,
  // next_id_, live_, rebinders_
  mutable std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  mutable std::vector<EventId> cancelled_;
  PicoSeconds now_ = 0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::size_t live_ = 0;
  std::unordered_map<std::uint64_t, Rebinder> rebinders_;
};

}  // namespace nova::sim

#endif  // SRC_SIM_EVENT_QUEUE_H_
