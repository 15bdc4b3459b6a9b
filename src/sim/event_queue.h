// Discrete-event queue driving device-level simulation.
//
// Devices (disk, NIC, timers) schedule callbacks at absolute picosecond
// timestamps; the machine's run loop drains events that are due as CPU
// time advances. Events fire in strictly non-decreasing time order with
// FIFO ordering among events scheduled for the same instant.
//
// Snapshot support: callbacks are closures and cannot be serialized, so
// every event that may be pending at a snapshot point is *tagged*: it
// carries an `EventTag` — a stable (owner, op, a, b) description — and
// its closure is built from that tag by the owner's factory, the one
// place the event's body is written. A component registers the factory
// once (RegisterOwner) and gets back an `EventOwner` handle; a tagged
// event can only be scheduled through such a handle, and scheduling calls
// the factory to bind the closure. Saving writes the exact (when, seq,
// id, tag) of each pending event; restoring looks the owner token up in
// the registry (populated during twin construction) and calls the same
// factory. Seq and id are restored verbatim so FIFO ties and future
// Cancel() ids behave identically post-restore.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <memory>
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

class EventOwner;

class EventQueue {
 public:
  using Callback = std::function<void()>;
  using EventId = std::uint64_t;
  // Builds the closure of a tagged event from its tag, both when the
  // event is scheduled and when LoadState restores it. A null result
  // rejects the tag (a forged one on load).
  using Factory = std::function<Callback(const EventTag&)>;

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
  // on the next Advance(). Returns an id usable with Cancel(). Untagged:
  // a snapshot taken while it is pending fails.
  EventId ScheduleAt(PicoSeconds when, Callback cb) {
    return Push(when, EventTag{}, std::move(cb));
  }
  EventId ScheduleAfter(PicoSeconds delay, Callback cb) {
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  // Tagged variants: identical scheduling semantics, but the closure is
  // `owner`'s factory applied to (op, a, b), so the event can be
  // serialized and rebuilt across a snapshot/restore cycle. A factory
  // that rejects (returns null for) a live tag aborts the process here.
  EventId ScheduleAtTagged(PicoSeconds when, const EventOwner& owner,
                           std::uint32_t op, std::uint64_t a = 0,
                           std::uint64_t b = 0);
  EventId ScheduleAfterTagged(PicoSeconds delay, const EventOwner& owner,
                              std::uint32_t op, std::uint64_t a = 0,
                              std::uint64_t b = 0) {
    return ScheduleAtTagged(now_ + delay, owner, op, a, b);
  }

  // Register the closure factory of the component `name`. Called during
  // construction by every component that schedules tagged events. A later
  // registration under the same name takes over restores; events already
  // scheduled, and events scheduled through an earlier handle, keep the
  // factory they were bound with.
  [[nodiscard]] EventOwner RegisterOwner(std::string_view name,
                                         Factory factory);

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
  // and rebuild the saved set through the owners' factories; an unknown
  // owner or a rejected tag fails with kBadCapability. Restores
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

  EventId Push(PicoSeconds when, const EventTag& tag, Callback cb);
  void PopCancelled() const;
  template <class Self, class Io>
  static Status Fields(Self& s, Io& io);

  // snapshot-x-list(EventQueue): heap_, cancelled_, now_, next_seq_,
  // next_id_, live_, owners_
  mutable std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  mutable std::vector<EventId> cancelled_;
  PicoSeconds now_ = 0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::size_t live_ = 0;
  std::unordered_map<std::uint64_t, std::shared_ptr<const Factory>> owners_;
};

// A registered event owner. Only EventQueue::RegisterOwner makes one, so
// every tagged event is scheduled through a factory that exists.
class EventOwner {
 private:
  friend class EventQueue;
  EventOwner(std::uint64_t token, std::shared_ptr<const EventQueue::Factory> f)
      : token_(token), factory_(std::move(f)) {}

  std::uint64_t token_;
  std::shared_ptr<const EventQueue::Factory> factory_;
};

}  // namespace nova::sim

#endif  // SRC_SIM_EVENT_QUEUE_H_
