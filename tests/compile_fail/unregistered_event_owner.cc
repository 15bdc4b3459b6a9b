// Must not compile: a tagged event for an owner with no registered
// factory. Only EventQueue::RegisterOwner makes an EventOwner, so every
// tagged event has the factory that builds its closure and rebuilds it
// when a snapshot is restored.
#include "src/sim/event_queue.h"

void Arm(nova::sim::EventQueue& q) {
  const nova::sim::EventOwner orphan(
      nova::sim::EventQueue::OwnerToken("hw.orphan"), nullptr);
  q.ScheduleAtTagged(5, orphan, /*op=*/1);
}
