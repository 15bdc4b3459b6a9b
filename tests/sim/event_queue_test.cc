#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace nova::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(Nanoseconds(30), [&] { order.push_back(3); });
  q.ScheduleAt(Nanoseconds(10), [&] { order.push_back(1); });
  q.ScheduleAt(Nanoseconds(20), [&] { order.push_back(2); });
  q.AdvanceTo(Nanoseconds(25));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  q.AdvanceTo(Nanoseconds(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameDeadlineIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(Nanoseconds(10), [&order, i] { order.push_back(i); });
  }
  q.AdvanceTo(Nanoseconds(10));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(Nanoseconds(10), [&] {
    ++fired;
    q.ScheduleAfter(Nanoseconds(5), [&] { ++fired; });
  });
  q.AdvanceTo(Nanoseconds(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), Nanoseconds(20));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const auto id = q.ScheduleAt(Nanoseconds(10), [&] { ++fired; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // Second cancel is a no-op.
  q.AdvanceTo(Nanoseconds(20));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(0));
  EXPECT_FALSE(q.Cancel(1234));
}

TEST(EventQueue, RunOneJumpsToDeadline) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(Microseconds(7), [&] { ++fired; });
  EXPECT_TRUE(q.RunOne());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Microseconds(7));
  EXPECT_FALSE(q.RunOne());
}

TEST(EventQueue, NextDeadlineSkipsCancelled) {
  EventQueue q;
  const auto id = q.ScheduleAt(Nanoseconds(5), [] {});
  q.ScheduleAt(Nanoseconds(9), [] {});
  q.Cancel(id);
  EXPECT_EQ(q.NextDeadline(), Nanoseconds(9));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PastEventsFireOnAdvance) {
  EventQueue q;
  q.AdvanceTo(Nanoseconds(100));
  int fired = 0;
  q.ScheduleAt(Nanoseconds(10), [&] { ++fired; });  // Already in the past.
  q.AdvanceTo(Nanoseconds(100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Nanoseconds(100));  // Time never moves backwards.
}

// --- Tagged events: one factory per owner builds every closure ----------

// What a fired test event saw: its tag fields and the time it ran at.
struct Fired {
  std::uint32_t op;
  std::uint64_t a;
  std::uint64_t b;
  PicoSeconds at;
  bool operator==(const Fired&) const = default;
};

// Registers "test.owner" on `q` with a factory that records each fired
// event into `log`; ops above 9 are rejected like a forged tag.
EventOwner RecordingOwner(EventQueue& q, std::vector<Fired>& log) {
  return q.RegisterOwner(
      "test.owner", [&q, &log](const EventTag& tag) -> EventQueue::Callback {
        if (tag.op > 9) return nullptr;
        return [&q, &log, tag] { log.push_back({tag.op, tag.a, tag.b, q.now()}); };
      });
}

Status SaveLoad(const EventQueue& from, EventQueue& to) {
  SnapWriter w;
  const Status saved = from.SaveState(w);
  if (saved != Status::kSuccess) return saved;
  SnapReader r(w.data().data(), w.size());
  return to.LoadState(r);
}

TEST(EventQueueTagged, FiresTheFactoryClosure) {
  EventQueue q;
  std::vector<Fired> log;
  const EventOwner owner = RecordingOwner(q, log);
  q.ScheduleAfterTagged(Nanoseconds(10), owner, 1, 7, 9);
  q.ScheduleAtTagged(Nanoseconds(5), owner, 2);
  q.AdvanceTo(Nanoseconds(20));
  EXPECT_EQ(log, (std::vector<Fired>{{2, 0, 0, Nanoseconds(5)},
                                     {1, 7, 9, Nanoseconds(10)}}));
}

TEST(EventQueueTagged, RestoredEventsKeepTimeIdAndSeq) {
  EventQueue q;
  std::vector<Fired> live;
  const EventOwner owner = RecordingOwner(q, live);
  q.AdvanceTo(Nanoseconds(3));
  q.ScheduleAtTagged(Nanoseconds(40), owner, 1, 1);
  const auto cancelled = q.ScheduleAtTagged(Nanoseconds(20), owner, 1, 2);
  q.ScheduleAtTagged(Nanoseconds(20), owner, 1, 3);  // FIFO tie with a = 4.
  const auto tied = q.ScheduleAtTagged(Nanoseconds(20), owner, 1, 4);
  ASSERT_TRUE(q.Cancel(cancelled));

  EventQueue twin;
  std::vector<Fired> restored;
  const EventOwner twin_owner = RecordingOwner(twin, restored);
  twin.ScheduleAtTagged(Nanoseconds(1), twin_owner, 5);  // Dropped by the load.
  ASSERT_EQ(SaveLoad(q, twin), Status::kSuccess);
  EXPECT_EQ(twin.now(), q.now());
  EXPECT_EQ(twin.size(), q.size());

  // Ids carry over: cancelling the same id drops the same event on both.
  EXPECT_TRUE(q.Cancel(tied));
  EXPECT_TRUE(twin.Cancel(tied));
  EXPECT_EQ(q.ScheduleAtTagged(Nanoseconds(20), owner, 1, 5),
            twin.ScheduleAtTagged(Nanoseconds(20), twin_owner, 1, 5));
  q.AdvanceTo(Nanoseconds(100));
  twin.AdvanceTo(Nanoseconds(100));
  EXPECT_EQ(live, (std::vector<Fired>{{1, 3, 0, Nanoseconds(20)},
                                      {1, 5, 0, Nanoseconds(20)},
                                      {1, 1, 0, Nanoseconds(40)}}));
  EXPECT_EQ(restored, live);
}

TEST(EventQueueTagged, UnknownOwnerFailsTheLoad) {
  EventQueue q;
  std::vector<Fired> log;
  q.ScheduleAtTagged(Nanoseconds(5), RecordingOwner(q, log), 1);
  EventQueue twin;  // Registers no owner.
  EXPECT_EQ(SaveLoad(q, twin), Status::kBadCapability);
}

TEST(EventQueueTagged, RejectedTagFailsTheLoad) {
  EventQueue q;
  std::vector<Fired> log;
  q.ScheduleAtTagged(Nanoseconds(5), RecordingOwner(q, log), 1);
  EventQueue twin;
  const EventOwner strict = twin.RegisterOwner(
      "test.owner", [](const EventTag&) -> EventQueue::Callback { return nullptr; });
  EXPECT_EQ(SaveLoad(q, twin), Status::kBadCapability);
}

TEST(EventQueueTaggedDeathTest, RejectedTagAbortsAtTheScheduleSite) {
  EventQueue q;
  std::vector<Fired> log;
  const EventOwner owner = RecordingOwner(q, log);
  EXPECT_DEATH(q.ScheduleAtTagged(Nanoseconds(5), owner, 10),
               "rejected op 10 .* at schedule time");
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTagged, PendingUntaggedEventFailsTheSave) {
  EventQueue q;
  q.ScheduleAt(Nanoseconds(5), [] {});
  SnapWriter w;
  EXPECT_EQ(q.SaveState(w), Status::kBadParameter);
}

}  // namespace
}  // namespace nova::sim
