#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace dpm::sim {
namespace {

using util::TimePoint;
using util::usec;

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(TimePoint{} + usec(30), [&] { fired.push_back(3); });
  q.schedule(TimePoint{} + usec(10), [&] { fired.push_back(1); });
  q.schedule(TimePoint{} + usec(20), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  const TimePoint t = TimePoint{} + usec(5);
  for (int i = 0; i < 10; ++i) {
    q.schedule(t, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop()();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.schedule(TimePoint{} + usec(50), [] {});
  q.schedule(TimePoint{} + usec(20), [] {});
  EXPECT_EQ(q.next_time(), TimePoint{} + usec(20));
  q.pop();
  EXPECT_EQ(q.next_time(), TimePoint{} + usec(50));
}

TEST(EventQueue, CancelledAndLiveEventsDueAtTheSameTime) {
  // Tombstones are ordered like the heap: a cancelled event between two
  // live ones at the same instant is skipped without reordering them.
  EventQueue q;
  std::vector<int> fired;
  const TimePoint t = TimePoint{} + usec(5);
  std::vector<EventId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(q.schedule(t, [&fired, i] { fired.push_back(i); }));
  }
  q.schedule(TimePoint{} + usec(10), [&fired] { fired.push_back(10); });
  q.cancel(ids[3], t);
  q.cancel(ids[1], t);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.next_time(), t);
  while (!q.empty()) q.pop()();
  EXPECT_EQ(fired, (std::vector<int>{0, 2, 10}));
}

TEST(EventQueue, QueueOfOnlyCancelledEventsIsEmpty) {
  EventQueue q;
  const EventId a = q.schedule(TimePoint{} + usec(30), [] {});
  const EventId b = q.schedule(TimePoint{} + usec(10), [] {});
  const EventId c = q.schedule(TimePoint{} + usec(20), [] {});
  q.cancel(c, TimePoint{} + usec(20));
  q.cancel(a, TimePoint{} + usec(30));
  EXPECT_FALSE(q.empty());
  q.cancel(b, TimePoint{} + usec(10));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.pending().empty());
  EXPECT_EQ(q.next_seq(), 3u);
}

TEST(EventQueue, PendingSkipsExactlyTheCancelledEvents) {
  EventQueue q;
  std::vector<std::pair<TimePoint, EventId>> live;
  for (int i = 0; i < 12; ++i) {
    const TimePoint at = TimePoint{} + usec((i * 7) % 5);
    const EventId id = q.schedule(at, [] {});
    if (i % 3 == 1) {
      q.cancel(id, at);
    } else {
      live.emplace_back(at, id);
    }
  }
  std::sort(live.begin(), live.end());
  EXPECT_EQ(q.pending(), live);
  EXPECT_EQ(q.size(), live.size());
  // Popping walks the same order.
  for (const auto& [at, id] : live) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.next_time(), at);
    q.pop();
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeTracksContents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.schedule(TimePoint{}, [] {});
  q.schedule(TimePoint{}, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
}

}  // namespace
}  // namespace dpm::sim
