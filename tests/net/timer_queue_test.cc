// Timer facility (src/net/timer_queue.h, DESIGN.md §14): the deadline heap the TCP
// backend arms its timerfd from, and the virtual-clock SimTimerQueue the simulator nodes
// use. The heap's contract — exact deadlines, never early, (deadline, insertion-seq)
// firing order, any clock origin — is what makes heap-driven heartbeat schedules
// reproducible, so each clause gets pinned here.

#include <gtest/gtest.h>

#include <vector>

#include "src/net/timer_queue.h"
#include "src/sim/simulation.h"

namespace nimbus {
namespace {

using net::TimerHeap;

// Runs every due callback and returns how many fired.
int Fire(TimerHeap* heap, sim::TimePoint now) {
  auto fns = heap->PopDue(now);
  for (auto& fn : fns) {
    fn();
  }
  return static_cast<int>(fns.size());
}

TEST(TimerHeapTest, FiresInDeadlineThenInsertionOrder) {
  TimerHeap heap;
  std::vector<int> order;
  heap.Schedule(0, sim::Millis(5), [&]() { order.push_back(5); });
  heap.Schedule(0, sim::Millis(1), [&]() { order.push_back(1); });
  heap.Schedule(0, sim::Millis(1), [&]() { order.push_back(2); });
  EXPECT_EQ(heap.pending(), 3u);

  EXPECT_EQ(Fire(&heap, sim::Millis(10)), 3);
  // Same-deadline entries fire in insertion order; distinct deadlines in deadline order.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5}));
  EXPECT_EQ(heap.pending(), 0u);
}

TEST(TimerHeapTest, FiresAtItsExactDeadlineNeverEarly) {
  TimerHeap heap;
  bool fired = false;
  heap.Schedule(0, sim::Micros(1500), [&]() { fired = true; });
  EXPECT_EQ(Fire(&heap, sim::Micros(1500) - 1), 0);
  EXPECT_FALSE(fired);
  EXPECT_EQ(Fire(&heap, sim::Micros(1500)), 1);
  EXPECT_TRUE(fired);
}

TEST(TimerHeapTest, NextDeadlineTracksEarliestPendingEntry) {
  TimerHeap heap;
  EXPECT_EQ(heap.NextDeadline(), TimerHeap::kNever);
  heap.Schedule(0, sim::Millis(7), []() {});
  heap.Schedule(0, sim::Millis(3), []() {});
  EXPECT_EQ(heap.NextDeadline(), sim::Millis(3));
  // Firing the earliest entry moves the deadline to the survivor.
  EXPECT_EQ(Fire(&heap, sim::Millis(3)), 1);
  EXPECT_EQ(heap.NextDeadline(), sim::Millis(7));
  Fire(&heap, sim::Millis(7));
  EXPECT_EQ(heap.NextDeadline(), TimerHeap::kNever);
}

TEST(TimerHeapTest, DeadlinesFollowANonZeroClock) {
  // CLOCK_MONOTONIC does not start at zero; deadlines are absolute on the caller's clock.
  TimerHeap heap;
  const sim::TimePoint boot = sim::Seconds(12345);
  bool fired = false;
  heap.Schedule(boot, sim::Millis(2), [&]() { fired = true; });
  EXPECT_EQ(heap.NextDeadline(), boot + sim::Millis(2));
  EXPECT_EQ(Fire(&heap, boot + sim::Millis(1)), 0);
  EXPECT_EQ(Fire(&heap, boot + sim::Millis(2)), 1);
  EXPECT_TRUE(fired);
}

TEST(SimTimerQueueTest, SchedulesOnVirtualTimeAndReportsIt) {
  sim::Simulation simulation;
  net::SimTimerQueue timers(&simulation);
  EXPECT_EQ(timers.Now(), 0);

  sim::TimePoint fired_at = -1;
  timers.Schedule(sim::Millis(5), [&]() { fired_at = timers.Now(); });
  simulation.Run();
  EXPECT_EQ(fired_at, sim::Millis(5));
  EXPECT_EQ(timers.Now(), sim::Millis(5));
}

}  // namespace
}  // namespace nimbus
