// Timer facility (src/net/timer_wheel.h, DESIGN.md §14): the slotted wheel the TCP
// backend arms its timerfd from, and the virtual-clock SimTimerQueue the simulator nodes
// use. The wheel's determinism contract — never early, at most one tick late, (tick,
// insertion-seq) firing order, multi-revolution entries held back — is what makes
// wheel-driven heartbeat schedules reproducible, so each clause gets pinned here.

#include <gtest/gtest.h>

#include <vector>

#include "src/net/timer_wheel.h"
#include "src/sim/simulation.h"

namespace nimbus {
namespace {

using net::TimerWheel;

// Runs every due callback and returns how many fired.
int Fire(TimerWheel* wheel, sim::TimePoint now) {
  auto fns = wheel->PopDue(now);
  for (auto& fn : fns) {
    fn();
  }
  return static_cast<int>(fns.size());
}

TEST(TimerWheelTest, FiresInTickThenInsertionOrder) {
  TimerWheel wheel(sim::Millis(1));
  std::vector<int> order;
  wheel.Schedule(0, sim::Millis(5), [&]() { order.push_back(5); });
  wheel.Schedule(0, sim::Millis(1), [&]() { order.push_back(1); });
  wheel.Schedule(0, sim::Millis(1), [&]() { order.push_back(2); });
  EXPECT_EQ(wheel.pending(), 3u);

  EXPECT_EQ(Fire(&wheel, sim::Millis(10)), 3);
  // Same-tick entries fire in insertion order; distinct ticks in tick order.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5}));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, NeverFiresEarlyDeadlinesRoundUpToTheTick) {
  TimerWheel wheel(sim::Millis(1));
  bool fired = false;
  // 1.5ms rounds up to tick 2: due at 2ms, not at 1ms.
  wheel.Schedule(0, sim::Micros(1500), [&]() { fired = true; });
  EXPECT_EQ(Fire(&wheel, sim::Millis(1)), 0);
  EXPECT_FALSE(fired);
  EXPECT_EQ(Fire(&wheel, sim::Millis(2)), 1);
  EXPECT_TRUE(fired);
}

TEST(TimerWheelTest, ZeroDelayLandsOnTheNextUndrainedTick) {
  TimerWheel wheel(sim::Millis(1));
  bool fired = false;
  // A zero delay cannot fire from the already-drained current tick; it lands on the next.
  wheel.Schedule(0, 0, [&]() { fired = true; });
  EXPECT_EQ(Fire(&wheel, 0), 0);
  EXPECT_EQ(Fire(&wheel, sim::Millis(1)), 1);
  EXPECT_TRUE(fired);
}

TEST(TimerWheelTest, MultiRevolutionEntriesWaitTheirTurn) {
  // 4 slots of 1ms: ticks 2 and 10 share slot 2 but belong to different revolutions.
  TimerWheel wheel(sim::Millis(1), /*slots=*/4);
  std::vector<int> order;
  wheel.Schedule(0, sim::Millis(10), [&]() { order.push_back(10); });
  wheel.Schedule(0, sim::Millis(2), [&]() { order.push_back(2); });

  EXPECT_EQ(Fire(&wheel, sim::Millis(2)), 1);
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(wheel.pending(), 1u);
  EXPECT_EQ(Fire(&wheel, sim::Millis(9)), 0);  // same slot passes again, wrong revolution
  EXPECT_EQ(Fire(&wheel, sim::Millis(10)), 1);
  EXPECT_EQ(order, (std::vector<int>{2, 10}));
}

TEST(TimerWheelTest, FullRevolutionJumpSweepsEverySlotInOrder) {
  TimerWheel wheel(sim::Millis(1), /*slots=*/4);
  std::vector<int> order;
  for (int ms : {7, 3, 5, 11}) {
    wheel.Schedule(0, sim::Millis(ms), [&order, ms]() { order.push_back(ms); });
  }
  // One PopDue far past every deadline (> slots * tick): the sweep path must still
  // deliver in deadline order, not slot order.
  EXPECT_EQ(Fire(&wheel, sim::Millis(100)), 4);
  EXPECT_EQ(order, (std::vector<int>{3, 5, 7, 11}));
}

TEST(TimerWheelTest, NextDeadlineTracksEarliestPendingEntry) {
  TimerWheel wheel(sim::Millis(1));
  EXPECT_EQ(wheel.NextDeadline(), TimerWheel::kNever);
  wheel.Schedule(0, sim::Millis(7), []() {});
  wheel.Schedule(0, sim::Millis(3), []() {});
  EXPECT_EQ(wheel.NextDeadline(), sim::Millis(3));
  // Firing the earliest entry moves the deadline to the survivor.
  EXPECT_EQ(Fire(&wheel, sim::Millis(3)), 1);
  EXPECT_EQ(wheel.NextDeadline(), sim::Millis(7));
  Fire(&wheel, sim::Millis(7));
  EXPECT_EQ(wheel.NextDeadline(), TimerWheel::kNever);
}

TEST(TimerWheelTest, AnchorsLazilyToANonZeroClock) {
  // CLOCK_MONOTONIC does not start at zero; the wheel anchors its cursor to the first
  // timestamp it sees instead of walking every tick since the epoch.
  TimerWheel wheel(sim::Millis(1));
  const sim::TimePoint boot = sim::Seconds(12345);
  bool fired = false;
  wheel.Schedule(boot, sim::Millis(2), [&]() { fired = true; });
  EXPECT_EQ(Fire(&wheel, boot + sim::Millis(1)), 0);
  EXPECT_EQ(Fire(&wheel, boot + sim::Millis(2)), 1);
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
