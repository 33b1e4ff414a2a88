// Unit tests for the discrete-event engine, processors, core pools, the node work meter and
// the network model.

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/cost_model.h"
#include "src/sim/network.h"
#include "src/sim/simulation.h"
#include "src/sim/work_meter.h"

namespace nimbus::sim {
namespace {

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.ScheduleAt(Millis(30), [&] { order.push_back(3); });
  s.ScheduleAt(Millis(10), [&] { order.push_back(1); });
  s.ScheduleAt(Millis(20), [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), Millis(30));
}

TEST(SimulationTest, TiesBreakByInsertionOrder) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
  }
  s.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(SimulationTest, CallbacksCanScheduleMoreEvents) {
  Simulation s;
  int fired = 0;
  s.ScheduleAfter(Millis(1), [&] {
    ++fired;
    s.ScheduleAfter(Millis(1), [&] { ++fired; });
  });
  s.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), Millis(2));
}

TEST(SimulationTest, RunUntilLeavesLaterEventsQueued) {
  Simulation s;
  int fired = 0;
  s.ScheduleAt(Millis(10), [&] { ++fired; });
  s.ScheduleAt(Millis(30), [&] { ++fired; });
  s.RunUntil(Millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pending_events(), 1u);
  s.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, RunUntilConditionStopsEarly) {
  Simulation s;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    s.ScheduleAt(Millis(i), [&] { ++fired; });
  }
  const bool ok = s.RunUntilCondition([&] { return fired == 4; });
  EXPECT_TRUE(ok);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(s.now(), Millis(4));
}

TEST(SimulationTest, RunUntilConditionReturnsFalseWhenDrained) {
  Simulation s;
  s.ScheduleAfter(Millis(1), [] {});
  EXPECT_FALSE(s.RunUntilCondition([] { return false; }));
}

TEST(SimulationTest, PastEventsClampToNow) {
  Simulation s;
  s.ScheduleAt(Millis(10), [] {});
  s.Run();
  bool fired = false;
  s.ScheduleAt(Millis(5), [&] { fired = true; });  // in the past
  s.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), Millis(10));
}

TEST(ProcessorTest, SerializesWork) {
  Simulation s;
  Processor p(&s);
  std::vector<TimePoint> finish;
  p.Submit(Millis(10), [&] { finish.push_back(s.now()); });
  p.Submit(Millis(5), [&] { finish.push_back(s.now()); });
  s.Run();
  ASSERT_EQ(finish.size(), 2u);
  EXPECT_EQ(finish[0], Millis(10));
  EXPECT_EQ(finish[1], Millis(15));  // queued behind the first
  EXPECT_EQ(p.total_busy(), Millis(15));
}

TEST(ProcessorTest, IdleGapsDoNotAccumulate) {
  Simulation s;
  Processor p(&s);
  p.Charge(Millis(1));
  s.Run();
  s.ScheduleAt(Millis(100), [] {});
  s.Run();
  // Submitting at t=100 on an idle processor starts immediately.
  const TimePoint done = p.Charge(Millis(2));
  EXPECT_EQ(done, Millis(102));
}

TEST(CorePoolTest, ParallelUpToCoreCount) {
  Simulation s;
  CorePool pool(&s, 4);
  std::vector<TimePoint> finish;
  for (int i = 0; i < 8; ++i) {
    pool.Submit(Millis(10), [&] { finish.push_back(s.now()); });
  }
  s.Run();
  ASSERT_EQ(finish.size(), 8u);
  // First four run in parallel, next four queue behind them.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(finish[static_cast<std::size_t>(i)], Millis(10));
    EXPECT_EQ(finish[static_cast<std::size_t>(i + 4)], Millis(20));
  }
}

TEST(CorePoolTest, WorkConserving) {
  Simulation s;
  CorePool pool(&s, 2);
  pool.Submit(Millis(10), [] {});
  pool.Submit(Millis(2), [] {});
  // The third item should land on the core that frees at 2ms, not the 10ms one.
  const TimePoint done = pool.Submit(Millis(3), [] {});
  EXPECT_EQ(done, Millis(5));
}

// ---- Real-time nodes (null simulation): RunInline's FIFO ----

TEST(RunInlineTest, NestedCallsQueueAndRunAfterTheOuterCallInFifoOrder) {
  std::vector<int> order;
  RunInline([&] {
    order.push_back(0);
    RunInline([&] {
      order.push_back(2);
      RunInline([&] { order.push_back(4); });
      order.push_back(3);
    });
    RunInline([&] { order.push_back(5); });
    order.push_back(1);
  });
  // Only the outermost call runs its callback at once; nested ones wait their turn.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 5, 4}));
  // The queue is empty again: the next outermost call runs at once.
  RunInline([&] { order.push_back(6); });
  EXPECT_EQ(order.back(), 6);
}

// Each link submits the next from inside its own callback, the shape of a worker's
// completion cascade along a dependency chain. Plain recursion would need one stack frame
// per link; the FIFO needs none.
void Chain(int remaining, int* ran) {
  ++*ran;
  if (remaining > 0) {
    RunInline([remaining, ran] { Chain(remaining - 1, ran); });
  }
}

TEST(RunInlineTest, DeepNestedChainCompletes) {
  constexpr int kDepth = 100000;
  int ran = 0;
  RunInline([&ran] { Chain(kDepth - 1, &ran); });
  EXPECT_EQ(ran, kDepth);
}

TEST(WorkMeterTest, RealTimeMeterRunsDoneBeforeSubmitReturns) {
  CostModel costs;
  WorkMeter meter(nullptr, &costs, 4);
  int fired = 0;
  EXPECT_EQ(meter.Submit(Work::kMaterialize, 10, [&] { ++fired; }), 0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(meter.RunTask(Millis(10), [&] { ++fired; }), 0);
  EXPECT_EQ(fired, 2);
  meter.Charge(Work::kEdit, 5);
  EXPECT_EQ(meter.control_busy(), 0);
  EXPECT_EQ(meter.core_busy(), 0);
}

// A composite price reported as consecutive charges followed by the submit completes at
// the same virtual instant as one submit of the summed price.
TEST(WorkMeterTest, CompositeReportsLandAtTheSummedInstant) {
  Simulation s;
  CostModel costs;
  WorkMeter meter(&s, &costs, 2);
  meter.Charge(Work::kBatchCopy, 40);
  meter.Charge(Work::kBatchPatchSlot, 3);
  const TimePoint done = meter.Submit(Work::kBatchReuse, 1, [] {});
  EXPECT_EQ(done, costs.serialized_batch_per_worker + costs.serialized_batch_per_task * 40 +
                      costs.serialized_patch_per_slot * 3);
  EXPECT_EQ(meter.control_busy(), done);
  EXPECT_EQ(meter.RunTask(Millis(1), [] {}), Millis(1) + costs.worker_dispatch_per_task);
  EXPECT_EQ(meter.core_busy(), Millis(1) + costs.worker_dispatch_per_task);
}

TEST(NetworkTest, DeliveryIncludesLatencyAndSerialization) {
  Simulation s;
  CostModel costs;
  costs.network_latency = Millis(1);
  costs.network_bytes_per_second = 1e9;  // 1 GB/s
  costs.message_overhead_bytes = 0;
  Network net(&s, &costs);

  TimePoint delivered = 0;
  net.Send(NodeAddress(0), NodeAddress(1), 1000000, [&] { delivered = s.now(); },
           MessageKind::kData);  // 1 MB => 1 ms serialization
  s.Run();
  EXPECT_EQ(delivered, Millis(2));  // 1 ms wire + 1 ms latency
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(net.bytes_sent(), 1000000);
}

TEST(NetworkTest, SenderNicSerializesTransfers) {
  Simulation s;
  CostModel costs;
  costs.network_latency = 0;
  costs.network_bytes_per_second = 1e9;
  costs.message_overhead_bytes = 0;
  Network net(&s, &costs);

  std::vector<TimePoint> deliveries;
  // Two 1 MB messages from the same sender: the second waits for the first's TX slot.
  net.Send(NodeAddress(0), NodeAddress(1), 1000000,
           [&] { deliveries.push_back(s.now()); }, MessageKind::kData);
  net.Send(NodeAddress(0), NodeAddress(2), 1000000,
           [&] { deliveries.push_back(s.now()); }, MessageKind::kData);
  // A message from a different sender is not blocked.
  net.Send(NodeAddress(5), NodeAddress(1), 1000000,
           [&] { deliveries.push_back(s.now()); }, MessageKind::kData);
  s.Run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], Millis(1));
  EXPECT_EQ(deliveries[1], Millis(1));  // the other sender, in parallel
  EXPECT_EQ(deliveries[2], Millis(2));  // queued behind the first on sender 0
}

TEST(CostModelTest, TransferTimeMonotoneInBytes) {
  CostModel costs;
  EXPECT_LT(costs.TransferTime(100), costs.TransferTime(1000000));
  EXPECT_GE(costs.TransferTime(0), costs.network_latency);
}

}  // namespace
}  // namespace nimbus::sim
