// Steady-state template instantiation on a worker allocates nothing per entry (DESIGN.md
// §9.3): the command table is recycled per template, task-launch closures fit
// std::function's inline buffer, and the completion cascade copies no waiter lists. This
// binary replaces the global operator new with a counting one, so it is its own test
// executable and stays out of the sanitizer builds (which interpose operator new too).
//
// After warm-up, one instantiate-and-run of an N-entry and of a 3N-entry template must
// allocate the same number of times: whatever a block allocates is per group (the
// instantiate message, the completion report, the group record), never per entry.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "src/data/durable_store.h"
#include "src/net/sim_transport.h"
#include "src/net/timer_queue.h"
#include "src/sim/network.h"
#include "src/sim/simulation.h"
#include "src/worker/function_registry.h"
#include "src/worker/worker.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nimbus {
namespace {

// One worker on a SimTransport; the controller address swallows the completion reports.
struct Rig {
  sim::Simulation simulation;
  sim::CostModel costs;
  sim::Network network{&simulation, &costs};
  net::SimTransport transport{&network};
  net::SimTimerQueue timers{&simulation};
  FunctionRegistry functions;
  DurableStore durable;
  std::unique_ptr<Worker> worker;
  std::uint64_t completions = 0;

  Rig() {
    transport.RegisterHandler(net::NodeAddress::Controller(),
                              [this](net::NodeAddress, MessageKind, ParameterBlob) {
                                ++completions;
                              });
    worker = std::make_unique<Worker>(WorkerId(0),
                                      sim::WorkMeter(&simulation, &costs, costs.worker_cores),
                                      &transport, &functions, &durable, &timers);
  }
};

// `n` task entries (no copies, no scalars): each reads one of four shared objects,
// writes its own, carries cached params, and every odd entry waits on its predecessor.
core::WorkerHalf TaskHalf(FunctionId fn, int n) {
  core::WorkerHalf half;
  half.worker = WorkerId(0);
  for (int i = 0; i < n; ++i) {
    core::WtEntry e;
    e.type = CommandType::kTask;
    e.function = fn;
    e.global_entry = i;
    e.reads = {LogicalObjectId(static_cast<std::uint64_t>(1 + i % 4))};
    e.writes = {LogicalObjectId(static_cast<std::uint64_t>(100 + i))};
    if (i % 2 == 1) {
      e.before = {i - 1};
    }
    e.cached_params = {1, 2, 3, 4};
    e.duration = sim::Micros(10);
    half.entries.push_back(std::move(e));
  }
  return half;
}

TEST(MaterializeAllocTest, SteadyStateAllocationsDoNotScaleWithEntries) {
  constexpr int kEntries = 64;
  Rig rig;
  const FunctionId noop = rig.functions.Register("noop", [](TaskContext&) {});
  const WorkerTemplateId small(1);
  const WorkerTemplateId large(2);
  rig.worker->OnInstallTemplate(TaskHalf(noop, kEntries), small);
  rig.worker->OnInstallTemplate(TaskHalf(noop, 3 * kEntries), large);

  std::uint64_t seq = 0;
  // Builds the message outside the counted window, then counts one instantiate-and-run.
  auto run_block = [&](WorkerTemplateId id) {
    ++seq;
    InstantiateMsg msg;
    msg.worker_template = id;
    msg.group_seq = seq;
    msg.command_base = CommandId(seq << 20);
    msg.task_base = TaskId(seq << 20);
    msg.params.emplace_back(0, ParameterBlob{9, 9});
    const std::uint64_t before = g_allocations.load();
    rig.worker->OnInstantiate(std::move(msg));
    rig.simulation.Run();
    return g_allocations.load() - before;
  };

  // Warm-up: first touches intern objects and grow every table, queue and spare to size.
  for (int round = 0; round < 3; ++round) {
    run_block(small);
    run_block(large);
  }
  const std::uint64_t small_allocs = run_block(small);
  const std::uint64_t large_allocs = run_block(large);
  ASSERT_EQ(rig.completions, seq);
  EXPECT_TRUE(rig.worker->idle());
  EXPECT_EQ(small_allocs, large_allocs)
      << kEntries << " entries: " << small_allocs << " allocations; " << 3 * kEntries
      << " entries: " << large_allocs;
  EXPECT_LE(small_allocs, 4u);
}

}  // namespace
}  // namespace nimbus
