// Steady-state central ingest allocates nothing per command (DESIGN.md §9.3): a worker
// decodes each group envelope into its decode scratch, resolves ids and edges through the
// group's flat id table, and refills recycled group records and command slots; the
// controller decodes each submitted stage list into a recycled envelope. This binary
// replaces the global operator new with a counting one, so it is its own test executable
// and stays out of the sanitizer builds (which interpose operator new too).
//
// After warm-up, ingesting and running an LR-shaped half of 8 commands and of 80 commands
// must allocate the same number of times, whether the half arrives as one serialized batch
// or as one-command envelopes: whatever a group allocates is per group (the completion
// report, the copy's data message), never per command.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/data/durable_store.h"
#include "src/net/sim_transport.h"
#include "src/net/timer_queue.h"
#include "src/sim/network.h"
#include "src/sim/simulation.h"
#include "src/task/wire.h"
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

// Worker 0 on a SimTransport; the controller and worker 1 addresses swallow the completion
// reports and the copied partial sum.
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
  FunctionId gradient;
  FunctionId reduce;

  Rig() {
    transport.RegisterHandler(net::NodeAddress::Controller(),
                              [this](net::NodeAddress, MessageKind, ParameterBlob) {
                                ++completions;
                              });
    transport.RegisterHandler(net::NodeAddress::ForWorker(WorkerId(1)),
                              [](net::NodeAddress, MessageKind, ParameterBlob) {});
    gradient = functions.Register("gradient", [](TaskContext& ctx) {
      ctx.WriteScalar(0).set_value(ctx.ReadScalar(0) + 1.0);
    });
    reduce = functions.Register("reduce", [](TaskContext& ctx) {
      double sum = 0;
      for (std::size_t i = 0; i < ctx.read_count(); ++i) {
        sum += ctx.ReadScalar(i);
      }
      ctx.WriteScalar(0).set_value(sum);
    });
    worker = std::make_unique<Worker>(WorkerId(0),
                                      sim::WorkMeter(&simulation, &costs, costs.worker_cores),
                                      &transport, &functions, &durable, &timers);
    // Seed the objects the gradients read (LR's partitions and coefficients).
    for (std::uint64_t p = 0; p < 128; ++p) {
      worker->store().Put(LogicalObjectId(1000 + p), 1, std::make_unique<ScalarPayload>(1.0));
    }
    worker->store().Put(LogicalObjectId(1), 1, std::make_unique<ScalarPayload>(0.5));
  }
};

// One worker's share of an LR central block, as the controller builds it: `gradients`
// tasks reading a partition and the coefficients, a partial reduce over their outputs that
// waits on all of them, and the copy sending the partial to the reducing worker. Ids are
// one contiguous range from `base`, exactly as the controller allocates them.
std::vector<Command> LrHalf(const Rig& rig, std::uint64_t seq, CommandId base,
                            TaskId task_base, int gradients) {
  std::vector<Command> cmds;
  auto next_id = [&] { return CommandId(base.value() + cmds.size()); };
  std::vector<LogicalObjectId> grads;
  for (int i = 0; i < gradients; ++i) {
    Command c;
    c.id = next_id();
    c.type = CommandType::kTask;
    c.function = rig.gradient;
    c.task_id = TaskId(task_base.value() + static_cast<std::uint64_t>(i));
    c.read_set = {LogicalObjectId(1000 + static_cast<std::uint64_t>(i)), LogicalObjectId(1)};
    c.write_set = {LogicalObjectId(2000 + static_cast<std::uint64_t>(i))};
    c.params = ParameterBlob(16, static_cast<std::uint8_t>(i));
    c.duration = sim::Micros(5);
    grads.push_back(c.write_set.front());
    cmds.push_back(std::move(c));
  }
  Command r;
  r.id = next_id();
  r.type = CommandType::kTask;
  r.function = rig.reduce;
  r.task_id = TaskId(task_base.value() + static_cast<std::uint64_t>(gradients));
  r.read_set = grads;
  r.write_set = {LogicalObjectId(3000)};
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    r.before.push_back(cmds[i].id);
  }
  r.duration = sim::Micros(5);
  const CommandId reduce_id = r.id;
  cmds.push_back(std::move(r));
  Command send;
  send.id = next_id();
  send.type = CommandType::kCopySend;
  send.copy_id = MakeCopyId(seq, 0);
  send.peer = WorkerId(1);
  send.copy_object = LogicalObjectId(3000);
  send.copy_bytes = 8;
  send.before = {reduce_id};
  cmds.push_back(std::move(send));
  return cmds;
}

// The envelopes of one block, built outside the counted window.
std::vector<ParameterBlob> SerializedEnvelopes(const Rig& rig, std::uint64_t seq,
                                               int gradients) {
  const CommandId base(seq << 20);
  const TaskId task_base(seq << 20);
  const std::vector<Command> half = LrHalf(rig, seq, base, task_base, gradients);
  wire::SerializedBatchEnvelope e;
  e.group_seq = seq;
  e.expected_total = half.size();
  e.batch = wire::EncodeBatch(seq, base, task_base, half);
  std::vector<ParameterBlob> out;
  out.push_back(wire::EncodeSerializedBatchEnvelope(e));
  return out;
}

std::vector<ParameterBlob> PerTaskEnvelopes(const Rig& rig, std::uint64_t seq, int gradients) {
  const std::vector<Command> half =
      LrHalf(rig, seq, CommandId(seq << 20), TaskId(seq << 20), gradients);
  std::vector<ParameterBlob> out;
  for (std::size_t i = 0; i < half.size(); ++i) {
    wire::CommandsEnvelope e;
    e.group_seq = seq;
    e.expected_total = half.size();
    e.commands = {half[i]};
    out.push_back(wire::EncodeCommandsEnvelope(e));
  }
  return out;
}

// Delivers one block's envelopes and runs it to completion; returns its allocations.
template <typename Build>
std::uint64_t RunBlock(Rig& rig, std::uint64_t seq, int gradients, MessageKind kind,
                       Build build) {
  std::vector<ParameterBlob> envelopes = build(rig, seq, gradients);
  const std::uint64_t before = g_allocations.load();
  for (ParameterBlob& bytes : envelopes) {
    rig.worker->OnEnvelope(net::NodeAddress::Controller(), kind, std::move(bytes));
  }
  rig.simulation.Run();
  return g_allocations.load() - before;
}

template <typename Build>
void ExpectPerGroupAllocations(MessageKind kind, Build build) {
  constexpr int kSmall = 6;  // 8 commands: 6 gradients + reduce + copy send
  constexpr int kLarge = 78;  // 80 commands
  Rig rig;
  std::uint64_t seq = 0;
  // Warm-up: first touches intern objects and grow every table, pool and scratch to size.
  for (int round = 0; round < 3; ++round) {
    RunBlock(rig, ++seq, kSmall, kind, build);
    RunBlock(rig, ++seq, kLarge, kind, build);
  }
  const std::uint64_t small_allocs = RunBlock(rig, ++seq, kSmall, kind, build);
  const std::uint64_t large_allocs = RunBlock(rig, ++seq, kLarge, kind, build);
  ASSERT_EQ(rig.completions, seq);
  EXPECT_TRUE(rig.worker->idle());
  EXPECT_EQ(small_allocs, large_allocs)
      << "8 commands: " << small_allocs << " allocations; 80 commands: " << large_allocs;
  EXPECT_LE(small_allocs, 5u);
}

TEST(CentralIngestAllocTest, SerializedHalfAllocationsDoNotScaleWithCommands) {
  ExpectPerGroupAllocations(MessageKind::kSerializedBatch, SerializedEnvelopes);
}

TEST(CentralIngestAllocTest, PerTaskHalfAllocationsDoNotScaleWithCommands) {
  ExpectPerGroupAllocations(MessageKind::kCommand, PerTaskEnvelopes);
}

// An LR block's submitted stages: 316 gradients over 79 partitions on each of 4 workers,
// 4 partial reduces and 1 final reduce.
std::vector<StageDescriptor> LrStages() {
  constexpr int kPartitions = 316;
  const VariableId data(1);
  const VariableId coeff(2);
  const VariableId grad(3);
  const VariableId partial(4);
  std::vector<StageDescriptor> stages(3);
  stages[0].name = "gradient";
  for (int p = 0; p < kPartitions; ++p) {
    TaskDescriptor t;
    t.function = FunctionId(1);
    t.reads = {ObjRef{data, p}, ObjRef{coeff, 0}};
    t.writes = {ObjRef{grad, p}};
    t.params = ParameterBlob(16, static_cast<std::uint8_t>(p));
    t.placement_partition = p;
    t.duration = 100;
    stages[0].tasks.push_back(std::move(t));
  }
  stages[1].name = "partial_reduce";
  for (int w = 0; w < 4; ++w) {
    TaskDescriptor t;
    t.function = FunctionId(2);
    for (int p = w; p < kPartitions; p += 4) {
      t.reads.push_back(ObjRef{grad, p});
    }
    t.writes = {ObjRef{partial, w}};
    t.placement_partition = w;
    stages[1].tasks.push_back(std::move(t));
  }
  stages[2].name = "final_reduce";
  TaskDescriptor t;
  t.function = FunctionId(3);
  for (int w = 0; w < 4; ++w) {
    t.reads.push_back(ObjRef{partial, w});
  }
  t.writes = {ObjRef{coeff, 0}};
  t.returns_scalar = true;
  stages[2].tasks.push_back(std::move(t));
  return stages;
}

TEST(CentralIngestAllocTest, SubmitStagesDecodeIntoRecycledEnvelopeAllocatesNothing) {
  const std::vector<StageDescriptor> stages = LrStages();
  const ParameterBlob bytes = wire::EncodeSubmitStagesEnvelope(7, 0, "", stages);
  wire::SubmitStagesEnvelope e;
  wire::DecodeSubmitStagesEnvelope(bytes, &e);  // warm-up: sizes every list and blob
  const std::uint64_t before = g_allocations.load();
  wire::DecodeSubmitStagesEnvelope(bytes, &e);
  const std::uint64_t allocs = g_allocations.load() - before;
  EXPECT_EQ(allocs, 0u);
  ASSERT_EQ(e.stages.size(), 3u);
  EXPECT_EQ(e.stages[0].tasks.size() + e.stages[1].tasks.size() + e.stages[2].tasks.size(),
            321u);
  EXPECT_EQ(e.stages[1].tasks[2].reads, stages[1].tasks[2].reads);
}

}  // namespace
}  // namespace nimbus
