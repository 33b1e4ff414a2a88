// Every envelope encoder writes one presized buffer (DESIGN.md §10.1): it sizes the
// envelope exactly, reserves once, then appends blobs and id arrays in bulk. This binary
// replaces the global operator new with a counting one, so it is its own test executable
// and stays out of the sanitizer builds (which interpose operator new too).
//
// Each encode below must allocate exactly once: the returned buffer. A writer that grows
// by doubling allocates O(log size) times instead.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "src/task/command.h"
#include "src/task/wire.h"

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

// Runs `encode` (built inputs live outside the counted window) and returns how many
// allocations it made, checking the result is non-empty so the call cannot fold away.
template <typename Encode>
std::uint64_t CountAllocations(Encode encode) {
  const std::uint64_t before = g_allocations.load();
  const ParameterBlob bytes = encode();
  const std::uint64_t count = g_allocations.load() - before;
  EXPECT_FALSE(bytes.empty());
  return count;
}

ParameterBlob Blob(std::size_t size) {
  ParameterBlob blob(size);
  for (std::size_t i = 0; i < size; ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 31);
  }
  return blob;
}

std::vector<Command> TaskCommands(int n) {
  std::vector<Command> cmds;
  for (int i = 0; i < n; ++i) {
    Command c;
    c.type = CommandType::kTask;
    c.id = CommandId(static_cast<std::uint64_t>(1000 + i));
    if (i > 0) {
      c.before = {CommandId(static_cast<std::uint64_t>(999 + i))};
    }
    c.read_set = {LogicalObjectId(static_cast<std::uint64_t>(i)), LogicalObjectId(7),
                  LogicalObjectId(8)};
    c.write_set = {LogicalObjectId(static_cast<std::uint64_t>(500 + i))};
    c.params = Blob(24);
    c.task_id = TaskId(static_cast<std::uint64_t>(2000 + i));
    c.function = FunctionId(3);
    c.duration = 100;
    cmds.push_back(std::move(c));
  }
  return cmds;
}

TEST(EnvelopeAllocTest, SerializedBatchEnvelopeAllocatesOnce) {
  for (std::size_t size : {std::size_t{64}, std::size_t{64 * 1024}}) {
    wire::SerializedBatchEnvelope e;
    e.group_seq = 5;
    e.expected_total = 10;
    e.batch = Blob(size);
    EXPECT_EQ(CountAllocations([&] { return wire::EncodeSerializedBatchEnvelope(e); }), 1u)
        << size << "-byte batch";
  }
}

TEST(EnvelopeAllocTest, CommandsEnvelopeAllocatesOnce) {
  for (int n : {1, 100}) {
    wire::CommandsEnvelope e;
    e.group_seq = 5;
    e.expected_total = static_cast<std::uint64_t>(n);
    e.commands = TaskCommands(n);
    EXPECT_EQ(CountAllocations([&] { return wire::EncodeCommandsEnvelope(e); }), 1u)
        << n << " commands";
  }
}

// The stage shape of one logistic-regression gradient block: 316 map tasks, 4 partial
// reductions over 79 partitions each, and one final reduction.
std::vector<StageDescriptor> LrShapedStages() {
  const VariableId tdata(1), coeff(2), model(3), grad(4), gpartial(5);
  StageDescriptor map;
  map.name = "gradient";
  for (int q = 0; q < 316; ++q) {
    TaskDescriptor task;
    task.function = FunctionId(1);
    task.reads = {ObjRef{tdata, q}, ObjRef{coeff, 0}, ObjRef{model, 0}};
    task.writes = {ObjRef{grad, q}};
    task.params = Blob(8);
    map.tasks.push_back(std::move(task));
  }
  StageDescriptor reduce1;
  reduce1.name = "reduce1";
  for (int g = 0; g < 4; ++g) {
    TaskDescriptor task;
    task.function = FunctionId(2);
    for (int q = g * 79; q < (g + 1) * 79; ++q) {
      task.reads.push_back(ObjRef{grad, q});
    }
    task.writes = {ObjRef{gpartial, g}};
    reduce1.tasks.push_back(std::move(task));
  }
  StageDescriptor reduce2;
  reduce2.name = "reduce2";
  TaskDescriptor last;
  last.function = FunctionId(3);
  for (int g = 0; g < 4; ++g) {
    last.reads.push_back(ObjRef{gpartial, g});
  }
  last.reads.push_back(ObjRef{coeff, 0});
  last.writes = {ObjRef{coeff, 0}};
  last.returns_scalar = true;
  reduce2.tasks.push_back(std::move(last));
  return {map, reduce1, reduce2};
}

TEST(EnvelopeAllocTest, SubmitStagesEnvelopeAllocatesOnce) {
  const std::vector<StageDescriptor> stages = LrShapedStages();
  EXPECT_EQ(CountAllocations([&] {
              return wire::EncodeSubmitStagesEnvelope(1, 0, "", stages);
            }),
            1u);
}

}  // namespace
}  // namespace nimbus
