// Every envelope encoder writes one presized buffer (DESIGN.md §10.1): it sizes the
// envelope exactly, reserves once, then appends blobs and id arrays in bulk. This binary
// replaces the global operator new with a counting one, so it is its own test executable
// and stays out of the sanitizer builds (which interpose operator new too).
//
// Each encode below must allocate exactly once: the returned buffer. A writer that grows
// by doubling allocates O(log size) times instead. The last two tests pin the writer's
// cursor semantics and the per-task dispatcher's command refill, which allocates nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "src/common/serialize.h"
#include "src/core/worker_template.h"
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

// BlobWriter is a cursor over a buffer sized ahead of it (DESIGN.md §10.1): writes within
// Reserve allocate nothing, writes past it grow the buffer, Take returns exactly the bytes
// written, and the writer starts over empty after Take.
TEST(EnvelopeAllocTest, BlobWriterGrowsPastReserveAndIsReusableAfterTake) {
  BlobWriter w;
  w.Reserve(12);
  const std::uint64_t before = g_allocations.load();
  w.WriteU32(0x01020304);
  w.WriteU64(0x1122334455667788ull);
  EXPECT_EQ(g_allocations.load() - before, 0u) << "writes within Reserve allocated";
  w.WriteU8(0xAB);  // past the reserve: grows
  const ParameterBlob payload = Blob(100);
  w.WriteBytes(payload.data(), payload.size());
  EXPECT_EQ(w.size(), 13u + payload.size());
  const ParameterBlob first = w.Take();
  ASSERT_EQ(first.size(), 13u + payload.size());
  BlobReader r(first);
  EXPECT_EQ(r.ReadU32(), 0x01020304u);
  EXPECT_EQ(r.ReadU64(), 0x1122334455667788ull);
  EXPECT_EQ(r.ReadU8(), 0xAB);
  const std::uint8_t* tail = r.Span(payload.size());
  EXPECT_EQ(ParameterBlob(tail, tail + payload.size()), payload);
  EXPECT_TRUE(r.AtEnd());

  EXPECT_EQ(w.size(), 0u);
  w.WriteString("again");
  EXPECT_EQ(w.Take(), (ParameterBlob{5, 0, 0, 0, 'a', 'g', 'a', 'i', 'n'}));
  EXPECT_TRUE(w.Take().empty());
}

// One entry of each command family CommandFromEntry materializes.
std::vector<core::WtEntry> EntriesOfEveryKind() {
  core::WtEntry task;
  task.type = CommandType::kTask;
  task.function = FunctionId(4);
  task.global_entry = 3;
  task.duration = 250;
  task.returns_scalar = true;
  task.reads = {LogicalObjectId(10), LogicalObjectId(11), LogicalObjectId(12)};
  task.writes = {LogicalObjectId(20)};
  task.cached_params = Blob(16);
  task.before = {0, 1};
  core::WtEntry copy;
  copy.type = CommandType::kCopySend;
  copy.copy_index = 2;
  copy.peer = WorkerId(3);
  copy.object = LogicalObjectId(30);
  copy.bytes = 4096;
  copy.before = {0};
  core::WtEntry data;
  data.type = CommandType::kDataCreate;
  data.object = LogicalObjectId(40);
  return {task, copy, data};
}

// The per-task dispatcher refills one command through the out-param builder: once it is
// warm, a refill for a task, a copy and a data entry allocates nothing, and each result
// equals the value form's command.
TEST(EnvelopeAllocTest, CommandRefillFromEntryAllocatesNothingOnceWarm) {
  const std::vector<core::WtEntry> entries = EntriesOfEveryKind();
  const ParameterBlob override_params = Blob(24);
  Command cmd;
  for (std::size_t i = 0; i < entries.size(); ++i) {  // warm: the lists reach their size
    core::CommandFromEntry(entries[i], i, CommandId(100), TaskId(50), 7, &override_params,
                           &cmd);
  }
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      for (const ParameterBlob* params : {static_cast<const ParameterBlob*>(nullptr),
                                          &override_params}) {
        const std::uint64_t before = g_allocations.load();
        core::CommandFromEntry(entries[i], i, CommandId(100 + round), TaskId(50), 7, params,
                               &cmd);
        EXPECT_EQ(g_allocations.load() - before, 0u) << "entry " << i;
        EXPECT_EQ(cmd, core::CommandFromEntry(entries[i], i, CommandId(100 + round),
                                              TaskId(50), 7, params))
            << "entry " << i;
      }
    }
  }
}

}  // namespace
}  // namespace nimbus
