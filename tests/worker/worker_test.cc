// Unit tests for the worker runtime: local readiness resolution, group barriers, streaming
// command arrival, copy matching with out-of-order data, template caching, scalars, the
// recycled per-template command tables, and the flat streaming id tables.

#include <gtest/gtest.h>

#include <memory>

#include "src/data/durable_store.h"
#include "src/net/sim_transport.h"
#include "src/net/timer_queue.h"
#include "src/sim/network.h"
#include "src/sim/simulation.h"
#include "src/task/wire.h"
#include "src/worker/function_registry.h"
#include "src/worker/worker.h"

namespace nimbus {
namespace {

// Workers wired straight to a SimTransport, with the harness itself standing in for the
// controller: its handler decodes the kGroupComplete envelopes workers emit.
struct Harness {
  sim::Simulation simulation;
  sim::CostModel costs;
  sim::Network network{&simulation, &costs};
  net::SimTransport transport{&network};
  net::SimTimerQueue timers{&simulation};
  FunctionRegistry functions;
  DurableStore durable;
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::pair<WorkerId, std::uint64_t>> completions;
  std::vector<ScalarResult> scalars;

  explicit Harness(int n = 2) {
    transport.RegisterHandler(
        net::NodeAddress::Controller(),
        [this](net::NodeAddress, MessageKind, ParameterBlob bytes) {
          if (wire::PeekEnvelopeType(bytes) != wire::EnvelopeType::kGroupComplete) {
            return;  // heartbeats etc. are not under test here
          }
          wire::GroupCompleteEnvelope e = wire::DecodeGroupCompleteEnvelope(bytes);
          completions.emplace_back(e.worker, e.group_seq);
          for (auto& r : e.scalars) {
            scalars.push_back(r);
          }
        });
    for (int i = 0; i < n; ++i) {
      auto worker = std::make_unique<Worker>(
          WorkerId(static_cast<std::uint64_t>(i)),
          sim::WorkMeter(&simulation, &costs, costs.worker_cores), &transport, &functions,
          &durable, &timers);
      transport.RegisterHandler(
          worker->address(),
          [w = worker.get()](net::NodeAddress src, MessageKind kind, ParameterBlob bytes) {
            w->OnEnvelope(src, kind, std::move(bytes));
          });
      workers.push_back(std::move(worker));
    }
  }

  Worker& w(int i) { return *workers[static_cast<std::size_t>(i)]; }
};

Command TaskCmd(std::uint64_t id, FunctionId fn, std::vector<LogicalObjectId> reads,
                std::vector<LogicalObjectId> writes, std::vector<std::uint64_t> before = {},
                sim::Duration duration = sim::Millis(1)) {
  Command cmd;
  cmd.id = CommandId(id);
  cmd.type = CommandType::kTask;
  cmd.function = fn;
  cmd.task_id = TaskId(id);
  cmd.read_set = std::move(reads);
  cmd.write_set = std::move(writes);
  for (std::uint64_t b : before) {
    cmd.before.push_back(CommandId(b));
  }
  cmd.duration = duration;
  return cmd;
}

TEST(WorkerTest, ExecutesTasksInDependencyOrder) {
  Harness h(1);
  std::vector<int> order;
  const FunctionId f1 = h.functions.Register("one", [&](TaskContext& ctx) {
    order.push_back(1);
    ctx.WriteScalar(0).set_value(10);
  });
  const FunctionId f2 = h.functions.Register("two", [&](TaskContext& ctx) {
    order.push_back(2);
    EXPECT_DOUBLE_EQ(ctx.ReadScalar(0), 10.0);
  });

  // Submit dependent-first to prove readiness is resolved locally, not by arrival order.
  std::vector<Command> cmds;
  cmds.push_back(TaskCmd(2, f2, {LogicalObjectId(1)}, {}, {1}));
  cmds.push_back(TaskCmd(1, f1, {}, {LogicalObjectId(1)}));
  h.w(0).OnCommands(1, std::move(cmds), 2);
  h.simulation.Run();

  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_EQ(h.completions[0].second, 1u);
}

TEST(WorkerTest, StreamingArrivalResolvesForwardEdges) {
  Harness h(1);
  std::vector<int> order;
  const FunctionId f1 = h.functions.Register("one", [&](TaskContext& ctx) {
    order.push_back(1);
    ctx.WriteScalar(0).set_value(1);
  });
  const FunctionId f2 = h.functions.Register("two", [&](TaskContext&) { order.push_back(2); });

  // The dependent command arrives in a separate (earlier) message than its dependency.
  std::vector<Command> first;
  first.push_back(TaskCmd(2, f2, {LogicalObjectId(1)}, {}, {1}));
  h.w(0).OnCommands(1, std::move(first), 2);
  h.simulation.Run();
  EXPECT_TRUE(order.empty());

  std::vector<Command> second;
  second.push_back(TaskCmd(1, f1, {}, {LogicalObjectId(1)}));
  h.w(0).OnCommands(1, std::move(second), 2);
  h.simulation.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(WorkerTest, BarrierGroupsRunInArrivalOrder) {
  Harness h(1);
  std::vector<int> order;
  const FunctionId fa = h.functions.Register("a", [&](TaskContext&) { order.push_back(1); });
  const FunctionId fb = h.functions.Register("b", [&](TaskContext&) { order.push_back(2); });

  std::vector<Command> g1;
  g1.push_back(TaskCmd(1, fa, {}, {}, {}, sim::Millis(50)));
  h.w(0).OnCommands(1, std::move(g1), 1);
  std::vector<Command> g2;
  g2.push_back(TaskCmd(2, fb, {}, {}, {}, sim::Millis(1)));
  h.w(0).OnCommands(2, std::move(g2), 1);
  h.simulation.Run();

  // Even though its task is shorter, group 2 waits for group 1.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(h.completions.size(), 2u);
}

TEST(WorkerTest, CopyPairMovesDataBetweenWorkers) {
  Harness h(2);
  const FunctionId fw = h.functions.Register("writer", [&](TaskContext& ctx) {
    ctx.WriteVector(0).values() = {4.5, 6.5};
  });
  double read_back = 0;
  const FunctionId fr = h.functions.Register("reader", [&](TaskContext& ctx) {
    read_back = ctx.ReadVector(0).values()[1];
  });

  // Worker 0: write + send. Worker 1: receive + read. Copy ids encode (group seq, index).
  const CopyId copy = MakeCopyId(1, 0);
  std::vector<Command> g0;
  g0.push_back(TaskCmd(1, fw, {}, {LogicalObjectId(5)}));
  Command send;
  send.id = CommandId(2);
  send.type = CommandType::kCopySend;
  send.copy_id = copy;
  send.peer = WorkerId(1);
  send.copy_object = LogicalObjectId(5);
  send.copy_bytes = 16;
  send.before = {CommandId(1)};
  g0.push_back(std::move(send));
  h.w(0).OnCommands(1, std::move(g0), 2);

  std::vector<Command> g1;
  Command recv;
  recv.id = CommandId(3);
  recv.type = CommandType::kCopyReceive;
  recv.copy_id = copy;
  recv.peer = WorkerId(0);
  recv.copy_object = LogicalObjectId(5);
  g1.push_back(std::move(recv));
  g1.push_back(TaskCmd(4, fr, {LogicalObjectId(5)}, {}, {3}));
  h.w(1).OnCommands(1, std::move(g1), 2);

  h.simulation.Run();
  EXPECT_DOUBLE_EQ(read_back, 6.5);
  EXPECT_EQ(h.completions.size(), 2u);
}

TEST(WorkerTest, DataArrivingBeforeReceiveCommandIsBuffered) {
  Harness h(2);
  double read_back = 0;
  const FunctionId fr = h.functions.Register("reader", [&](TaskContext& ctx) {
    read_back = ctx.ReadScalar(0);
  });

  // Push the data message directly, before the receive's group even exists.
  const CopyId copy = MakeCopyId(1, 0);
  h.w(1).OnDataMessage(copy, LogicalObjectId(3), 1, std::make_unique<ScalarPayload>(42.0));
  EXPECT_EQ(h.w(1).buffered_copy_count(), 1u);

  std::vector<Command> g;
  Command recv;
  recv.id = CommandId(1);
  recv.type = CommandType::kCopyReceive;
  recv.copy_id = copy;
  recv.peer = WorkerId(0);
  recv.copy_object = LogicalObjectId(3);
  g.push_back(std::move(recv));
  g.push_back(TaskCmd(2, fr, {LogicalObjectId(3)}, {}, {1}));
  h.w(1).OnCommands(1, std::move(g), 2);
  h.simulation.Run();
  EXPECT_DOUBLE_EQ(read_back, 42.0);
  EXPECT_EQ(h.w(1).buffered_copy_count(), 0u);
}

TEST(WorkerTest, HaltMidGroupDropsBufferedCopyData) {
  Harness h(2);
  const FunctionId slow = h.functions.Register("slow", [](TaskContext&) {});
  // Group 1 keeps the worker busy so group 2 cannot start.
  std::vector<Command> g1;
  g1.push_back(TaskCmd(1, slow, {}, {}, {}, sim::Millis(50)));
  h.w(1).OnCommands(1, std::move(g1), 1);

  // Group 2: a receive whose payload arrives while the group is still blocked.
  const CopyId copy = MakeCopyId(2, 0);
  std::vector<Command> g2;
  Command recv;
  recv.id = CommandId(10);
  recv.type = CommandType::kCopyReceive;
  recv.copy_id = copy;
  recv.peer = WorkerId(0);
  recv.copy_object = LogicalObjectId(3);
  g2.push_back(std::move(recv));
  h.w(1).OnCommands(2, std::move(g2), 1);
  h.w(1).OnDataMessage(copy, LogicalObjectId(3), 1, std::make_unique<ScalarPayload>(1.5));
  EXPECT_EQ(h.w(1).buffered_copy_count(), 1u);

  // Controller-style halt mid-group: buffered payloads die with their groups instead of
  // dangling in the receive index.
  h.w(1).OnHalt();
  EXPECT_EQ(h.w(1).buffered_copy_count(), 0u);
  EXPECT_TRUE(h.w(1).idle());

  // A duplicate of the in-flight payload arriving after the halt is stale and dropped.
  h.w(1).OnDataMessage(copy, LogicalObjectId(3), 1, std::make_unique<ScalarPayload>(1.5));
  EXPECT_EQ(h.w(1).buffered_copy_count(), 0u);
  h.simulation.Run();
  EXPECT_FALSE(h.w(1).store().Has(LogicalObjectId(3)));
  EXPECT_TRUE(h.completions.empty());
}

TEST(WorkerTest, FailedWorkerMidGroupIgnoresInFlightData) {
  Harness h(2);
  const CopyId copy = MakeCopyId(1, 0);
  std::vector<Command> g;
  Command recv;
  recv.id = CommandId(1);
  recv.type = CommandType::kCopyReceive;
  recv.copy_id = copy;
  recv.peer = WorkerId(0);
  recv.copy_object = LogicalObjectId(3);
  g.push_back(std::move(recv));
  h.w(1).OnCommands(1, std::move(g), 1);

  // The worker dies while the copy's payload is still in flight; the late delivery must
  // not buffer anything on the corpse.
  h.w(1).Fail();
  h.w(1).OnDataMessage(copy, LogicalObjectId(3), 1, std::make_unique<ScalarPayload>(2.5));
  EXPECT_EQ(h.w(1).buffered_copy_count(), 0u);
  h.simulation.Run();
  EXPECT_TRUE(h.completions.empty());
  EXPECT_FALSE(h.w(1).store().Has(LogicalObjectId(3)));
}

TEST(WorkerTest, StaleDataForFinishedGroupIsDropped) {
  Harness h(1);
  const FunctionId f = h.functions.Register("fn", [](TaskContext&) {});
  std::vector<Command> g;
  g.push_back(TaskCmd(1, f, {}, {}));
  h.w(0).OnCommands(1, std::move(g), 1);
  h.simulation.Run();
  ASSERT_EQ(h.completions.size(), 1u);  // group 1 finished and was pruned

  // A late/duplicate payload addressed at the finished group must not dangle forever in
  // the buffers (the group it names can never claim it).
  h.w(0).OnDataMessage(MakeCopyId(1, 0), LogicalObjectId(7), 1,
                       std::make_unique<ScalarPayload>(3.0));
  EXPECT_EQ(h.w(0).buffered_copy_count(), 0u);
}

TEST(WorkerTest, ScalarsReportedWithCompletion) {
  Harness h(1);
  const FunctionId f = h.functions.Register("scalar", [&](TaskContext& ctx) {
    ctx.ReturnScalar(3.25);
  });
  Command cmd = TaskCmd(1, f, {}, {});
  cmd.returns_scalar = true;
  std::vector<Command> g;
  g.push_back(std::move(cmd));
  h.w(0).OnCommands(1, std::move(g), 1);
  h.simulation.Run();
  ASSERT_EQ(h.scalars.size(), 1u);
  EXPECT_EQ(h.scalars[0].task, TaskId(1));
  EXPECT_DOUBLE_EQ(h.scalars[0].value, 3.25);
}

TEST(WorkerTest, TemplateInstallAndInstantiate) {
  Harness h(1);
  int runs = 0;
  const FunctionId f = h.functions.Register("fn", [&](TaskContext& ctx) {
    ++runs;
    ctx.WriteScalar(0).set_value(runs);
  });

  core::WorkerHalf half;
  half.worker = WorkerId(0);
  core::WtEntry entry;
  entry.type = CommandType::kTask;
  entry.function = f;
  entry.global_entry = 0;
  entry.writes = {LogicalObjectId(1)};
  entry.duration = sim::Millis(1);
  half.entries.push_back(entry);

  h.w(0).OnInstallTemplate(half, WorkerTemplateId(1));
  EXPECT_TRUE(h.w(0).HasTemplate(WorkerTemplateId(1)));
  EXPECT_EQ(h.w(0).cached_template_count(), 1u);

  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    InstantiateMsg msg;
    msg.worker_template = WorkerTemplateId(1);
    msg.group_seq = seq;
    msg.command_base = CommandId(seq * 100);
    msg.task_base = TaskId(seq * 100);
    h.w(0).OnInstantiate(std::move(msg));
  }
  h.simulation.Run();
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(h.completions.size(), 3u);
}

TEST(WorkerTest, FailedWorkerIgnoresAllInput) {
  Harness h(1);
  int runs = 0;
  const FunctionId f = h.functions.Register("fn", [&](TaskContext&) { ++runs; });
  h.w(0).Fail();
  std::vector<Command> g;
  g.push_back(TaskCmd(1, f, {}, {}));
  h.w(0).OnCommands(1, std::move(g), 1);
  h.simulation.Run();
  EXPECT_EQ(runs, 0);
  EXPECT_TRUE(h.completions.empty());
}

TEST(WorkerTest, HaltFlushesQueues) {
  Harness h(1);
  int runs = 0;
  const FunctionId f = h.functions.Register("fn", [&](TaskContext&) { ++runs; });
  std::vector<Command> g;
  g.push_back(TaskCmd(1, f, {}, {}, {}, sim::Millis(10)));
  g.push_back(TaskCmd(2, f, {}, {}, {1}, sim::Millis(10)));
  h.w(0).OnCommands(1, std::move(g), 2);
  h.w(0).OnHalt();
  h.simulation.Run();
  // Whatever was in flight on a core may or may not land, but the dependent task and the
  // completion message must not.
  EXPECT_LE(runs, 1);
  EXPECT_TRUE(h.completions.empty());
  EXPECT_TRUE(h.w(0).idle());
}

TEST(WorkerTest, FileSaveAndLoadRoundTripThroughDurableStore) {
  Harness h(1);
  h.w(0).store().Put(LogicalObjectId(4), 2, std::make_unique<ScalarPayload>(7.5));

  Command save;
  save.id = CommandId(1);
  save.type = CommandType::kFileSave;
  save.data_object = LogicalObjectId(4);
  save.copy_version = 2;
  save.copy_bytes = 8;
  std::vector<Command> g;
  g.push_back(std::move(save));
  h.w(0).OnCommands(1, std::move(g), 1);
  h.simulation.Run();
  ASSERT_TRUE(h.durable.Has(LogicalObjectId(4)));

  // Clear the store and reload.
  h.w(0).store().Clear();
  Command load;
  load.id = CommandId(2);
  load.type = CommandType::kFileLoad;
  load.data_object = LogicalObjectId(4);
  std::vector<Command> reload;
  reload.push_back(std::move(load));
  h.w(0).OnCommands(2, std::move(reload), 1);
  h.simulation.Run();
  ASSERT_TRUE(h.w(0).store().Has(LogicalObjectId(4)));
  EXPECT_DOUBLE_EQ(
      dynamic_cast<const ScalarPayload*>(h.w(0).store().Get(LogicalObjectId(4)))->value(),
      7.5);
}

// ---- Recycled command tables (DESIGN.md §9.3) ----
// A pruned group hands its command table back to its template, and the next
// instantiation refills it in place. These tests pin what that must never change.

core::WtEntry TaskEntry(FunctionId fn, std::int32_t global_entry,
                        std::vector<LogicalObjectId> reads,
                        std::vector<LogicalObjectId> writes,
                        std::vector<std::int32_t> before = {}, bool returns_scalar = true) {
  core::WtEntry e;
  e.type = CommandType::kTask;
  e.function = fn;
  e.global_entry = global_entry;
  e.reads = std::move(reads);
  e.writes = std::move(writes);
  e.before = std::move(before);
  e.returns_scalar = returns_scalar;
  e.duration = sim::Millis(1);
  e.cached_params = {static_cast<std::uint8_t>(10 + global_entry)};
  return e;
}

InstantiateMsg Instantiation(std::uint64_t seq, std::uint8_t param_for_entry0,
                             std::vector<core::WorkerEditOp> edits = {}) {
  InstantiateMsg msg;
  msg.worker_template = WorkerTemplateId(1);
  msg.group_seq = seq;
  msg.command_base = CommandId(seq * 100);
  msg.task_base = TaskId(seq * 100);
  msg.params.emplace_back(0, ParameterBlob{param_for_entry0});
  msg.edits = std::move(edits);
  return msg;
}

// Functions for the recycled-table tests: "emit" writes its first param byte to its
// write and reports it; "sum" reports the sum of its scalar reads.
struct RecycleFunctions {
  FunctionId emit;
  FunctionId sum;
  explicit RecycleFunctions(FunctionRegistry& registry) {
    emit = registry.Register("emit", [](TaskContext& ctx) {
      const double v = ctx.params().empty() ? -1.0 : ctx.params()[0];
      for (std::size_t i = 0; i < ctx.write_count(); ++i) {
        ctx.WriteScalar(i).set_value(v);
      }
      ctx.ReturnScalar(v);
    });
    sum = registry.Register("sum", [](TaskContext& ctx) {
      double total = 0;
      for (std::size_t i = 0; i < ctx.read_count(); ++i) {
        total += ctx.ReadScalar(i);
      }
      ctx.ReturnScalar(total);
    });
  }
};

// emit(0) -> A; emit(1) -> B after 0; sum(A, B) after 1; emit(3) -> C, independent.
core::WorkerHalf RecycleHalf(const RecycleFunctions& fns) {
  core::WorkerHalf half;
  half.worker = WorkerId(0);
  half.entries.push_back(TaskEntry(fns.emit, 0, {}, {LogicalObjectId(1)}));
  half.entries.push_back(TaskEntry(fns.emit, 1, {}, {LogicalObjectId(2)}, {0}));
  half.entries.push_back(
      TaskEntry(fns.sum, 2, {LogicalObjectId(1), LogicalObjectId(2)}, {}, {1}));
  half.entries.push_back(TaskEntry(fns.emit, 3, {}, {LogicalObjectId(3)}));
  return half;
}

// Slot 1 becomes a receive of B from worker 1 (copy index 0); slot 3 is tombstoned.
std::vector<core::WorkerEditOp> RecycleEdits() {
  core::WorkerEditOp replace;
  replace.kind = core::WorkerEditOp::Kind::kReplaceWithReceive;
  replace.index = 1;
  replace.entry.type = CommandType::kCopyReceive;
  replace.entry.copy_index = 0;
  replace.entry.peer = WorkerId(1);
  replace.entry.object = LogicalObjectId(2);
  replace.entry.bytes = 8;
  core::WorkerEditOp tombstone;
  tombstone.kind = core::WorkerEditOp::Kind::kTombstone;
  tombstone.index = 3;
  return {replace, tombstone};
}

std::vector<std::pair<std::uint64_t, double>> ScalarPairs(const std::vector<ScalarResult>& v,
                                                          std::size_t from) {
  std::vector<std::pair<std::uint64_t, double>> out;
  for (std::size_t i = from; i < v.size(); ++i) {
    out.emplace_back(v[i].task.value(), v[i].value);
  }
  return out;
}

TEST(WorkerTest, EditedInstantiationOnRecycledTableMatchesFreshMaterialization) {
  // Recycled: instantiate the original template (group 1), let it finish and hand its
  // table back, then instantiate again with the edits piggybacked (group 2).
  Harness recycled(1);
  const RecycleFunctions fns(recycled.functions);
  recycled.w(0).EnableCommandLog();
  recycled.w(0).OnInstallTemplate(RecycleHalf(fns), WorkerTemplateId(1));
  recycled.w(0).OnInstantiate(Instantiation(1, 5));
  recycled.simulation.Run();
  ASSERT_EQ(recycled.completions.size(), 1u);
  const std::size_t log_before = recycled.w(0).command_log().size();
  const std::size_t scalars_before = recycled.scalars.size();
  ASSERT_EQ(log_before, 4u);
  ASSERT_EQ(scalars_before, 4u);

  recycled.w(0).OnInstantiate(Instantiation(2, 7, RecycleEdits()));
  recycled.w(0).OnDataMessage(MakeCopyId(2, 0), LogicalObjectId(2), 1,
                              std::make_unique<ScalarPayload>(42.0));
  recycled.simulation.Run();
  ASSERT_EQ(recycled.completions.size(), 2u);

  // Fresh: a new worker installs the already-edited template and materializes group 2
  // into a brand-new table.
  Harness fresh(1);
  const RecycleFunctions fresh_fns(fresh.functions);
  core::WorkerHalf edited = RecycleHalf(fresh_fns);
  core::ApplyWorkerEditOps(&edited, RecycleEdits());
  fresh.w(0).EnableCommandLog();
  fresh.w(0).OnInstallTemplate(edited, WorkerTemplateId(1));
  fresh.w(0).OnInstantiate(Instantiation(2, 7));
  fresh.w(0).OnDataMessage(MakeCopyId(2, 0), LogicalObjectId(2), 1,
                           std::make_unique<ScalarPayload>(42.0));
  fresh.simulation.Run();
  ASSERT_EQ(fresh.completions.size(), 1u);

  const std::vector<Command>& log = recycled.w(0).command_log();
  const std::vector<Command> recycled_group2(
      log.begin() + static_cast<std::ptrdiff_t>(log_before), log.end());
  ASSERT_EQ(recycled_group2.size(), 4u);
  EXPECT_TRUE(recycled_group2 == fresh.w(0).command_log());
  // The replaced slot carries nothing of the task it was: no function, params or scalar.
  EXPECT_EQ(recycled_group2[1].type, CommandType::kCopyReceive);
  EXPECT_TRUE(recycled_group2[1].params.empty());
  EXPECT_FALSE(recycled_group2[1].returns_scalar);
  EXPECT_EQ(recycled_group2[3].type, CommandType::kDataCreate);

  // emit(7) and sum(7 + 42): the received B, not the stale B = 11 of group 1.
  const auto expected = std::vector<std::pair<std::uint64_t, double>>{{200, 7.0}, {202, 49.0}};
  EXPECT_EQ(ScalarPairs(recycled.scalars, scalars_before), expected);
  EXPECT_EQ(ScalarPairs(fresh.scalars, 0), expected);
}

TEST(WorkerTest, TwoLiveInstantiationsOfOneTemplateBothComplete) {
  Harness h(1);
  const RecycleFunctions fns(h.functions);
  h.w(0).EnableCommandLog();
  h.w(0).OnInstallTemplate(RecycleHalf(fns), WorkerTemplateId(1));
  h.w(0).OnInstantiate(Instantiation(1, 5));
  h.simulation.Run();  // group 1 leaves a spare table behind
  ASSERT_EQ(h.completions.size(), 1u);

  // Groups 2 and 3 materialize back to back, long before group 2's first task finishes,
  // so both are live at once: one takes the spare, the other needs its own table.
  h.w(0).OnInstantiate(Instantiation(2, 6));
  h.w(0).OnInstantiate(Instantiation(3, 8));
  h.simulation.Run();
  ASSERT_EQ(h.completions.size(), 3u);
  EXPECT_EQ(h.completions[1].second, 2u);
  EXPECT_EQ(h.completions[2].second, 3u);

  std::vector<std::uint64_t> ids;
  for (const Command& c : h.w(0).command_log()) {
    ids.push_back(c.id.value());
  }
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{100, 101, 102, 103, 200, 201, 202, 203, 300, 301,
                                             302, 303}));
  const auto expected = std::vector<std::pair<std::uint64_t, double>>{
      {200, 6.0}, {203, 13.0}, {201, 11.0}, {202, 17.0},
      {300, 8.0}, {303, 13.0}, {301, 11.0}, {302, 19.0}};
  EXPECT_EQ(ScalarPairs(h.scalars, 4), expected);
}

TEST(WorkerTest, HaltWithLiveGroupThenInstantiateMaterializesCleanly) {
  Harness h(1);
  const RecycleFunctions fns(h.functions);
  h.w(0).EnableCommandLog();
  h.w(0).OnInstallTemplate(RecycleHalf(fns), WorkerTemplateId(1));
  h.w(0).OnInstantiate(Instantiation(1, 5));
  h.simulation.Run();  // group 1 leaves a spare table behind

  // Group 2 takes the spare and is mid-flight (materialized, first tasks running) when
  // the halt drops it.
  h.w(0).OnInstantiate(Instantiation(2, 6));
  h.simulation.RunUntil(h.simulation.now() + sim::Micros(500));
  ASSERT_FALSE(h.w(0).idle());
  h.w(0).OnHalt();
  EXPECT_TRUE(h.w(0).idle());
  h.simulation.Run();
  ASSERT_EQ(h.completions.size(), 1u);

  const std::size_t scalars_before = h.scalars.size();
  const std::size_t log_before = h.w(0).command_log().size();
  h.w(0).OnInstantiate(Instantiation(3, 8));
  h.simulation.Run();
  ASSERT_EQ(h.completions.size(), 2u);
  EXPECT_EQ(h.completions[1].second, 3u);
  const std::vector<Command>& log = h.w(0).command_log();
  ASSERT_EQ(log.size(), log_before + 4);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(log[log_before + i].id, CommandId(300 + i));
  }
  const auto expected = std::vector<std::pair<std::uint64_t, double>>{
      {300, 8.0}, {303, 13.0}, {301, 11.0}, {302, 19.0}};
  EXPECT_EQ(ScalarPairs(h.scalars, scalars_before), expected);
}

// ---- Flat streaming id tables (DESIGN.md §9.3) ----
// A streaming group resolves ids and before-edges by offset from its id base into a flat
// slot table, parks edges whose command has not arrived, reads "already done" from the
// slot, and hands its storage to the worker's pools when pruned or halted.

// Delivers `cmd` as its own kCommands envelope (a per-task frame), through the worker's
// decode scratch.
void SendFrame(Harness& h, int worker, std::uint64_t seq, Command cmd, std::size_t total) {
  wire::CommandsEnvelope e;
  e.group_seq = seq;
  e.expected_total = total;
  e.commands.push_back(std::move(cmd));
  h.w(worker).OnEnvelope(net::NodeAddress::Controller(), MessageKind::kCommand,
                         wire::EncodeCommandsEnvelope(e));
}

TEST(WorkerTest, ForwardEdgeAcrossPerTaskFramesWaitsForItsProvider) {
  Harness h(1);
  std::vector<int> order;
  const FunctionId provider = h.functions.Register("provider", [&](TaskContext& ctx) {
    order.push_back(2);
    ctx.WriteScalar(0).set_value(5);
  });
  const FunctionId dependent = h.functions.Register("dependent", [&](TaskContext& ctx) {
    order.push_back(1);
    EXPECT_DOUBLE_EQ(ctx.ReadScalar(0), 5.0);
  });

  // Id 40 names id 41 (an edit-appended provider) and arrives first, in its own frame:
  // the edge parks at offset 1 of a table that has only seen offset 0.
  SendFrame(h, 0, 1, TaskCmd(40, dependent, {LogicalObjectId(9)}, {}, {41}), 2);
  h.simulation.Run();
  EXPECT_TRUE(order.empty()) << "the dependent ran before its provider arrived";

  SendFrame(h, 0, 1, TaskCmd(41, provider, {}, {LogicalObjectId(9)}), 2);
  h.simulation.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_TRUE(h.w(0).idle());
}

TEST(WorkerTest, EdgeToAlreadyCompletedCommandDoesNotWait) {
  Harness h(1);
  int runs = 0;
  const FunctionId f = h.functions.Register("fn", [&](TaskContext&) { ++runs; });

  // Id 7 runs and completes before id 8, which names it, arrives.
  SendFrame(h, 0, 1, TaskCmd(7, f, {}, {}), 2);
  h.simulation.Run();
  ASSERT_EQ(runs, 1);
  EXPECT_TRUE(h.completions.empty());

  SendFrame(h, 0, 1, TaskCmd(8, f, {}, {}, {7}), 2);
  h.simulation.Run();
  EXPECT_EQ(runs, 2) << "the edge to a done command must not park";
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_TRUE(h.w(0).idle());
}

TEST(WorkerTest, RecycledStreamingTablesAreCleanAfterHalt) {
  Harness h(1);
  std::vector<std::uint64_t> ran;
  const FunctionId f = h.functions.Register("fn", [&](TaskContext& ctx) {
    ran.push_back(ctx.params().empty() ? 0 : ctx.params()[0]);
  });
  auto task = [&](std::uint64_t id, std::vector<std::uint64_t> before) {
    Command c = TaskCmd(id, f, {}, {}, std::move(before));
    c.params = {static_cast<std::uint8_t>(id)};
    return c;
  };

  // Group 1 fills its tables, completes and is pruned into the pools.
  SendFrame(h, 0, 1, task(100, {}), 2);
  SendFrame(h, 0, 1, task(101, {100}), 2);
  h.simulation.Run();
  ASSERT_EQ(ran, (std::vector<std::uint64_t>{100, 101}));

  // Group 2 takes the recycled record and parks an edge; the halt recycles it mid-flight.
  SendFrame(h, 0, 2, task(200, {203}), 4);
  h.w(0).OnHalt();
  EXPECT_TRUE(h.w(0).idle());
  h.simulation.Run();

  // Group 3 reuses the halted group's record and slots: nothing of group 2 (its parked
  // edge, its base, its done flags) may leak. Offsets 0 and 3 repeat group 2's pattern.
  SendFrame(h, 0, 3, task(50, {}), 4);
  SendFrame(h, 0, 3, task(51, {50}), 4);
  SendFrame(h, 0, 3, task(52, {51}), 4);
  SendFrame(h, 0, 3, task(53, {}), 4);
  h.simulation.Run();
  EXPECT_EQ(ran, (std::vector<std::uint64_t>{100, 101, 50, 53, 51, 52}));
  ASSERT_EQ(h.completions.size(), 2u);
  EXPECT_EQ(h.completions[1].second, 3u);
  EXPECT_TRUE(h.w(0).idle());
}

TEST(WorkerTest, LowerIdArrivingLaterRebasesTheIdTable) {
  Harness h(1);
  std::vector<int> order;
  const FunctionId fa = h.functions.Register("a", [&](TaskContext&) { order.push_back(1); });
  const FunctionId fb = h.functions.Register("b", [&](TaskContext&) { order.push_back(2); });
  const FunctionId fc = h.functions.Register("c", [&](TaskContext&) { order.push_back(3); });

  // Ids arrive 12, 10, 11: the table rebases twice, and the parked edge 12 -> 11 moves with
  // it.
  std::vector<Command> first;
  first.push_back(TaskCmd(12, fc, {}, {}, {11}));
  h.w(0).OnCommands(1, first, 3);
  std::vector<Command> second;
  second.push_back(TaskCmd(10, fa, {}, {}));
  second.push_back(TaskCmd(11, fb, {}, {}, {10}));
  h.w(0).OnCommands(1, second, 3);
  h.simulation.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  ASSERT_EQ(h.completions.size(), 1u);
}

TEST(WorkerDeathTest, BeforeIdPastTheCommandIndexBudgetDiesBeforeAnyResize) {
  const FunctionId f(0);
  auto deliver = [&](std::uint64_t id, std::uint64_t before) {
    Harness h(1);
    std::vector<Command> g;
    g.push_back(TaskCmd(id, f, {}, {}, {before}));
    h.w(0).OnCommands(1, g, 1);
  };
  // One past the 2^24 budget above the base, and one far past it: a table sized first
  // would allocate 2^40 slots and die of that instead.
  EXPECT_DEATH(deliver(5, 5 + (std::uint64_t{1} << 24)), "2\\^24 command-index budget");
  EXPECT_DEATH(deliver(5, 5 + (std::uint64_t{1} << 40)), "2\\^24 command-index budget");
  // Below the base: the rebase is bounded the same way.
  EXPECT_DEATH(deliver(std::uint64_t{1} << 30, 1), "2\\^24 command-index budget");
}

// Every frame of a group names the group's total: the first frame sets it, and a frame
// naming no total or another total is a malformed group.
TEST(WorkerDeathTest, GroupFrameWithNoTotalOrAnotherTotalDies) {
  const FunctionId f(0);
  auto deliver = [&](std::size_t first_total, std::size_t second_total) {
    Harness h(1);
    SendFrame(h, 0, 1, TaskCmd(10, f, {}, {}, {11}), first_total);
    SendFrame(h, 0, 1, TaskCmd(11, f, {}, {}), second_total);
  };
  EXPECT_DEATH(deliver(0, 2), "names no total");
  EXPECT_DEATH(deliver(2, 0), "names no total");
  EXPECT_DEATH(deliver(2, 3), "disagrees with its first frame");
}

}  // namespace
}  // namespace nimbus
