// Serialized command batches (DESIGN.md §10).
//
// The serialized central path ships each worker one pre-encoded wire buffer produced from
// the pipeline's cached template encoding by memcpy + header patch + in-place parameter
// patch. Cost accounting and wire bytes change; the decoded command streams, the
// version-map state, and the computed results must NOT. These tests pin that equivalence
// against the per-task dispatcher's command builder (core::CommandFromEntry) and the
// per-task cluster runs, and cover the serialized-plan cache (stamped by set edit
// generation; rebuilt plan-wide on edits).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/logistic_regression.h"
#include "src/core/template_manager.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"
#include "src/runtime/instantiation_pipeline.h"
#include "src/task/wire.h"

namespace nimbus {
namespace {

using runtime::InstantiationPipeline;
using runtime::ParamList;
using runtime::SerializedBatch;

// -----------------------------------------------------------------------------------------
// Pipeline-level equivalence: serialized batches decode to exactly the per-task commands
// -----------------------------------------------------------------------------------------

// The LR-shaped micro block of runtime_test.cc, with cached per-task parameters so the
// in-place patch path (same-size overrides) is exercised alongside the splice path.
struct MicroBlock {
  core::TemplateManager manager;
  TemplateId template_id;
  core::Assignment assignment;
  std::vector<LogicalObjectId> tdata, grad, gpartial;
  LogicalObjectId coeff;
};

std::unique_ptr<MicroBlock> BuildMicroBlock(int partitions, int workers) {
  auto block = std::make_unique<MicroBlock>();
  IdAllocator<LogicalObjectId> objects;
  block->coeff = objects.Next();
  for (int q = 0; q < partitions; ++q) {
    block->tdata.push_back(objects.Next());
    block->grad.push_back(objects.Next());
  }
  for (int g = 0; g < workers; ++g) {
    block->gpartial.push_back(objects.Next());
  }
  std::vector<WorkerId> ids;
  for (int w = 0; w < workers; ++w) {
    ids.push_back(WorkerId(static_cast<std::uint64_t>(w)));
  }
  block->assignment = core::Assignment::RoundRobin(partitions, ids);

  block->template_id = block->manager.BeginCapture("micro_lr");
  for (int q = 0; q < partitions; ++q) {
    block->manager.CaptureTask(
        FunctionId(0), {block->tdata[static_cast<std::size_t>(q)], block->coeff},
        {block->grad[static_cast<std::size_t>(q)]}, q, sim::Millis(4), false,
        ParameterBlob{1, 2, 3, 4});  // cached params: the in-place patch target
  }
  for (int g = 0; g < workers; ++g) {
    std::vector<LogicalObjectId> reads;
    for (int q = g; q < partitions; q += workers) {
      reads.push_back(block->grad[static_cast<std::size_t>(q)]);
    }
    block->manager.CaptureTask(FunctionId(1), std::move(reads),
                               {block->gpartial[static_cast<std::size_t>(g)]}, g,
                               sim::Micros(200), false, {});
  }
  {
    std::vector<LogicalObjectId> reads = block->gpartial;
    reads.push_back(block->coeff);
    block->manager.CaptureTask(FunctionId(2), std::move(reads), {block->coeff}, 0,
                               sim::Micros(300), true, {});
  }
  block->manager.FinishCapture();
  return block;
}

std::vector<CommandId> AllocateBases(const core::WorkerTemplateSet& set,
                                     std::uint64_t first) {
  std::vector<CommandId> bases(set.halves().size(), CommandId::Invalid());
  std::uint64_t next = first;
  for (std::size_t h = 0; h < set.halves().size(); ++h) {
    if (!set.halves()[h].entries.empty()) {
      bases[h] = CommandId(next);
      next += set.halves()[h].entries.size();
    }
  }
  return bases;
}

// One worker half's reference command stream: what the per-task dispatcher sends for the
// same arguments, one command at a time.
struct ReferenceHalf {
  WorkerId worker;
  std::uint32_t half_index = 0;
  std::uint64_t task_count = 0;
  std::vector<Command> commands;
};

// Builds every non-empty half's commands through core::CommandFromEntry with the
// per-task dispatcher's parameter routing (first override per slot wins, tasks only).
std::vector<ReferenceHalf> PerTaskReference(const core::WorkerTemplateSet& set,
                                            const ParamList& params, std::uint64_t group_seq,
                                            TaskId task_base,
                                            const std::vector<CommandId>& half_bases) {
  std::map<std::int32_t, const ParameterBlob*> param_of;
  for (const auto& [slot, blob] : params) {
    param_of.emplace(slot, &blob);
  }
  std::vector<ReferenceHalf> out;
  for (std::size_t h = 0; h < set.halves().size(); ++h) {
    const core::WorkerHalf& half = set.halves()[h];
    if (half.entries.empty()) {
      continue;
    }
    ReferenceHalf ref;
    ref.worker = half.worker;
    ref.half_index = static_cast<std::uint32_t>(h);
    for (std::size_t i = 0; i < half.entries.size(); ++i) {
      const core::WtEntry& e = half.entries[i];
      const ParameterBlob* override_params = nullptr;
      if (e.type == CommandType::kTask) {
        ++ref.task_count;
        const auto it = param_of.find(e.global_entry);
        if (it != param_of.end()) {
          override_params = it->second;
        }
      }
      ref.commands.push_back(core::CommandFromEntry(e, i, half_bases[h], task_base,
                                                    group_seq, override_params));
    }
    out.push_back(std::move(ref));
  }
  return out;
}

void ExpectSerializedDecodesToReference(const std::vector<ReferenceHalf>& reference,
                                        const std::vector<SerializedBatch>& serialized,
                                        std::uint64_t group_seq, const std::string& label) {
  ASSERT_EQ(reference.size(), serialized.size()) << label;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].worker, serialized[i].worker) << label;
    EXPECT_EQ(reference[i].half_index, serialized[i].half_index) << label;
    EXPECT_EQ(reference[i].task_count, serialized[i].task_count) << label;
    const wire::DecodedBatch decoded = wire::DecodeBatch(serialized[i].bytes);
    EXPECT_EQ(decoded.header.group_seq, group_seq) << label;
    ASSERT_EQ(decoded.commands.size(), reference[i].commands.size()) << label;
    for (std::size_t c = 0; c < decoded.commands.size(); ++c) {
      EXPECT_TRUE(decoded.commands[c] == reference[i].commands[c])
          << label << " batch " << i << " command " << c;
    }
  }
}

// The headline pipeline contract: decoding a serialized batch yields exactly the command
// stream the per-task dispatcher builds for the same arguments — cold encodes, same-size
// in-place patches, splices, and pure memcpy reuse included.
TEST(SerializedBatchTest, DecodedBatchesBitIdenticalToPerTaskCommands) {
  auto block = BuildMicroBlock(64, 8);
  core::WorkerTemplateSet set = core::ProjectBlock(
      *block->manager.Find(block->template_id), block->assignment, WorkerTemplateId(0),
      [](LogicalObjectId) { return 80; });

  ParamList params;
  params.emplace_back(3, ParameterBlob{9, 8, 7, 6});  // same size as cached: in-place
  params.emplace_back(17, ParameterBlob{5});          // size change: splice
  ParamList no_params;

  InstantiationPipeline pipeline;
  // Three instantiations through one pipeline: cold encode, warm reuse with patches, warm
  // reuse with no overrides (pure memcpy replay).
  std::uint64_t seq = 7;
  std::uint64_t first_base = 1'000;
  for (const ParamList* p :
       std::initializer_list<const ParamList*>{&params, &params, &no_params}) {
    const std::string label = "seq=" + std::to_string(seq);
    const std::vector<CommandId> bases = AllocateBases(set, first_base);
    const std::vector<SerializedBatch> serialized =
        pipeline.AssembleSerializedBatches(set, *p, seq, TaskId(500), bases);
    ASSERT_FALSE(serialized.empty()) << label;
    ExpectSerializedDecodesToReference(PerTaskReference(set, *p, seq, TaskId(500), bases),
                                       serialized, seq, label);
    ++seq;
    first_base += set.entry_meta().size() * 2;
  }
  const SerializedBatchCounters& counters = pipeline.serialized_counters();
  EXPECT_GT(counters.half_encodes, 0u);
  EXPECT_EQ(counters.half_reuses, counters.half_encodes * 2);
  EXPECT_GT(counters.params_patched, 0u);
  EXPECT_GT(counters.splices, 0u);
}

TEST(SerializedBatchTest, SerializedPlanRebuiltWhenSetGenerationBumps) {
  auto block = BuildMicroBlock(16, 4);
  core::WorkerTemplateSet set = core::ProjectBlock(
      *block->manager.Find(block->template_id), block->assignment, WorkerTemplateId(0),
      [](LogicalObjectId) { return 80; });

  InstantiationPipeline pipeline;
  const std::vector<CommandId> bases = AllocateBases(set, 100);
  pipeline.AssembleSerializedBatches(set, {}, 1, TaskId(0), bases);
  const std::uint64_t cold = pipeline.serialized_counters().half_encodes;
  EXPECT_GT(cold, 0u);
  pipeline.AssembleSerializedBatches(set, {}, 2, TaskId(0), bases);
  EXPECT_EQ(pipeline.serialized_counters().half_encodes, cold);  // steady state: reuse

  // Any set edit bumps the generation; the cached bytes could describe entries that no
  // longer exist, so the whole plan re-encodes.
  set.AddPrecondition(block->coeff, block->assignment.WorkerFor(1));
  pipeline.AssembleSerializedBatches(set, {}, 3, TaskId(0), bases);
  EXPECT_EQ(pipeline.serialized_counters().half_encodes, cold * 2);
  pipeline.AssembleSerializedBatches(set, {}, 4, TaskId(0), bases);
  EXPECT_EQ(pipeline.serialized_counters().half_encodes, cold * 2);
}

// -----------------------------------------------------------------------------------------
// Cluster-level equivalence: the serialized central path end to end
// -----------------------------------------------------------------------------------------

bool SnapshotsEqual(const VersionMap::SnapshotState& a, const VersionMap::SnapshotState& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].object != b[i].object || a[i].latest != b[i].latest ||
        a[i].held != b[i].held) {
      return false;
    }
  }
  return true;
}

struct CentralRun {
  std::vector<double> coeffs;
  VersionMap::SnapshotState snapshot;
  std::map<WorkerId, std::vector<Command>> logs;
  std::uint64_t tasks_dispatched = 0;
  SerializedBatchCounters serialized;
  NetworkCounters network;
};

CentralRun RunLrCentral(bool serialized) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = ControlMode::kCentralOnly;
  options.serialized_batching = serialized;
  Cluster cluster(options);
  for (WorkerId id : cluster.worker_ids()) {
    cluster.worker(id)->EnableCommandLog();
  }
  Job job(&cluster);

  apps::LogisticRegressionApp::Config config;
  config.partitions = 8;
  config.reduce_groups = 4;
  config.dim = 6;
  config.rows_per_partition = 16;
  config.virtual_bytes_total = 64LL * 1000 * 1000;
  apps::LogisticRegressionApp app(&job, config);
  app.Setup();
  app.RunInnerLoop(4);
  app.RunOuterIteration();  // a second distinct stage shape through the plan caches
  app.RunInnerLoop(2);

  CentralRun run;
  run.coeffs = app.CoeffSnapshot();
  run.snapshot = cluster.controller().versions().Snapshot();
  for (WorkerId id : cluster.worker_ids()) {
    run.logs[id] = cluster.worker(id)->command_log();
  }
  run.tasks_dispatched = cluster.controller().tasks_dispatched();
  run.serialized = cluster.controller().instantiation_pipeline().serialized_counters();
  run.network = cluster.network().counters();
  return run;
}

void ExpectRunsEqual(const CentralRun& reference, const CentralRun& other,
                     const std::string& label) {
  ASSERT_EQ(reference.coeffs.size(), other.coeffs.size()) << label;
  for (std::size_t d = 0; d < reference.coeffs.size(); ++d) {
    EXPECT_DOUBLE_EQ(reference.coeffs[d], other.coeffs[d]) << label << " dim " << d;
  }
  EXPECT_TRUE(SnapshotsEqual(reference.snapshot, other.snapshot)) << label;
  EXPECT_EQ(reference.tasks_dispatched, other.tasks_dispatched) << label;
  ASSERT_EQ(reference.logs.size(), other.logs.size()) << label;
  for (const auto& [worker, ref_log] : reference.logs) {
    const auto it = other.logs.find(worker);
    ASSERT_TRUE(it != other.logs.end()) << label << " worker " << worker;
    ASSERT_EQ(ref_log.size(), it->second.size()) << label << " worker " << worker;
    for (std::size_t i = 0; i < ref_log.size(); ++i) {
      EXPECT_TRUE(ref_log[i] == it->second[i])
          << label << " worker " << worker << " command " << i
          << " (id " << ref_log[i].id << " vs " << it->second[i].id << ")";
    }
  }
}

// The headline cluster contract: the worker-observed command streams of the serialized
// path (decoded from wire buffers) are bit-identical to the per-task streams — same ids,
// before-edges, params, copy ids.
TEST(SerializedBatchTest, SerializedDispatchBitIdenticalToPerTask) {
  const CentralRun per_task = RunLrCentral(/*serialized=*/false);
  const CentralRun serialized = RunLrCentral(/*serialized=*/true);
  ExpectRunsEqual(per_task, serialized, "serialized");
}

// Steady state must reuse cached template bytes (the whole point of the cache) and the
// wire accounting must move from the command bucket to the serialized-batch bucket.
TEST(SerializedBatchTest, SerializedPathReusesTemplateBytesAndTagsWireKind) {
  const CentralRun run = RunLrCentral(/*serialized=*/true);
  EXPECT_GT(run.serialized.batches, 0u);
  EXPECT_GT(run.serialized.half_encodes, 0u);
  EXPECT_GT(run.serialized.half_reuses, run.serialized.half_encodes);
  EXPECT_GT(run.serialized.bytes_shipped, 0u);
  EXPECT_GT(run.network.messages_for(MessageKind::kSerializedBatch), 0u);
  EXPECT_EQ(run.network.bytes_for(MessageKind::kSerializedBatch),
            static_cast<std::int64_t>(run.serialized.bytes_shipped));

  const CentralRun per_task = RunLrCentral(/*serialized=*/false);
  EXPECT_EQ(per_task.network.messages_for(MessageKind::kSerializedBatch), 0u);
  EXPECT_EQ(per_task.serialized.batches, 0u);
  EXPECT_GT(per_task.network.messages_for(MessageKind::kCommand), 0u);
}

}  // namespace
}  // namespace nimbus
