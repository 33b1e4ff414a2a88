// The sharded instantiation engine (DESIGN.md §7):
//  * ShardedVersionMap must be observationally identical to the flat VersionMap at any
//    shard count (randomized cross-check), and must enforce shard ownership;
//  * InlineExecutor and ThreadPoolExecutor must produce identical version-map final states
//    and identical worker message streams for the same instantiation sequence (the
//    determinism contract that lets the simulator keep the inline executor);
//  * the engine's validate and apply stages must match test-local references: a sparse
//    validation oracle over the set's uncompiled preconditions, and a serial sweep over
//    the compiled write deltas.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/template_manager.h"
#include "src/core/worker_template.h"
#include "src/data/object_directory.h"
#include "src/data/version_map.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"
#include "src/apps/logistic_regression.h"
#include "src/runtime/executor.h"
#include "src/runtime/instantiation_pipeline.h"
#include "src/runtime/shard_audit.h"
#include "src/runtime/sharded_version_map.h"

namespace nimbus::runtime {
namespace {

// -----------------------------------------------------------------------------------------
// ShardedVersionMap vs flat VersionMap
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

class ShardedVersionMapTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardedVersionMapTest, RandomizedCrossCheckAgainstFlat) {
  const std::uint32_t shards = GetParam();
  constexpr int kObjects = 57;
  constexpr int kWorkers = 7;
  constexpr int kOps = 4000;

  // Two identically seeded maps: ops go to `flat` directly and to `mirror` through the
  // owning shard view. Identical call sequences give identical dense id spaces.
  VersionMap flat;
  VersionMap mirror;
  for (int o = 0; o < kObjects; ++o) {
    const LogicalObjectId object(static_cast<std::uint64_t>(o));
    const WorkerId home(static_cast<std::uint64_t>(o % kWorkers));
    flat.CreateObject(object, home);
    mirror.CreateObject(object, home);
    for (int w = 0; w < kWorkers; ++w) {
      flat.InternWorker(WorkerId(static_cast<std::uint64_t>(w)));
      mirror.InternWorker(WorkerId(static_cast<std::uint64_t>(w)));
    }
  }
  ShardedVersionMap sharded(&mirror, shards);

  Rng rng(20260729 + shards);
  for (int i = 0; i < kOps; ++i) {
    const auto object = static_cast<DenseIndex>(rng.NextBounded(kObjects));
    const auto worker = static_cast<DenseIndex>(rng.NextBounded(kWorkers));
    ShardedVersionMap::Shard shard = sharded.shard(sharded.ShardOf(object));
    // One serial ownership window per op (write covers the read cases too): satisfies the
    // shard capability and keeps this serial test audit-clean in audit builds.
    ShardWriteScope window(&shard, audit::JobKind::kSerial, /*job=*/0);
    switch (rng.NextBounded(5)) {
      case 0: {
        const auto count = static_cast<std::uint32_t>(1 + rng.NextBounded(3));
        const Version vf = flat.AdvanceVersionsDense(object, worker, count);
        const Version vs = shard.AdvanceVersionsDense(object, worker, count);
        ASSERT_EQ(vf, vs);
        break;
      }
      case 1:
        flat.RecordCopyToLatestDense(object, worker);
        shard.RecordCopyToLatestDense(object, worker);
        break;
      case 2:
        ASSERT_EQ(flat.WorkerHasLatestDense(object, worker),
                  shard.WorkerHasLatestDense(object, worker));
        break;
      case 3:
        ASSERT_EQ(flat.AnyLatestHolderDense(object), shard.AnyLatestHolderDense(object));
        break;
      default:
        ASSERT_EQ(flat.ExistsDense(object), shard.ExistsDense(object));
        break;
    }
  }
  EXPECT_TRUE(SnapshotsEqual(flat.Snapshot(), mirror.Snapshot()));
  EXPECT_EQ(flat.instance_count(), mirror.instance_count());
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedVersionMapTest, ::testing::Values(1u, 2u, 8u));

TEST(ShardedVersionMapOwnershipTest, ForeignIndexAborts) {
  VersionMap map;
  map.CreateObject(LogicalObjectId(0), WorkerId(0));
  map.CreateObject(LogicalObjectId(1), WorkerId(0));
  ShardedVersionMap sharded(&map, 2);
  // Dense index 1 belongs to shard 1; shard 0 touching it violates the single-writer
  // invariant and must die loudly — even from inside a legitimate ownership window on
  // shard 0 (the window authorizes the shard, not foreign indices).
  EXPECT_DEATH(
      {
        ShardedVersionMap::Shard shard = sharded.shard(0);
        ShardReadScope window(&shard, audit::JobKind::kSerial, /*job=*/0);
        static_cast<void>(shard.ExistsDense(1));
      },
      "foreign dense index");
}

TEST(ShardedVersionMapOwnershipTest, ShardCountMustBePowerOfTwo) {
  VersionMap map;
  EXPECT_DEATH(ShardedVersionMap(&map, 3), "power of two");
}

TEST(ShardedObjectDirectoryTest, HashPartitionCoversEveryObjectExactlyOnce) {
  ObjectDirectory directory;
  directory.DefineVariable("a", 13, 100);
  directory.DefineVariable("b", 8, 50);
  const ShardedObjectDirectory sharded(&directory, 4);
  std::size_t covered = 0;
  for (std::uint32_t s = 0; s < sharded.shard_count(); ++s) {
    const auto shard = sharded.shard(s);
    covered += shard.owned_count();
    DirectoryReadScope window(&shard, audit::JobKind::kSerial, /*job=*/s);
    for (DenseIndex i = 0; i < directory.object_count(); ++i) {
      if (sharded.ShardOf(i) == s) {
        EXPECT_EQ(shard.ObjectAt(i).id.value(), i);
      }
    }
  }
  EXPECT_EQ(covered, directory.object_count());
}

// -----------------------------------------------------------------------------------------
// Executors
// -----------------------------------------------------------------------------------------

TEST(ExecutorTest, ThreadPoolRunsEveryJobExactlyOnce) {
  ThreadPoolExecutor pool(3);
  for (int round = 0; round < 50; ++round) {
    const std::size_t count = static_cast<std::size_t>(round % 9);  // includes 0 and 1
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) {
      h.store(0);
    }
    pool.Run(count, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "job " << i << " round " << round;
    }
  }
  EXPECT_GT(pool.counters().jobs_run, 0u);
  EXPECT_GT(pool.counters().batches, 0u);
}

TEST(ExecutorTest, InlineRunsInIndexOrder) {
  InlineExecutor inline_exec;
  std::vector<std::size_t> order;
  inline_exec.Run(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(inline_exec.counters().jobs_run, 5u);
  EXPECT_EQ(inline_exec.counters().batches, 1u);
}

// -----------------------------------------------------------------------------------------
// Engine equivalence: executors, shard counts, and the test-local references
// -----------------------------------------------------------------------------------------

// A small LR-shaped block (P map tasks reading a broadcast object, G reduces, 1 update)
// captured into a TemplateManager, mirroring the Table 1-3 micro benchmarks.
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
        {block->grad[static_cast<std::size_t>(q)]}, q, sim::Millis(4), false, {});
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

void SeedVersions(const MicroBlock& block, VersionMap* versions) {
  for (std::size_t q = 0; q < block.tdata.size(); ++q) {
    versions->CreateObject(block.tdata[q], block.assignment.WorkerFor(static_cast<int>(q)));
    versions->CreateObject(block.grad[q], block.assignment.WorkerFor(static_cast<int>(q)));
  }
  for (std::size_t g = 0; g < block.gpartial.size(); ++g) {
    versions->CreateObject(block.gpartial[g],
                           block.assignment.WorkerFor(static_cast<int>(g)));
  }
  versions->CreateObject(block.coeff, block.assignment.WorkerFor(0));
  for (WorkerId w : block.assignment.Workers()) {
    versions->RecordCopyToLatest(block.coeff, w);
  }
}

struct RunTrace {
  VersionMap::SnapshotState final_state;
  std::vector<std::vector<core::PatchDirective>> patches;  // per instantiation
  std::vector<std::vector<WorkerMessage>> messages;        // per instantiation
};

bool DirectivesEqual(const std::vector<core::PatchDirective>& a,
                     const std::vector<core::PatchDirective>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].object != b[i].object || a[i].src != b[i].src || a[i].dst != b[i].dst ||
        a[i].bytes != b[i].bytes) {
      return false;
    }
  }
  return true;
}

bool MessagesEqual(const std::vector<WorkerMessage>& a, const std::vector<WorkerMessage>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].worker != b[i].worker || a[i].half_index != b[i].half_index ||
        a[i].entry_count != b[i].entry_count || a[i].params != b[i].params ||
        a[i].wire_size != b[i].wire_size) {
      return false;
    }
    const bool a_edits = a[i].edits != nullptr && !a[i].edits->empty();
    const bool b_edits = b[i].edits != nullptr && !b[i].edits->empty();
    if (a_edits != b_edits) {
      return false;
    }
  }
  return true;
}

// Reference for the validate stage, written on the sparse VersionMap API over the set's
// uncompiled preconditions. It shares nothing with the compiled sweep, so a compilation
// error (wrong dense id, dropped or reordered entry) shows up as a mismatch too.
std::vector<core::PatchDirective> OracleValidate(const core::WorkerTemplateSet& set,
                                                 const VersionMap& versions) {
  std::vector<core::PatchDirective> needed;
  for (const auto& [pre, refcount] : set.preconditions()) {
    if (!versions.Exists(pre.object)) {
      continue;  // the block creates it on first write
    }
    if (!versions.WorkerHasLatest(pre.object, pre.worker)) {
      needed.push_back(core::PatchDirective{pre.object, versions.AnyLatestHolder(pre.object),
                                            pre.worker, set.ObjectBytes(pre.object)});
    }
  }
  return needed;
}

// Reference for the apply stage: patch copies, then one serial sweep over the compiled
// write deltas.
void OracleApply(const core::WorkerTemplateSet& set, const core::Patch& patch,
                 VersionMap* versions) {
  for (const core::PatchDirective& d : patch.directives) {
    versions->RecordCopyToLatest(d.object, d.dst);
  }
  for (const auto& delta : set.CompiledFor(*versions).write_deltas) {
    if (!versions->ExistsDense(delta.object)) {
      versions->CreateObjectDense(delta.object, delta.primary_holder);
    }
    versions->AdvanceVersionsDense(delta.object, delta.primary_holder, delta.write_count);
    for (DenseIndex holder : delta.extra_holders) {
      versions->RecordCopyToLatestDense(delta.object, holder);
    }
  }
}

// What one instantiation produced. `required` is what validation found (the applied patch
// may come from the patch cache); `next_required` is the overlapped validation of the next
// set.
struct Outcome {
  std::vector<core::PatchDirective> required;
  std::vector<WorkerMessage> messages;
  std::vector<core::PatchDirective> next_required;
};

// One instantiation as the controller sequences the engine's stages: validate -> resolve
// the patch (through `patches`' cache, keyed as entered from predecessor 7; every failure
// copied when null) -> apply -> [assemble || validate `next_set`].
Outcome Instantiate(InstantiationPipeline* pipeline, const core::WorkerTemplateSet& set,
                    VersionMap* versions, const ParamList& params,
                    core::TemplateManager* patches,
                    const core::WorkerTemplateSet* next_set = nullptr) {
  Outcome out;
  out.required = pipeline->Validate(set, *versions);
  core::Patch patch;
  if (patches != nullptr) {
    patch = patches->ResolvePatch(set, /*prev_executed=*/7, *versions, out.required);
  } else {
    patch.directives = out.required;
  }
  pipeline->ApplyEffects(set, patch, versions);
  out.messages = pipeline->AssembleMessages(
      set, params, /*edits=*/nullptr, next_set, versions,
      next_set != nullptr ? &out.next_required : nullptr);
  return out;
}

// Runs `iters` engine-driven instantiations, perturbing the broadcast object's residency
// between them so validation produces real patches, and routing some params.
RunTrace RunEngine(Executor* executor, std::uint32_t shards, int iters) {
  auto block = BuildMicroBlock(24, 4);
  core::WorkerTemplateSet set = core::ProjectBlock(
      *block->manager.Find(block->template_id), block->assignment, WorkerTemplateId(0),
      [](LogicalObjectId) { return 80; });
  VersionMap versions;
  SeedVersions(*block, &versions);

  InstantiationPipeline pipeline(executor, shards);
  RunTrace trace;
  ParamList params;
  params.emplace_back(0, ParameterBlob{1, 2, 3});
  params.emplace_back(5, ParameterBlob{4});
  params.emplace_back(static_cast<std::int32_t>(set.entry_meta().size() - 1),
                      ParameterBlob{7, 7});
  for (int i = 0; i < iters; ++i) {
    if (i % 2 == 1) {
      // Invalidate the broadcast object everywhere but one rotating writer.
      versions.RecordWrite(block->coeff,
                           block->assignment.WorkerFor(
                               i % block->assignment.partition_count()));
    }
    Outcome outcome = Instantiate(&pipeline, set, &versions, params, &block->manager);
    trace.patches.push_back(outcome.required);
    trace.messages.push_back(std::move(outcome.messages));
  }
  trace.final_state = versions.Snapshot();
  return trace;
}

TEST(InstantiationEngineTest, InlineAndThreadPoolProduceIdenticalResults) {
  InlineExecutor inline_exec;
  const RunTrace reference = RunEngine(&inline_exec, 1, 6);
  ASSERT_FALSE(reference.final_state.empty());
  // At least one instantiation must have produced a real patch for this test to bite.
  bool any_patch = false;
  for (const auto& p : reference.patches) {
    any_patch |= !p.empty();
  }
  ASSERT_TRUE(any_patch);

  for (std::uint32_t shards : {1u, 2u, 8u}) {
    InlineExecutor il;
    ThreadPoolExecutor pool(4);
    for (Executor* executor : std::initializer_list<Executor*>{&il, &pool}) {
      const RunTrace trace = RunEngine(executor, shards, 6);
      EXPECT_TRUE(SnapshotsEqual(reference.final_state, trace.final_state))
          << executor->name() << " shards=" << shards;
      ASSERT_EQ(reference.patches.size(), trace.patches.size());
      for (std::size_t i = 0; i < reference.patches.size(); ++i) {
        EXPECT_TRUE(DirectivesEqual(reference.patches[i], trace.patches[i]))
            << executor->name() << " shards=" << shards << " iter " << i;
        EXPECT_TRUE(MessagesEqual(reference.messages[i], trace.messages[i]))
            << executor->name() << " shards=" << shards << " iter " << i;
      }
    }
  }
}

TEST(InstantiationEngineTest, StagesMatchSparseOracle) {
  auto block = BuildMicroBlock(16, 4);
  core::WorkerTemplateSet set = core::ProjectBlock(
      *block->manager.Find(block->template_id), block->assignment, WorkerTemplateId(0),
      [](LogicalObjectId) { return 80; });

  VersionMap oracle_map;
  SeedVersions(*block, &oracle_map);
  VersionMap engine_map = oracle_map;  // forks the id space (fresh uid)

  InlineExecutor inline_exec;
  InstantiationPipeline pipeline(&inline_exec, 4);

  std::size_t total_failures = 0;
  for (int round = 0; round < 3; ++round) {
    // Perturb both identically so validation fails somewhere, from a different writer
    // each round.
    const WorkerId writer = block->assignment.WorkerFor(round + 1);
    oracle_map.RecordWrite(block->coeff, writer);
    engine_map.RecordWrite(block->coeff, writer);

    const auto oracle_required = OracleValidate(set, oracle_map);
    const auto engine_required = pipeline.Validate(set, engine_map);
    ASSERT_FALSE(oracle_required.empty()) << "round " << round;
    EXPECT_TRUE(DirectivesEqual(oracle_required, engine_required)) << "round " << round;
    total_failures += oracle_required.size();

    core::Patch patch;
    patch.directives = oracle_required;
    OracleApply(set, patch, &oracle_map);
    pipeline.ApplyEffects(set, patch, &engine_map);
    EXPECT_TRUE(SnapshotsEqual(oracle_map.Snapshot(), engine_map.Snapshot()))
        << "round " << round;
  }

  const ShardCounters& counters = pipeline.shard_counters();
  EXPECT_EQ(counters.validate_batches, 3u);
  EXPECT_EQ(counters.apply_batches, 3u);
  std::uint64_t checked = 0;
  std::uint64_t failures = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    checked += counters.preconditions_checked[s];
    failures += counters.validation_failures[s];
  }
  EXPECT_EQ(checked, 3 * set.preconditions().size());
  EXPECT_EQ(failures, total_failures);
}

TEST(InstantiationEngineTest, OverlappedNextBlockValidationMatchesSequential) {
  auto block = BuildMicroBlock(16, 4);
  core::WorkerTemplateSet set_a = core::ProjectBlock(
      *block->manager.Find(block->template_id), block->assignment, WorkerTemplateId(0),
      [](LogicalObjectId) { return 80; });
  core::WorkerTemplateSet set_b = core::ProjectBlock(
      *block->manager.Find(block->template_id), block->assignment, WorkerTemplateId(1),
      [](LogicalObjectId) { return 80; });

  VersionMap versions;
  SeedVersions(*block, &versions);
  versions.RecordWrite(block->coeff, block->assignment.WorkerFor(2));

  InlineExecutor inline_exec;
  InstantiationPipeline pipeline(&inline_exec, 2);
  const Outcome outcome =
      Instantiate(&pipeline, set_a, &versions, {}, /*patches=*/nullptr, &set_b);

  // The overlapped validation of block B must equal validating B after A's effects.
  const auto sequential = pipeline.Validate(set_b, versions);
  EXPECT_TRUE(DirectivesEqual(outcome.next_required, sequential));
}

// -----------------------------------------------------------------------------------------
// Shard-plan cache: revalidated by set generation, rebuilt on edits
// -----------------------------------------------------------------------------------------

TEST(InstantiationEngineTest, ShardPlanRebuiltWhenSetGenerationBumps) {
  auto block = BuildMicroBlock(32, 4);
  core::WorkerTemplateSet set = core::ProjectBlock(
      *block->manager.Find(block->template_id), block->assignment, WorkerTemplateId(0),
      [](LogicalObjectId) { return 80; });
  VersionMap versions;
  SeedVersions(*block, &versions);

  InlineExecutor inline_exec;
  InstantiationPipeline pipeline(&inline_exec, 2);
  pipeline.Validate(set, versions);
  EXPECT_EQ(pipeline.shard_counters().plan_builds, 1u);  // cold build
  pipeline.Validate(set, versions);
  pipeline.Validate(set, versions);
  EXPECT_EQ(pipeline.shard_counters().plan_builds, 1u);  // steady state: reuse only
  EXPECT_GE(pipeline.shard_counters().plan_reuses, 2u);

  // A set edit bumps the generation: the cached plan must not survive it (it could be
  // missing the new precondition's shard entry).
  set.AddPrecondition(block->coeff, block->assignment.WorkerFor(1));
  pipeline.Validate(set, versions);
  EXPECT_EQ(pipeline.shard_counters().plan_builds, 2u);
  pipeline.Validate(set, versions);
  EXPECT_EQ(pipeline.shard_counters().plan_builds, 2u);
}

// -----------------------------------------------------------------------------------------
// Serialized central dispatch: per-worker wire buffers (DESIGN.md §10)
// -----------------------------------------------------------------------------------------

// Serialized batches must be executor- and shard-count-invariant down to the byte (the
// assembly chunks write disjoint slots; this is also the sanitizer-raced coverage for the
// assembly stage).
TEST(InstantiationEngineTest, SerializedBatchesIdenticalAcrossExecutorsAndShards) {
  auto block = BuildMicroBlock(64, 8);
  core::WorkerTemplateSet set = core::ProjectBlock(
      *block->manager.Find(block->template_id), block->assignment, WorkerTemplateId(0),
      [](LogicalObjectId) { return 80; });

  ParamList params;
  params.emplace_back(3, ParameterBlob{1, 2, 3});
  params.emplace_back(17, ParameterBlob{9});

  std::vector<CommandId> bases(set.halves().size(), CommandId::Invalid());
  std::uint64_t next = 1000;
  for (std::size_t h = 0; h < set.halves().size(); ++h) {
    if (!set.halves()[h].entries.empty()) {
      bases[h] = CommandId(next);
      next += set.halves()[h].entries.size();
    }
  }

  InlineExecutor inline_exec;
  InstantiationPipeline reference_pipeline(&inline_exec, 1);
  const std::vector<SerializedBatch> reference = reference_pipeline.AssembleSerializedBatches(
      set, params, /*group_seq=*/7, TaskId(500), bases);
  ASSERT_FALSE(reference.empty());
  std::size_t reference_tasks = 0;
  for (const SerializedBatch& b : reference) {
    reference_tasks += b.task_count;
  }
  EXPECT_EQ(reference_tasks, set.entry_meta().size());

  ThreadPoolExecutor pool(4);
  for (runtime::Executor* executor :
       std::initializer_list<runtime::Executor*>{&inline_exec, &pool}) {
    for (std::uint32_t shards : {1u, 2u, 8u}) {
      const std::string label =
          std::string(executor->name()) + " shards=" + std::to_string(shards);
      InstantiationPipeline pipeline(executor, shards);
      const std::vector<SerializedBatch> got = pipeline.AssembleSerializedBatches(
          set, params, /*group_seq=*/7, TaskId(500), bases);
      ASSERT_EQ(reference.size(), got.size()) << label;
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(reference[i].worker, got[i].worker) << label;
        EXPECT_EQ(reference[i].wire_size, got[i].wire_size) << label;
        EXPECT_EQ(reference[i].task_count, got[i].task_count) << label;
        EXPECT_EQ(reference[i].command_count, got[i].command_count) << label;
        EXPECT_TRUE(reference[i].bytes == got[i].bytes) << label << " batch " << i;
      }
    }
  }
}

// -----------------------------------------------------------------------------------------
// Controller-level invariance: shard count must not change simulation results
// -----------------------------------------------------------------------------------------

std::vector<double> RunLr(std::uint32_t shards) {
  // Declared before the cluster: the controller's pipeline borrows this executor, so it
  // must be destroyed after the cluster.
  InlineExecutor inline_exec;
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = ControlMode::kTemplates;
  Cluster cluster(options);
  Job job(&cluster);

  apps::LogisticRegressionApp::Config config;
  config.partitions = 8;
  config.reduce_groups = 4;
  config.dim = 6;
  config.rows_per_partition = 16;
  config.virtual_bytes_total = 64LL * 1000 * 1000;
  apps::LogisticRegressionApp app(&job, config);

  if (shards != 1) {
    cluster.controller().instantiation_pipeline().Configure(&inline_exec, shards);
  }
  app.Setup();
  app.RunInnerLoop(6);
  return app.CoeffSnapshot();
}

TEST(InstantiationEngineTest, ControllerResultsInvariantUnderShardCount) {
  const std::vector<double> reference = RunLr(1);
  for (std::uint32_t shards : {2u, 4u}) {
    const std::vector<double> sharded = RunLr(shards);
    ASSERT_EQ(reference.size(), sharded.size());
    for (std::size_t d = 0; d < reference.size(); ++d) {
      EXPECT_DOUBLE_EQ(reference[d], sharded[d]) << "shards=" << shards << " dim " << d;
    }
  }
}

}  // namespace
}  // namespace nimbus::runtime
