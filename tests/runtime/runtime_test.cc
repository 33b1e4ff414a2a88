// The instantiation pipeline (DESIGN.md §7): its validate and apply stages must match
// test-local references — a sparse validation oracle over the set's uncompiled
// preconditions, and a serial sweep over the compiled write deltas — and its caches and
// write count must move exactly when the stages say they do.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/template_manager.h"
#include "src/core/worker_template.h"
#include "src/data/version_map.h"
#include "src/runtime/instantiation_pipeline.h"

namespace nimbus::runtime {
namespace {

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
// may come from the patch cache); `next_required` is the lookahead validation of the next
// set.
struct Outcome {
  std::vector<core::PatchDirective> required;
  std::vector<WorkerMessage> messages;
  std::vector<core::PatchDirective> next_required;
};

// One instantiation as the controller sequences the pipeline's stages: validate -> resolve
// the patch (every failure copied) -> apply -> assemble -> validate `next_set`.
Outcome Instantiate(InstantiationPipeline* pipeline, const core::WorkerTemplateSet& set,
                    VersionMap* versions, const core::WorkerTemplateSet* next_set = nullptr) {
  Outcome out;
  out.required = pipeline->Validate(set, *versions);
  core::Patch patch;
  patch.directives = out.required;
  pipeline->ApplyEffects(set, patch, versions);
  out.messages = pipeline->AssembleMessages(set, /*params=*/{}, /*edits=*/nullptr);
  if (next_set != nullptr) {
    out.next_required = pipeline->Validate(*next_set, *versions);
  }
  return out;
}

TEST(InstantiationEngineTest, StagesMatchSparseOracle) {
  auto block = BuildMicroBlock(16, 4);
  core::WorkerTemplateSet set = core::ProjectBlock(
      *block->manager.Find(block->template_id), block->assignment, WorkerTemplateId(0),
      [](LogicalObjectId) { return 80; });

  VersionMap oracle_map;
  SeedVersions(*block, &oracle_map);
  VersionMap engine_map = oracle_map;  // forks the id space (fresh uid)

  InstantiationPipeline pipeline;

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
  EXPECT_EQ(counters.preconditions_checked, 3 * set.preconditions().size());
  EXPECT_EQ(counters.validation_failures, total_failures);
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

  InstantiationPipeline pipeline;
  const Outcome outcome = Instantiate(&pipeline, set_a, &versions, &set_b);

  // The lookahead validation of block B must equal validating B after A's effects.
  const auto sequential = pipeline.Validate(set_b, versions);
  EXPECT_TRUE(DirectivesEqual(outcome.next_required, sequential));
}

// -----------------------------------------------------------------------------------------
// Set-plan cache: revalidated by set generation, rebuilt on edits
// -----------------------------------------------------------------------------------------

TEST(InstantiationEngineTest, SetPlanRebuiltWhenSetGenerationBumps) {
  auto block = BuildMicroBlock(32, 4);
  core::WorkerTemplateSet set = core::ProjectBlock(
      *block->manager.Find(block->template_id), block->assignment, WorkerTemplateId(0),
      [](LogicalObjectId) { return 80; });
  VersionMap versions;
  SeedVersions(*block, &versions);

  InstantiationPipeline pipeline;
  pipeline.Validate(set, versions);
  EXPECT_EQ(pipeline.shard_counters().plan_builds, 1u);  // cold build
  pipeline.Validate(set, versions);
  pipeline.Validate(set, versions);
  EXPECT_EQ(pipeline.shard_counters().plan_builds, 1u);  // steady state: reuse only
  EXPECT_GE(pipeline.shard_counters().plan_reuses, 2u);

  // A set edit bumps the generation: the cached plan must not survive it (its existence
  // memo could miss the new entry's object).
  set.AddPrecondition(block->coeff, block->assignment.WorkerFor(1));
  pipeline.Validate(set, versions);
  EXPECT_EQ(pipeline.shard_counters().plan_builds, 2u);
  pipeline.Validate(set, versions);
  EXPECT_EQ(pipeline.shard_counters().plan_builds, 2u);
}

// -----------------------------------------------------------------------------------------
// Version-map write count: the controller's lookahead check (DESIGN.md §9.2)
// -----------------------------------------------------------------------------------------

TEST(InstantiationEngineTest, MapWriteCountAdvancesOnlyOnMutatingStages) {
  auto block = BuildMicroBlock(16, 4);
  core::WorkerTemplateSet set = core::ProjectBlock(
      *block->manager.Find(block->template_id), block->assignment, WorkerTemplateId(0),
      [](LogicalObjectId) { return 80; });
  VersionMap versions;
  SeedVersions(*block, &versions);
  versions.RecordWrite(block->coeff, block->assignment.WorkerFor(1));

  InstantiationPipeline pipeline;
  EXPECT_EQ(pipeline.map_writes(), 0u);

  // Reading stages leave the count alone.
  core::Patch patch;
  patch.directives = pipeline.Validate(set, versions);
  ASSERT_FALSE(patch.directives.empty());
  pipeline.AssembleMessages(set, /*params=*/{}, /*edits=*/nullptr);
  std::vector<CommandId> bases(set.halves().size(), CommandId::Invalid());
  std::uint64_t next = 1;
  for (std::size_t h = 0; h < set.halves().size(); ++h) {
    if (!set.halves()[h].entries.empty()) {
      bases[h] = CommandId(next);
      next += set.halves()[h].entries.size();
    }
  }
  pipeline.AssembleSerializedBatches(set, /*params=*/{}, /*group_seq=*/1, TaskId(0), bases);
  EXPECT_EQ(pipeline.map_writes(), 0u);

  // Each mutating stage advances it by one, even when the existence memo makes the sweep
  // a no-op: a cache filled before the call cannot tell.
  pipeline.EnsureObjectsExist(set, &versions);
  EXPECT_EQ(pipeline.map_writes(), 1u);
  pipeline.EnsureObjectsExist(set, &versions);
  EXPECT_EQ(pipeline.map_writes(), 2u);
  pipeline.ApplyEffects(set, patch, &versions);
  EXPECT_EQ(pipeline.map_writes(), 3u);
  pipeline.Validate(set, versions);
  EXPECT_EQ(pipeline.map_writes(), 3u);
}

}  // namespace
}  // namespace nimbus::runtime
