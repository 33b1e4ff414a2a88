// Unit tests for validation, patching and the patch cache (paper §2.4, §4.2), driven
// through the instantiation pipeline's stages as the controller runs them.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/patch.h"
#include "src/core/template_manager.h"
#include "src/runtime/instantiation_pipeline.h"

namespace nimbus::core {
namespace {

constexpr FunctionId kFn{0};

ObjectBytesFn Bytes() {
  return [](LogicalObjectId) -> std::int64_t { return 64; };
}

struct Fixture {
  TemplateManager manager;
  TemplateId tid;
  WorkerTemplateSet* set = nullptr;
  VersionMap versions;
  runtime::InstantiationPipeline pipeline;

  // Block: workers 0 and 1 each read broadcast object 100 and write their own output.
  Fixture() {
    tid = manager.BeginCapture("b");
    manager.CaptureTask(kFn, {LogicalObjectId(100)}, {LogicalObjectId(0)}, 0, 0, false, {});
    manager.CaptureTask(kFn, {LogicalObjectId(100)}, {LogicalObjectId(1)}, 1, 0, false, {});
    manager.FinishCapture();
    set = manager.GetOrProject(
        tid, Assignment::RoundRobin(2, {WorkerId(0), WorkerId(1)}), Bytes());
    versions.CreateObject(LogicalObjectId(100), WorkerId(0));
    versions.CreateObject(LogicalObjectId(0), WorkerId(0));
    versions.CreateObject(LogicalObjectId(1), WorkerId(1));
  }

  std::vector<PatchDirective> Validate() { return pipeline.Validate(*set, versions); }

  // Validates, then resolves the result against the patch cache as entered from `prev`.
  Patch Resolve(std::uint64_t prev, bool* hit) {
    return manager.ResolvePatch(*set, prev, versions, Validate(), hit);
  }
};

TEST(PatchTest, ValidationFindsMissingReplicas) {
  Fixture f;
  // Object 100 lives only on worker 0; worker 1's precondition fails.
  const auto needed = f.Validate();
  ASSERT_EQ(needed.size(), 1u);
  EXPECT_EQ(needed[0].object, LogicalObjectId(100));
  EXPECT_EQ(needed[0].src, WorkerId(0));
  EXPECT_EQ(needed[0].dst, WorkerId(1));
}

TEST(PatchTest, ValidationPassesWhenReplicated) {
  Fixture f;
  f.versions.RecordCopyToLatest(LogicalObjectId(100), WorkerId(1));
  EXPECT_TRUE(f.Validate().empty());
}

TEST(PatchTest, ResolveCachesAndHits) {
  Fixture f;
  bool hit = true;
  Patch p1 = f.Resolve(7, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(p1.size(), 1u);
  // Same preceding control flow, same system state: cache hit.
  Patch p2 = f.Resolve(7, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p2.size(), 1u);
  EXPECT_EQ(f.manager.patch_cache().hits(), 1u);
  EXPECT_EQ(f.manager.patch_cache().misses(), 1u);

  // Reuse demands exactly the currently-failing set, under unchanged stamps: a different
  // directive count, or the same count with an uncovered (object, dst), is refused.
  PatchCache& cache = f.manager.mutable_patch_cache();
  const std::vector<PatchDirective> required = f.Validate();
  EXPECT_NE(cache.Reusable(7, f.set->id(), required, f.set->generation(), f.versions),
            nullptr);
  std::vector<PatchDirective> more = required;
  more.push_back({LogicalObjectId(100), WorkerId(0), WorkerId(2), 64});
  EXPECT_EQ(cache.Reusable(7, f.set->id(), more, f.set->generation(), f.versions), nullptr);
  std::vector<PatchDirective> uncovered = required;
  uncovered[0].dst = WorkerId(2);
  EXPECT_EQ(cache.Reusable(7, f.set->id(), uncovered, f.set->generation(), f.versions),
            nullptr);
}

TEST(PatchTest, DifferentPredecessorIsDifferentCacheEntry) {
  Fixture f;
  bool hit = true;
  f.Resolve(7, &hit);
  EXPECT_FALSE(hit);
  f.Resolve(8, &hit);
  EXPECT_FALSE(hit);  // entered from different control flow
  EXPECT_EQ(f.manager.patch_cache().size(), 2u);
}

TEST(PatchTest, StaleCachedPatchIsRecomputed) {
  Fixture f;
  bool hit = true;
  const Patch cached = f.Resolve(7, &hit);
  EXPECT_FALSE(hit);
  // The source moves: object 100's latest is now on worker 2 only.
  f.versions.RecordWrite(LogicalObjectId(100), WorkerId(2));
  // A write moves no churn stamp, and the old failing set is still covered exactly, yet
  // the cache refuses it: the directive's source no longer holds the latest version.
  EXPECT_EQ(f.manager.mutable_patch_cache().Reusable(7, f.set->id(), cached.directives,
                                                     f.set->generation(), f.versions),
            nullptr);
  Patch p = f.Resolve(7, &hit);
  EXPECT_FALSE(hit) << "cached patch has a stale source and must be recomputed";
  // Both workers now need the object (worker 0 lost latest too).
  EXPECT_EQ(p.size(), 2u);
  for (const PatchDirective& d : p.directives) {
    EXPECT_EQ(d.src, WorkerId(2));
  }
}

TEST(PatchTest, WorkerChurnInvalidatesCachedPatchByEpoch) {
  Fixture f;
  bool hit = true;
  f.Resolve(7, &hit);
  EXPECT_FALSE(hit);
  // Churn that does not disturb this patch's source: another worker's instance vanishes.
  // The epoch key refuses the entry outright (no source re-validation is attempted).
  f.versions.DropInstance(LogicalObjectId(0), WorkerId(0));
  Patch p = f.Resolve(7, &hit);
  EXPECT_FALSE(hit) << "a churn-epoch mismatch must read as a miss";
  EXPECT_EQ(p.size(), 1u);
  // The entry was re-stored under the current epoch: steady state hits again.
  f.Resolve(7, &hit);
  EXPECT_TRUE(hit);
}

TEST(PatchTest, SetEditInvalidatesCachedPatchByGeneration) {
  Fixture f;
  bool hit = true;
  f.Resolve(7, &hit);
  EXPECT_FALSE(hit);
  // Any edit that can change preconditions bumps the set generation and voids the entry.
  f.set->AddPrecondition(LogicalObjectId(100), WorkerId(0));
  f.Resolve(7, &hit);
  EXPECT_FALSE(hit) << "a set-generation mismatch must read as a miss";
}

TEST(PatchTest, CacheCapsAndEvicts) {
  Fixture f;
  auto& cache = f.manager.mutable_patch_cache();
  cache.SetCapacity(4);
  bool hit = false;
  // Distinct predecessors create distinct entries; the cap bounds the table.
  for (std::uint64_t prev = 0; prev < 10; ++prev) {
    f.Resolve(prev, &hit);
  }
  EXPECT_LE(cache.size(), 4u);
  EXPECT_EQ(cache.counters().evictions, 6u);
  EXPECT_EQ(cache.counters().misses, 10u);
  // The most recently used entry survived.
  f.Resolve(9, &hit);
  EXPECT_TRUE(hit);
}

TEST(PatchTest, ApplyEffectsAdvancesVersions) {
  Fixture f;
  Patch patch;
  patch.directives.push_back({LogicalObjectId(100), WorkerId(0), WorkerId(1), 64});
  f.pipeline.ApplyEffects(*f.set, patch, &f.versions);
  // Patch effect: worker 1 now has the broadcast object.
  EXPECT_TRUE(f.versions.WorkerHasLatest(LogicalObjectId(100), WorkerId(1)));
  // Write deltas: both outputs advanced one version on their writers.
  EXPECT_EQ(f.versions.latest(LogicalObjectId(0)), 1u);
  EXPECT_EQ(f.versions.latest(LogicalObjectId(1)), 1u);
  EXPECT_TRUE(f.versions.WorkerHasLatest(LogicalObjectId(0), WorkerId(0)));
  EXPECT_TRUE(f.versions.WorkerHasLatest(LogicalObjectId(1), WorkerId(1)));
}

TEST(PatchTest, RepeatedInstantiationKeepsValidating) {
  // After applying effects, a self-validating template must validate cleanly against the
  // updated version map (the auto-validation invariant).
  Fixture f;
  f.versions.RecordCopyToLatest(LogicalObjectId(100), WorkerId(1));
  ASSERT_TRUE(f.Validate().empty());
  for (int i = 0; i < 5; ++i) {
    Patch none;
    f.pipeline.ApplyEffects(*f.set, none, &f.versions);
    EXPECT_TRUE(f.Validate().empty()) << "iteration " << i;
  }
}

}  // namespace
}  // namespace nimbus::core
