// Regression tests for the dense-id projection rewrite: projecting the same block onto the
// same assignment must produce byte-identical worker-template sets, no matter which
// TemplateManager instance does it or how many projections ran before. The seed
// implementation iterated unordered_maps while emitting self-validation copies and write
// deltas, so its output depended on hash-table layout; the flat-array builder is ordered by
// construction, and these tests pin that down.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/template_manager.h"
#include "src/core/worker_template.h"
#include "src/runtime/instantiation_pipeline.h"

namespace nimbus::core {
namespace {

constexpr int kPartitions = 12;
constexpr int kWorkers = 4;

ObjectBytesFn Bytes() {
  return [](LogicalObjectId o) -> std::int64_t {
    return 64 + static_cast<std::int64_t>(o.value());
  };
}

// An LR-shaped block: per-partition map tasks reading a broadcast object, one reduce per
// worker, one update rewriting the broadcast object (exercises copies, preconditions, and
// the self-validation pass).
TemplateId CaptureBlock(TemplateManager* manager) {
  const LogicalObjectId coeff(1000);
  const TemplateId id = manager->BeginCapture("determinism");
  for (int q = 0; q < kPartitions; ++q) {
    manager->CaptureTask(FunctionId(0),
                         {LogicalObjectId(static_cast<std::uint64_t>(q)), coeff},
                         {LogicalObjectId(100 + static_cast<std::uint64_t>(q))}, q,
                         sim::Millis(1), false, {});
  }
  for (int g = 0; g < kWorkers; ++g) {
    std::vector<LogicalObjectId> reads;
    for (int q = g; q < kPartitions; q += kWorkers) {
      reads.push_back(LogicalObjectId(100 + static_cast<std::uint64_t>(q)));
    }
    manager->CaptureTask(FunctionId(1), std::move(reads),
                         {LogicalObjectId(200 + static_cast<std::uint64_t>(g))}, g,
                         sim::Micros(50), false, {});
  }
  std::vector<LogicalObjectId> finals;
  for (int g = 0; g < kWorkers; ++g) {
    finals.push_back(LogicalObjectId(200 + static_cast<std::uint64_t>(g)));
  }
  manager->CaptureTask(FunctionId(2), std::move(finals), {coeff}, 0, sim::Micros(80), true,
                       {});
  manager->FinishCapture();
  return id;
}

Assignment TestAssignment() {
  std::vector<WorkerId> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.push_back(WorkerId(static_cast<std::uint64_t>(w)));
  }
  return Assignment::RoundRobin(kPartitions, workers);
}

void ExpectEntriesEqual(const WtEntry& a, const WtEntry& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.function, b.function);
  EXPECT_EQ(a.global_entry, b.global_entry);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.returns_scalar, b.returns_scalar);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.copy_index, b.copy_index);
  EXPECT_EQ(a.peer, b.peer);
  EXPECT_EQ(a.object, b.object);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.before, b.before);
  EXPECT_EQ(a.dead, b.dead);
}

void ExpectSetsIdentical(const WorkerTemplateSet& a, const WorkerTemplateSet& b) {
  ASSERT_EQ(a.halves().size(), b.halves().size());
  for (std::size_t h = 0; h < a.halves().size(); ++h) {
    const WorkerHalf& ha = a.halves()[h];
    const WorkerHalf& hb = b.halves()[h];
    EXPECT_EQ(ha.worker, hb.worker);
    ASSERT_EQ(ha.entries.size(), hb.entries.size()) << "half " << h;
    for (std::size_t e = 0; e < ha.entries.size(); ++e) {
      ExpectEntriesEqual(ha.entries[e], hb.entries[e]);
    }
  }

  ASSERT_EQ(a.preconditions().size(), b.preconditions().size());
  auto ita = a.preconditions().begin();
  auto itb = b.preconditions().begin();
  for (; ita != a.preconditions().end(); ++ita, ++itb) {
    EXPECT_EQ(ita->pre.object, itb->pre.object);
    EXPECT_EQ(ita->pre.worker, itb->pre.worker);
    EXPECT_EQ(ita->refcount, itb->refcount);
  }

  ASSERT_EQ(a.write_deltas().size(), b.write_deltas().size());
  for (std::size_t i = 0; i < a.write_deltas().size(); ++i) {
    EXPECT_EQ(a.write_deltas()[i].object, b.write_deltas()[i].object);
    EXPECT_EQ(a.write_deltas()[i].write_count, b.write_deltas()[i].write_count);
    EXPECT_EQ(a.write_deltas()[i].final_holders, b.write_deltas()[i].final_holders);
  }

  EXPECT_EQ(a.copy_count(), b.copy_count());
  EXPECT_EQ(a.self_validating(), b.self_validating());
}

TEST(ProjectionDeterminismTest, SameBlockSameAssignmentIsByteIdentical) {
  TemplateManager ma;
  TemplateManager mb;
  const TemplateId ta = CaptureBlock(&ma);
  const TemplateId tb = CaptureBlock(&mb);

  const WorkerTemplateSet set_a =
      ProjectBlock(*ma.Find(ta), TestAssignment(), WorkerTemplateId(0), Bytes());
  const WorkerTemplateSet set_b =
      ProjectBlock(*mb.Find(tb), TestAssignment(), WorkerTemplateId(0), Bytes());
  ExpectSetsIdentical(set_a, set_b);

  // A third projection from a manager that already projected once (warm interners and a
  // populated projection cache) must still match.
  const WorkerTemplateSet set_c =
      ProjectBlock(*ma.Find(ta), TestAssignment(), WorkerTemplateId(1), Bytes());
  ExpectSetsIdentical(set_a, set_c);
}

TEST(ProjectionDeterminismTest, PreconditionsAndDeltasAreSorted) {
  TemplateManager manager;
  const TemplateId id = CaptureBlock(&manager);
  const WorkerTemplateSet set =
      ProjectBlock(*manager.Find(id), TestAssignment(), WorkerTemplateId(0), Bytes());

  const Precondition* prev = nullptr;
  for (const auto& [pre, refcount] : set.preconditions()) {
    EXPECT_GT(refcount, 0);
    if (prev != nullptr) {
      const bool ordered =
          prev->object < pre.object ||
          (prev->object == pre.object && prev->worker < pre.worker);
      EXPECT_TRUE(ordered) << "preconditions out of (object, worker) order";
    }
    prev = &pre;
  }

  for (std::size_t i = 1; i < set.write_deltas().size(); ++i) {
    EXPECT_LT(set.write_deltas()[i - 1].object, set.write_deltas()[i].object);
  }
  for (const WriteDelta& delta : set.write_deltas()) {
    EXPECT_FALSE(delta.final_holders.empty());
  }
}

TEST(ProjectionDeterminismTest, ValidationIdenticalAcrossEquivalentProjections) {
  TemplateManager ma;
  TemplateManager mb;
  const TemplateId ta = CaptureBlock(&ma);
  const TemplateId tb = CaptureBlock(&mb);
  const WorkerTemplateSet set_a =
      ProjectBlock(*ma.Find(ta), TestAssignment(), WorkerTemplateId(0), Bytes());
  const WorkerTemplateSet set_b =
      ProjectBlock(*mb.Find(tb), TestAssignment(), WorkerTemplateId(0), Bytes());

  // An empty version map fails every created-object precondition the same way for both.
  VersionMap versions;
  versions.CreateObject(LogicalObjectId(1000), WorkerId(3));  // broadcast object elsewhere
  // One pipeline per set: both projections carry id 0, and the pipeline caches set plans
  // by set id.
  runtime::InstantiationPipeline pipeline_a;
  runtime::InstantiationPipeline pipeline_b;
  const auto needed_a = pipeline_a.Validate(set_a, versions);
  const auto needed_b = pipeline_b.Validate(set_b, versions);
  ASSERT_EQ(needed_a.size(), needed_b.size());
  for (std::size_t i = 0; i < needed_a.size(); ++i) {
    EXPECT_EQ(needed_a[i].object, needed_b[i].object);
    EXPECT_EQ(needed_a[i].src, needed_b[i].src);
    EXPECT_EQ(needed_a[i].dst, needed_b[i].dst);
    EXPECT_EQ(needed_a[i].bytes, needed_b[i].bytes);
  }
}

}  // namespace
}  // namespace nimbus::core
