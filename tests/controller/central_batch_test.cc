// The central dispatch path (DESIGN.md §8).
//
// Every submitted stage compiles into a cached stage plan and runs through the
// instantiation pipeline; dispatch then sends one message per task or one serialized batch
// per worker. Cost accounting and message count change with the wire form; the
// worker-observed command streams, the version-map state, and the computed results must
// NOT. These tests pin that equivalence against the per-task run, and cover the stage-plan
// cache (keyed by stage identity + schedule) that both wire forms share.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/apps/logistic_regression.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"

namespace nimbus {
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

// Everything one central-mode LR run observably produced: the per-worker explicit-command
// streams, the final version-map state, the converged coefficients, and the dispatch
// counter.
struct CentralRun {
  std::vector<double> coeffs;
  VersionMap::SnapshotState snapshot;
  std::map<WorkerId, std::vector<Command>> logs;
  std::uint64_t tasks_dispatched = 0;
  std::uint64_t stage_plan_hits = 0;
  std::uint64_t stage_plan_misses = 0;
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
  app.RunOuterIteration();  // a second distinct stage shape through the plan cache
  app.RunInnerLoop(2);

  CentralRun run;
  run.coeffs = app.CoeffSnapshot();
  run.snapshot = cluster.controller().versions().Snapshot();
  for (WorkerId id : cluster.worker_ids()) {
    run.logs[id] = cluster.worker(id)->command_log();
  }
  run.tasks_dispatched = cluster.controller().tasks_dispatched();
  const CacheCounters& sp = cluster.controller().templates().stage_plan_counters();
  run.stage_plan_hits = sp.hits;
  run.stage_plan_misses = sp.misses;
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

// The headline contract: batched (serialized) dispatch is bit-identical to per-task
// central dispatch — same per-worker command streams (ids, before-edges, params, copy
// ids), same version-map state, same results.
TEST(CentralBatchTest, BatchedDispatchBitIdenticalToPerTask) {
  ExpectRunsEqual(RunLrCentral(/*serialized=*/false), RunLrCentral(/*serialized=*/true),
                  "serialized");
}

// Steady-state central dispatch must hit the stage-plan cache: every stage shape is
// compiled once, then reused on each re-submission (kCentralOnly re-submits every
// iteration — exactly the redundant work the cache removes).
TEST(CentralBatchTest, StagePlanCacheCompilesEachStageShapeOnce) {
  const CentralRun run = RunLrCentral(/*serialized=*/true);
  // Misses = distinct stage shapes (setup stages + inner block stages + outer block
  // stages); every later submission of the same shape must hit.
  EXPECT_GT(run.stage_plan_hits, 0u);
  EXPECT_GT(run.stage_plan_misses, 0u);
  // 6 inner iterations of a 3-stage block alone re-submit 18 stages; only the first 3 may
  // miss. Setup and the outer block contribute a handful more distinct shapes.
  EXPECT_GE(run.stage_plan_hits, run.stage_plan_misses);
  // Per-task dispatch runs through the same plan cache: the wire form changes nothing
  // about which stage shapes compile and which reuse.
  const CentralRun per_task = RunLrCentral(/*serialized=*/false);
  EXPECT_EQ(per_task.stage_plan_hits, run.stage_plan_hits);
  EXPECT_EQ(per_task.stage_plan_misses, run.stage_plan_misses);
}

}  // namespace
}  // namespace nimbus
