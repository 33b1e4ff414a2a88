// The pipelined controller loop (DESIGN.md §9), `runtime`-labeled so the CI sanitizer
// jobs race it.
//
// Controller-loop lookahead (driver hints + overlapped next-block validation) must be
// bit-identical to the serial loop: same version-map snapshots, same per-worker command
// streams (the worker log covers materialized instantiation groups), same scalar results,
// same converged coefficients. Only cost accounting may differ. A stale or wrong hint must
// fall back to the serial sweep without changing results.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/logistic_regression.h"
#include "src/common/rng.h"
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

apps::LogisticRegressionApp::Config SmallConfig() {
  apps::LogisticRegressionApp::Config config;
  config.partitions = 8;
  config.reduce_groups = 4;
  config.dim = 4;
  config.rows_per_partition = 8;
  config.virtual_bytes_total = 32LL * 1000 * 1000;
  return config;
}

// How the steady-state loop announces its next block (DESIGN.md §9.1).
enum class HintMode {
  kNone,       // serial controller loop: no lookahead ever schedules
  kAlternate,  // correct (current, next) pairs: every steady transition overlaps
  kWrong,      // always hints the inner block: half the hints are stale and must miss
};

// Everything one alternating inner/outer LR run observably produced, plus the lookahead
// counters the assertions below inspect.
struct LoopRun {
  std::vector<double> coeffs;
  VersionMap::SnapshotState snapshot;
  std::map<WorkerId, std::vector<Command>> logs;
  std::vector<std::pair<std::uint64_t, double>> scalars;  // (task id, value) in run order
  std::uint64_t tasks_dispatched = 0;
  std::uint64_t lookaheads_scheduled = 0;
  std::uint64_t lookahead_hits = 0;
};

// Runs bring-up plus six steady inner/outer alternations — every steady transition is a
// block change, so validation really runs (and the inner block's broadcast precondition
// really patches) on every instantiation the lookahead covers.
LoopRun RunAlternatingLr(HintMode hints) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = ControlMode::kTemplates;
  Cluster cluster(options);
  for (WorkerId id : cluster.worker_ids()) {
    cluster.worker(id)->EnableCommandLog();
  }
  Job job(&cluster);

  apps::LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();

  LoopRun run;
  auto record = [&run](const Job::RunResult& result) {
    for (const ScalarResult& s : result.scalars) {
      run.scalars.emplace_back(s.task.value(), s.value);
    }
  };

  // Bring-up: capture, projection, worker install for both blocks (no hints yet).
  for (int i = 0; i < 3; ++i) {
    record(app.RunInnerIteration());
    record(app.RunOuterIteration());
  }

  for (int i = 0; i < 6; ++i) {
    switch (hints) {
      case HintMode::kNone:
        break;
      case HintMode::kAlternate:
        job.HintNextBlock(app.OuterBlockName());
        break;
      case HintMode::kWrong:
        job.HintNextBlock(app.InnerBlockName());
        break;
    }
    record(app.RunInnerIteration());
    if (hints != HintMode::kNone) {
      job.HintNextBlock(app.InnerBlockName());
    }
    record(app.RunOuterIteration());
  }
  job.HintNextBlock(std::string());

  run.coeffs = app.CoeffSnapshot();
  run.snapshot = cluster.controller().versions().Snapshot();
  for (WorkerId id : cluster.worker_ids()) {
    run.logs[id] = cluster.worker(id)->command_log();
  }
  run.tasks_dispatched = cluster.controller().tasks_dispatched();
  run.lookaheads_scheduled = cluster.controller().lookaheads_scheduled();
  run.lookahead_hits = cluster.controller().lookahead_hits();
  return run;
}

void ExpectRunsEqual(const LoopRun& reference, const LoopRun& other,
                     const std::string& label) {
  ASSERT_EQ(reference.coeffs.size(), other.coeffs.size()) << label;
  for (std::size_t d = 0; d < reference.coeffs.size(); ++d) {
    EXPECT_DOUBLE_EQ(reference.coeffs[d], other.coeffs[d]) << label << " dim " << d;
  }
  EXPECT_TRUE(SnapshotsEqual(reference.snapshot, other.snapshot)) << label;
  EXPECT_EQ(reference.tasks_dispatched, other.tasks_dispatched) << label;
  ASSERT_EQ(reference.scalars.size(), other.scalars.size()) << label;
  for (std::size_t i = 0; i < reference.scalars.size(); ++i) {
    EXPECT_EQ(reference.scalars[i].first, other.scalars[i].first) << label << " scalar " << i;
    EXPECT_DOUBLE_EQ(reference.scalars[i].second, other.scalars[i].second)
        << label << " scalar " << i;
  }
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

// The headline contract: the overlapped controller loop is bit-identical to the serial
// one. With correct hints every steady-state transition schedules, and all but the first
// consume (the first hinted instantiation has nothing recorded yet).
TEST(PipelinedLoopTest, LookaheadOnVsOffBitEquality) {
  const LoopRun serial = RunAlternatingLr(HintMode::kNone);
  EXPECT_EQ(serial.lookaheads_scheduled, 0u);
  EXPECT_EQ(serial.lookahead_hits, 0u);
  ASSERT_FALSE(serial.scalars.empty());

  const LoopRun overlapped = RunAlternatingLr(HintMode::kAlternate);
  EXPECT_GE(overlapped.lookaheads_scheduled, 11u);  // 12 hinted runs, last hint unconsumed
  EXPECT_GE(overlapped.lookahead_hits, 10u);
  EXPECT_LE(overlapped.lookahead_hits, overlapped.lookaheads_scheduled);
  ExpectRunsEqual(serial, overlapped, "lookahead");
}

// A wrong hint names a block that is not instantiated next: the stamp check must refuse
// the overlapped result (set id mismatch) and fall back to the serial sweep — results
// unchanged, fewer hits than schedules.
TEST(PipelinedLoopTest, WrongHintFallsBackToSerialSweep) {
  const LoopRun serial = RunAlternatingLr(HintMode::kNone);
  const LoopRun wrong = RunAlternatingLr(HintMode::kWrong);
  EXPECT_GT(wrong.lookaheads_scheduled, 0u);
  EXPECT_LT(wrong.lookahead_hits, wrong.lookaheads_scheduled);
  ExpectRunsEqual(serial, wrong, "wrong-hint");
}

// Scheduling-change safety: edits planned between a hinted pair bump the target set's
// generation, so the consuming instantiation must reject the overlapped sweep (it ran
// against the pre-edit compiled arrays) and revalidate serially — results identical to
// the unhinted run with the same edits.
TEST(PipelinedLoopTest, EditsBetweenHintedBlocksInvalidateLookahead) {
  auto run_with_migrations = [](bool hints) {
    ClusterOptions options;
    options.workers = 4;
    options.partitions = 8;
    options.mode = ControlMode::kTemplates;
    Cluster cluster(options);
    Job job(&cluster);
    apps::LogisticRegressionApp app(&job, SmallConfig());
    app.Setup();
    for (int i = 0; i < 3; ++i) {
      app.RunInnerIteration();  // bring-up: both blocks reach the fast path
      app.RunOuterIteration();
    }
    Rng rng(1234);
    for (int i = 0; i < 4; ++i) {
      if (hints) {
        job.HintNextBlock(app.OuterBlockName());
      }
      app.RunInnerIteration();
      // Edit the hinted block AFTER its overlapped sweep was recorded: the consuming
      // instantiation carries edits and a bumped generation, so it must miss.
      cluster.controller().PlanRandomMigrations(app.OuterBlockName(), 1, &rng);
      if (hints) {
        job.HintNextBlock(app.InnerBlockName());
      }
      app.RunOuterIteration();
    }
    job.HintNextBlock(std::string());
    struct Result {
      std::vector<double> coeffs;
      VersionMap::SnapshotState snapshot;
      std::uint64_t hits;
      std::uint64_t scheduled;
    };
    return Result{app.CoeffSnapshot(), cluster.controller().versions().Snapshot(),
                  cluster.controller().lookahead_hits(),
                  cluster.controller().lookaheads_scheduled()};
  };

  const auto serial = run_with_migrations(false);
  const auto hinted = run_with_migrations(true);
  ASSERT_EQ(serial.coeffs.size(), hinted.coeffs.size());
  for (std::size_t d = 0; d < serial.coeffs.size(); ++d) {
    EXPECT_DOUBLE_EQ(serial.coeffs[d], hinted.coeffs[d]) << "dim " << d;
  }
  EXPECT_TRUE(SnapshotsEqual(serial.snapshot, hinted.snapshot));
  EXPECT_EQ(serial.hits, 0u);
  EXPECT_EQ(serial.scheduled, 0u);
  // The edited instantiations must all have missed; hits can only come from the
  // edit-free first run of each pair.
  EXPECT_LT(hinted.hits, hinted.scheduled);
}

// The driver-facing surface: RunBlockSequence hints every (current, next) pair, then
// clears the hint.
TEST(PipelinedLoopTest, JobHintApiAndRunBlockSequence) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = ControlMode::kTemplates;
  Cluster cluster(options);
  Job job(&cluster);
  apps::LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();

  // Bring both blocks to the fast path, then run a sequence: the controller must see the
  // successor of every element (3 overlappable transitions in a 4-element sequence).
  for (int i = 0; i < 3; ++i) {
    app.RunInnerIteration();
    app.RunOuterIteration();
  }
  const std::uint64_t scheduled_before = cluster.controller().lookaheads_scheduled();
  const Job::RunResult last = job.RunBlockSequence({{app.InnerBlockName(), {}},
                                                    {app.OuterBlockName(), {}},
                                                    {app.InnerBlockName(), {}},
                                                    {app.OuterBlockName(), {}}});
  EXPECT_FALSE(last.recovered);
  EXPECT_GE(cluster.controller().lookaheads_scheduled() - scheduled_before, 3u);

  // The sequence leaves no hint behind: an unhinted block after it schedules no overlap.
  const std::uint64_t scheduled_after = cluster.controller().lookaheads_scheduled();
  app.RunInnerIteration();
  EXPECT_EQ(cluster.controller().lookaheads_scheduled(), scheduled_after);
}

}  // namespace
}  // namespace nimbus
