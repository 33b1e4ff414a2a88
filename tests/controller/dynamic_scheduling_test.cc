// Dynamic scheduling correctness: results must stay bit-identical to the sequential
// reference while the controller evicts/restores workers and migrates tasks mid-job
// (the behaviors behind paper Figs 9 and 10).

#include <gtest/gtest.h>

#include "src/apps/logistic_regression.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"

namespace nimbus {
namespace {

using apps::LogisticRegressionApp;

LogisticRegressionApp::Config SmallConfig(int partitions, int groups) {
  LogisticRegressionApp::Config config;
  config.partitions = partitions;
  config.reduce_groups = groups;
  config.dim = 5;
  config.rows_per_partition = 12;
  config.virtual_bytes_total = 64LL * 1000 * 1000;
  return config;
}

TEST(DynamicSchedulingTest, EvictionAndRestoreKeepResultsExact) {
  ClusterOptions options;
  options.workers = 6;
  options.partitions = 12;
  options.mode = ControlMode::kTemplates;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp::Config config = SmallConfig(12, 6);
  LogisticRegressionApp app(&job, config);
  app.Setup();

  app.RunInnerLoop(4);  // warm: capture + install on the full cluster

  // Evict half of the workers; the data on them must be patched off and the block must be
  // re-projected onto the remaining three.
  std::vector<WorkerId> revoked = {WorkerId(3), WorkerId(4), WorkerId(5)};
  cluster.controller().RevokeWorkers(revoked);
  app.RunInnerLoop(3);

  // Bring them back: the cached 6-worker templates are revalidated and reused.
  cluster.controller().RestoreWorkers(revoked);
  app.RunInnerLoop(3);

  const auto expected = LogisticRegressionApp::ReferenceInnerLoop(config, 10);
  const auto actual = app.CoeffSnapshot();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    EXPECT_DOUBLE_EQ(expected[d], actual[d]) << "coefficient " << d;
  }
}

TEST(DynamicSchedulingTest, EvictionReusesCachedTemplatesOnRestore) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = ControlMode::kTemplates;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig(8, 4));
  app.Setup();
  app.RunInnerLoop(4);
  const std::size_t projections_before = cluster.controller().templates().projection_count();

  cluster.controller().RevokeWorkers({WorkerId(2), WorkerId(3)});
  app.RunInnerLoop(3);
  const std::size_t projections_evicted = cluster.controller().templates().projection_count();
  EXPECT_GT(projections_evicted, projections_before)
      << "the smaller schedule needs a new projection";

  cluster.controller().RestoreWorkers({WorkerId(2), WorkerId(3)});
  app.RunInnerLoop(3);
  EXPECT_EQ(cluster.controller().templates().projection_count(), projections_evicted)
      << "restoring reuses the cached projection (workers cache multiple templates)";
}

TEST(DynamicSchedulingTest, MigrationsKeepResultsExact) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 12;
  options.mode = ControlMode::kTemplates;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp::Config config = SmallConfig(12, 4);
  LogisticRegressionApp app(&job, config);
  app.Setup();
  app.RunInnerLoop(4);  // warm

  // Migrate a few tasks every other iteration for six more iterations.
  Rng rng(5);
  for (int i = 0; i < 6; ++i) {
    if (i % 2 == 0) {
      cluster.controller().PlanRandomMigrations(app.InnerBlockName(), 2, &rng);
    }
    app.RunInnerIteration();
  }

  const auto expected = LogisticRegressionApp::ReferenceInnerLoop(config, 10);
  const auto actual = app.CoeffSnapshot();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    EXPECT_DOUBLE_EQ(expected[d], actual[d]) << "coefficient " << d;
  }
  EXPECT_GT(cluster.controller().counters().migrations_planned, 0u);
}

TEST(DynamicSchedulingTest, MigrationsAreCheaperThanReinstall) {
  // The control-plane cost of edits must scale with the change, not the template size.
  auto run = [](bool migrate) {
    ClusterOptions options;
    options.workers = 8;
    options.partitions = 64;
    options.mode = ControlMode::kTemplates;
    Cluster cluster(options);
    Job job(&cluster);
    LogisticRegressionApp app(&job, SmallConfig(64, 8));
    app.Setup();
    app.RunInnerLoop(4);
    Rng rng(3);
    const sim::TimePoint start = cluster.simulation().now();
    for (int i = 0; i < 10; ++i) {
      if (migrate && i % 5 == 0) {
        cluster.controller().PlanRandomMigrations(app.InnerBlockName(), 3, &rng);
      }
      app.RunInnerIteration();
    }
    return sim::ToSeconds(cluster.simulation().now() - start);
  };

  const double base = run(false);
  const double with_migrations = run(true);
  EXPECT_LT(with_migrations, base * 1.6)
      << "a handful of edits must not cost anything like a re-installation";
}

TEST(DynamicSchedulingTest, StaticDataflowChargesReinstallForMigration) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 16;
  options.mode = ControlMode::kStaticDataflow;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig(16, 4));
  app.Setup();
  app.RunInnerLoop(3);

  Rng rng(9);
  const sim::Duration busy_before = cluster.controller().control_busy();
  cluster.controller().PlanRandomMigrations(app.InnerBlockName(), 1, &rng);
  const sim::Duration busy_after = cluster.controller().control_busy();
  // Naiad-style: any change costs a full dataflow installation.
  const auto tasks = static_cast<sim::Duration>(app.TasksPerInnerBlock());
  EXPECT_GE(busy_after - busy_before, cluster.costs().naiad_install_per_task * tasks);
  EXPECT_EQ(cluster.controller().counters().naiad_reinstalls, 1u);
}

}  // namespace
}  // namespace nimbus
