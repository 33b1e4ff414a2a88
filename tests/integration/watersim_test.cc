// Water-simulation proxy: nested data-dependent loops, CG convergence, determinism across
// control-plane modes, and template reuse across the five basic blocks.

#include <gtest/gtest.h>

#include "src/apps/watersim.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"

namespace nimbus {
namespace {

using apps::WaterSimApp;

WaterSimApp::Config SmallConfig() {
  WaterSimApp::Config config;
  config.partitions = 4;
  config.reduce_groups = 2;
  config.nx = 4;
  config.ny = 4;
  config.nz_local = 4;
  config.frame_duration = 0.4;
  config.max_substeps = 6;
  config.max_cg_iterations = 40;
  // Keep modeled durations small so simulated frames are quick in tests.
  config.advect_task = sim::Millis(2);
  config.small_task = sim::Millis(1);
  config.cg_task = sim::Micros(300);
  return config;
}

TEST(WaterSimTest, FrameRunsTriplyNestedLoop) {
  ClusterOptions options;
  options.workers = 2;
  options.partitions = 4;
  options.mode = ControlMode::kTemplates;
  Cluster cluster(options);
  Job job(&cluster);

  WaterSimApp app(&job, SmallConfig());
  app.Setup();

  const auto stats = app.RunFrame();
  EXPECT_GT(stats.substeps, 1) << "middle loop should take several CFL substeps";
  EXPECT_GT(stats.total_cg_iterations, stats.substeps)
      << "inner CG loop should iterate at least once per substep";
  EXPECT_GE(stats.frame_time, SmallConfig().frame_duration - 1e-9);
}

TEST(WaterSimTest, CgResidualConverges) {
  ClusterOptions options;
  options.workers = 2;
  options.partitions = 4;
  options.mode = ControlMode::kTemplates;
  Cluster cluster(options);
  Job job(&cluster);

  WaterSimApp::Config config = SmallConfig();
  WaterSimApp app(&job, config);
  app.Setup();

  const auto stats = app.RunFrame();
  EXPECT_LE(stats.last_residual, config.cg_tolerance)
      << "CG failed to converge within the iteration cap";
}

TEST(WaterSimTest, VolumeApproximatelyConserved) {
  ClusterOptions options;
  options.workers = 2;
  options.partitions = 4;
  options.mode = ControlMode::kTemplates;
  Cluster cluster(options);
  Job job(&cluster);

  WaterSimApp app(&job, SmallConfig());
  app.Setup();
  const double before = app.MeasureVolume();
  app.RunFrame();
  const double after = app.MeasureVolume();
  EXPECT_GT(before, 0.0);
  // The proxy's first-order advection is diffusive; allow generous drift but not collapse.
  EXPECT_GT(after, 0.3 * before);
  EXPECT_LT(after, 2.0 * before);
}

// The same program must take identical control-flow decisions (substeps, CG iterations) and
// produce identical physics no matter which control plane runs it — including both central
// wire forms, which share one stage-plan cache across watersim's data-dependent stages.
TEST(WaterSimTest, ControlFlowIdenticalAcrossModes) {
  auto run = [](ControlMode mode, bool serialized_batching = false) {
    ClusterOptions options;
    options.workers = 3;
    options.partitions = 4;
    options.mode = mode;
    options.serialized_batching = serialized_batching;
    Cluster cluster(options);
    Job job(&cluster);
    WaterSimApp app(&job, SmallConfig());
    app.Setup();
    auto stats = app.RunFrame();
    return std::make_tuple(stats.substeps, stats.total_cg_iterations, app.MeasureVolume(),
                           stats.max_speed);
  };

  const auto with_templates = run(ControlMode::kTemplates);
  const auto central = run(ControlMode::kCentralOnly);
  const auto central_serialized = run(ControlMode::kCentralOnly, /*serialized_batching=*/true);
  const auto dataflow = run(ControlMode::kStaticDataflow);
  EXPECT_EQ(with_templates, central);
  EXPECT_EQ(with_templates, central_serialized);
  EXPECT_EQ(with_templates, dataflow);
}

TEST(WaterSimTest, TemplatesAreReusedAcrossBlocks) {
  ClusterOptions options;
  options.workers = 2;
  options.partitions = 4;
  options.mode = ControlMode::kTemplates;
  Cluster cluster(options);
  Job job(&cluster);

  WaterSimApp app(&job, SmallConfig());
  app.Setup();
  app.RunFrame();
  app.RunFrame();

  // Five blocks captured; the CG inner block should have executed via the template path
  // many times (instantiations far outnumber installs).
  auto& controller = cluster.controller();
  EXPECT_GE(controller.templates().template_count(), 5u);
  EXPECT_GT(controller.tasks_via_templates(), 0u);
  // The patch cache should be taking hits: block transitions are repetitive.
  EXPECT_GT(controller.templates().patch_cache().hits(), 0u);
}

TEST(WaterSimTest, DefinesPaperScaleVariableCount) {
  ClusterOptions options;
  options.workers = 2;
  options.partitions = 4;
  Cluster cluster(options);
  Job job(&cluster);
  WaterSimApp app(&job, SmallConfig());
  app.Setup();
  // Paper §5.5: "21 different computational stages that access over 40 different variables".
  EXPECT_GE(cluster.directory().variable_count(), 40u);
}

}  // namespace
}  // namespace nimbus
