// End-to-end correctness: the distributed logistic regression must match a sequential
// reference bit-for-bit across all control-plane modes, iteration counts and cluster sizes.

#include <gtest/gtest.h>

#include <cstdint>

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
  config.dim = 6;
  config.rows_per_partition = 16;
  config.virtual_bytes_total = 64LL * 1000 * 1000;
  return config;
}

// gtest prints this struct's raw bytes into each test's name (and so its ctest name).
// `reserved` fills what would otherwise be padding between `mode` and `name`, so those
// bytes are always zero instead of whatever the stack held when the cases were built.
struct ModeCase {
  ControlMode mode;
  std::uint32_t reserved;
  const char* name;
};
static_assert(sizeof(ModeCase) == 16, "ModeCase must have no padding");

class LrEndToEndTest : public ::testing::TestWithParam<ModeCase> {};

TEST_P(LrEndToEndTest, MatchesSequentialReference) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = GetParam().mode;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp::Config config = SmallConfig(8, 4);
  LogisticRegressionApp app(&job, config);
  app.Setup();

  const int iters = 6;
  double norm = app.RunInnerLoop(iters);
  EXPECT_GT(norm, 0.0);

  const std::vector<double> expected =
      LogisticRegressionApp::ReferenceInnerLoop(config, iters);
  const std::vector<double> actual = app.CoeffSnapshot();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    EXPECT_DOUBLE_EQ(expected[d], actual[d]) << "coefficient " << d;
  }
}

TEST_P(LrEndToEndTest, GradientNormDecreases) {
  ClusterOptions options;
  options.workers = 3;
  options.partitions = 6;
  options.mode = GetParam().mode;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig(6, 3));
  app.Setup();

  double first = app.RunInnerIteration().FirstScalar();
  double last = first;
  for (int i = 0; i < 9; ++i) {
    last = app.RunInnerIteration().FirstScalar();
  }
  EXPECT_LT(last, first) << "gradient descent is not converging";
}

TEST_P(LrEndToEndTest, NestedLoopRunsDataDependentBranches) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = GetParam().mode;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig(8, 4));
  app.Setup();

  const auto result = app.RunNestedLoop(/*threshold_g=*/0.05, /*threshold_e=*/1e-9,
                                        /*max_inner=*/20, /*max_outer=*/3);
  EXPECT_EQ(result.outer_iterations, 3);
  EXPECT_GT(result.total_inner_iterations, 3);
  EXPECT_GT(result.final_error, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, LrEndToEndTest,
    ::testing::Values(ModeCase{ControlMode::kTemplates, 0, "templates"},
                      ModeCase{ControlMode::kCentralOnly, 0, "central"},
                      ModeCase{ControlMode::kStaticDataflow, 0, "dataflow"}),
    [](const ::testing::TestParamInfo<ModeCase>& param_info) {
      return param_info.param.name;
    });

// Sweep cluster geometries with templates: uneven partition/worker ratios, single worker,
// more groups than workers.
struct Geometry {
  int workers;
  int partitions;
  int groups;
};

class LrGeometryTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(LrGeometryTest, MatchesReferenceAcrossGeometries) {
  const Geometry geom = GetParam();
  ClusterOptions options;
  options.workers = geom.workers;
  options.partitions = geom.partitions;
  options.mode = ControlMode::kTemplates;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp::Config config = SmallConfig(geom.partitions, geom.groups);
  LogisticRegressionApp app(&job, config);
  app.Setup();
  app.RunInnerLoop(5);

  const auto expected = LogisticRegressionApp::ReferenceInnerLoop(config, 5);
  const auto actual = app.CoeffSnapshot();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    EXPECT_DOUBLE_EQ(expected[d], actual[d]);
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, LrGeometryTest,
                         ::testing::Values(Geometry{1, 4, 2}, Geometry{2, 8, 4},
                                           Geometry{3, 7, 3}, Geometry{4, 8, 8},
                                           Geometry{5, 20, 5}, Geometry{8, 8, 2}),
                         [](const ::testing::TestParamInfo<Geometry>& param_info) {
                           return "w" + std::to_string(param_info.param.workers) + "_p" +
                                  std::to_string(param_info.param.partitions) + "_g" +
                                  std::to_string(param_info.param.groups);
                         });

}  // namespace
}  // namespace nimbus
