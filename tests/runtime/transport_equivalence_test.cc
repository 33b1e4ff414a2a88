// Cross-transport equivalence (DESIGN.md §13): the same driver program run over the
// deterministic simulator network and over real loopback TCP must produce bit-identical
// results — final state, per-iteration scalars, and the exact command stream every worker
// observed. The control plane is transport-agnostic; these tests are the proof, over LR,
// k-means and watersim (whose worker-to-worker halo copies exercise the data plane).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/apps/kmeans.h"
#include "src/apps/logistic_regression.h"
#include "src/apps/watersim.h"
#include "src/common/serialize.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"
#include "src/task/command.h"

namespace nimbus {
namespace {

using apps::KMeansApp;
using apps::LogisticRegressionApp;
using apps::WaterSimApp;

struct RunOutput {
  std::vector<double> coefficients;  // the app's final state (LR/k-means coefficients)
  std::vector<double> iteration_scalars;
  std::vector<std::vector<Command>> command_logs;  // one per worker
};

ClusterOptions Options(TransportKind transport, ControlMode mode, int workers,
                       int partitions) {
  ClusterOptions options;
  options.workers = workers;
  options.partitions = partitions;
  options.mode = mode;
  options.transport = transport;
  options.enable_command_log = true;
  return options;
}

// Under TCP the workers' event loops ran concurrently with the driver; Quiesce
// establishes happens-before with every node before reading their state.
void CollectCommandLogs(Cluster* cluster, RunOutput* out) {
  cluster->Quiesce();
  for (WorkerId id : cluster->worker_ids()) {
    out->command_logs.push_back(cluster->worker(id)->command_log());
  }
}

LogisticRegressionApp::Config SmallConfig() {
  LogisticRegressionApp::Config config;
  config.partitions = 8;
  config.reduce_groups = 4;
  config.dim = 6;
  config.rows_per_partition = 16;
  config.virtual_bytes_total = 64LL * 1000 * 1000;
  return config;
}

RunOutput RunLr(TransportKind transport, ControlMode mode, bool serialized_batching,
                int iters) {
  ClusterOptions options = Options(transport, mode, 4, 8);
  options.serialized_batching = serialized_batching;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();

  RunOutput out;
  for (int i = 0; i < iters; ++i) {
    out.iteration_scalars.push_back(app.RunInnerIteration().FirstScalar());
  }
  CollectCommandLogs(&cluster, &out);
  out.coefficients = app.CoeffSnapshot();
  return out;
}

RunOutput RunKMeans(TransportKind transport, ControlMode mode, int iters) {
  Cluster cluster(Options(transport, mode, 4, 8));
  Job job(&cluster);

  KMeansApp::Config config;
  config.partitions = 8;
  config.reduce_groups = 4;
  config.dim = 3;
  config.clusters = 3;
  config.points_per_partition = 24;
  config.virtual_bytes_total = 64LL * 1000 * 1000;
  KMeansApp app(&job, config);
  app.Setup();

  RunOutput out;
  for (int i = 0; i < iters; ++i) {
    out.iteration_scalars.push_back(app.RunIteration().FirstScalar());
  }
  CollectCommandLogs(&cluster, &out);
  out.coefficients = app.CentroidSnapshot();
  return out;
}

// Two frames of the triply nested loop; every frame statistic is a scalar, the water
// volume is the final state.
RunOutput RunWaterSim(TransportKind transport, ControlMode mode) {
  Cluster cluster(Options(transport, mode, 3, 4));
  Job job(&cluster);

  WaterSimApp::Config config;
  config.partitions = 4;
  config.reduce_groups = 2;
  config.nx = 4;
  config.ny = 4;
  config.nz_local = 4;
  config.frame_duration = 0.4;
  config.max_substeps = 6;
  config.max_cg_iterations = 40;
  WaterSimApp app(&job, config);
  app.Setup();

  RunOutput out;
  for (int frame = 0; frame < 2; ++frame) {
    const WaterSimApp::FrameStats stats = app.RunFrame();
    out.iteration_scalars.insert(
        out.iteration_scalars.end(),
        {static_cast<double>(stats.substeps), static_cast<double>(stats.total_cg_iterations),
         stats.frame_time, stats.last_residual, stats.max_speed});
  }
  CollectCommandLogs(&cluster, &out);
  out.coefficients = {app.MeasureVolume()};
  return out;
}

// One worker, one object, and one block of `stages` single-task stages that each read and
// rewrite that object: a dependency chain as long as the block. The first three runs
// dispatch centrally (capture, projection, install); the fourth instantiates the template,
// which turns the whole chain into one group on the worker, whose completion cascade then
// walks all of it in one delivery. Each link adds its own increment, so the reported
// value counts every link. Returns that value after each run.
std::vector<double> RunChain(TransportKind transport, int stages) {
  Cluster cluster(Options(transport, ControlMode::kTemplates, 1, 1));
  Job job(&cluster);
  const VariableId x = job.DefineVariable("x", 1, 8);
  const auto step = [](TaskContext& ctx) {
    BlobReader r(ctx.params());
    auto& v = ctx.WriteVector(0, 1).values();
    v[0] += r.ReadDouble();
  };
  const FunctionId init = job.RegisterFunction(
      "init", [](TaskContext& ctx) { ctx.WriteVector(0, 1).values().assign(1, 1.0); });
  const FunctionId link = job.RegisterFunction("link", step);
  const FunctionId last = job.RegisterFunction("last", [step](TaskContext& ctx) {
    step(ctx);
    ctx.ReturnScalar(ctx.ReadVector(0).values()[0]);
  });

  StageDescriptor setup;
  setup.name = "init";
  TaskDescriptor init_task;
  init_task.function = init;
  init_task.writes = {ObjRef{x, 0}};
  init_task.placement_partition = 0;
  setup.tasks.push_back(std::move(init_task));
  job.RunStages({std::move(setup)});

  std::vector<StageDescriptor> chain;
  for (int s = 0; s < stages; ++s) {
    TaskDescriptor task;
    task.function = s + 1 == stages ? last : link;
    task.reads = {ObjRef{x, 0}};
    task.writes = {ObjRef{x, 0}};
    task.placement_partition = 0;
    task.duration = sim::Micros(1);
    task.returns_scalar = s + 1 == stages;
    BlobWriter w;
    w.WriteDouble(static_cast<double>(1 + s % 7));
    task.params = w.Take();
    StageDescriptor stage;
    stage.name = "s" + std::to_string(s);
    stage.tasks.push_back(std::move(task));
    chain.push_back(std::move(stage));
  }
  job.DefineBlock("chain", std::move(chain));
  std::vector<double> out;
  for (int run = 0; run < 4; ++run) {
    out.push_back(job.RunBlock("chain").FirstScalar());
  }
  return out;
}

void ExpectIdentical(const RunOutput& sim, const RunOutput& tcp) {
  // Scalars and coefficients: exact double equality, not tolerance — the arithmetic and
  // its order must be the same on both transports.
  ASSERT_EQ(sim.iteration_scalars.size(), tcp.iteration_scalars.size());
  for (std::size_t i = 0; i < sim.iteration_scalars.size(); ++i) {
    EXPECT_EQ(sim.iteration_scalars[i], tcp.iteration_scalars[i]) << "iteration " << i;
  }
  ASSERT_EQ(sim.coefficients.size(), tcp.coefficients.size());
  for (std::size_t d = 0; d < sim.coefficients.size(); ++d) {
    EXPECT_EQ(sim.coefficients[d], tcp.coefficients[d]) << "coefficient " << d;
  }

  // Command logs: every worker observed the same commands in the same order, field by
  // field (Command::operator== compares all of them).
  ASSERT_EQ(sim.command_logs.size(), tcp.command_logs.size());
  for (std::size_t w = 0; w < sim.command_logs.size(); ++w) {
    EXPECT_FALSE(sim.command_logs[w].empty()) << "worker " << w << " saw no commands";
    ASSERT_EQ(sim.command_logs[w].size(), tcp.command_logs[w].size()) << "worker " << w;
    for (std::size_t c = 0; c < sim.command_logs[w].size(); ++c) {
      EXPECT_EQ(sim.command_logs[w][c], tcp.command_logs[w][c])
          << "worker " << w << " command " << c;
    }
  }
}

TEST(TransportEquivalenceTest, LrTemplatesBitIdenticalSimVsTcp) {
  const RunOutput sim = RunLr(TransportKind::kSim, ControlMode::kTemplates, false, 5);
  const RunOutput tcp = RunLr(TransportKind::kTcp, ControlMode::kTemplates, false, 5);
  ASSERT_FALSE(sim.iteration_scalars.empty());
  EXPECT_GT(sim.iteration_scalars.front(), 0.0);
  ExpectIdentical(sim, tcp);
}

TEST(TransportEquivalenceTest, LrCentralOnlyBitIdenticalSimVsTcp) {
  const RunOutput sim = RunLr(TransportKind::kSim, ControlMode::kCentralOnly, false, 3);
  const RunOutput tcp = RunLr(TransportKind::kTcp, ControlMode::kCentralOnly, false, 3);
  ExpectIdentical(sim, tcp);
}

TEST(TransportEquivalenceTest, LrSerializedBatchingBitIdenticalSimVsTcp) {
  const RunOutput sim = RunLr(TransportKind::kSim, ControlMode::kCentralOnly, true, 3);
  const RunOutput tcp = RunLr(TransportKind::kTcp, ControlMode::kCentralOnly, true, 3);
  ExpectIdentical(sim, tcp);
}

TEST(TransportEquivalenceTest, TcpMatchesSequentialReference) {
  // Not just self-consistency: the TCP run must match the model-free sequential
  // reference, like every simulator run does.
  const int iters = 4;
  const RunOutput tcp = RunLr(TransportKind::kTcp, ControlMode::kTemplates, false, iters);
  const std::vector<double> expected =
      LogisticRegressionApp::ReferenceInnerLoop(SmallConfig(), iters);
  ASSERT_EQ(expected.size(), tcp.coefficients.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    EXPECT_DOUBLE_EQ(expected[d], tcp.coefficients[d]) << "coefficient " << d;
  }
}

TEST(TransportEquivalenceTest, KMeansTemplatesBitIdenticalSimVsTcp) {
  const RunOutput sim = RunKMeans(TransportKind::kSim, ControlMode::kTemplates, 4);
  const RunOutput tcp = RunKMeans(TransportKind::kTcp, ControlMode::kTemplates, 4);
  ASSERT_FALSE(sim.iteration_scalars.empty());
  EXPECT_GT(sim.iteration_scalars.front(), 0.0);
  ExpectIdentical(sim, tcp);
}

TEST(TransportEquivalenceTest, KMeansCentralOnlyBitIdenticalSimVsTcp) {
  const RunOutput sim = RunKMeans(TransportKind::kSim, ControlMode::kCentralOnly, 3);
  const RunOutput tcp = RunKMeans(TransportKind::kTcp, ControlMode::kCentralOnly, 3);
  ExpectIdentical(sim, tcp);
}

TEST(TransportEquivalenceTest, WaterSimTemplatesBitIdenticalSimVsTcp) {
  const RunOutput sim = RunWaterSim(TransportKind::kSim, ControlMode::kTemplates);
  const RunOutput tcp = RunWaterSim(TransportKind::kTcp, ControlMode::kTemplates);
  ASSERT_FALSE(sim.iteration_scalars.empty());
  EXPECT_GT(sim.iteration_scalars.front(), 1.0) << "a frame takes several substeps";
  ExpectIdentical(sim, tcp);
}

TEST(TransportEquivalenceTest, WaterSimCentralOnlyBitIdenticalSimVsTcp) {
  const RunOutput sim = RunWaterSim(TransportKind::kSim, ControlMode::kCentralOnly);
  const RunOutput tcp = RunWaterSim(TransportKind::kTcp, ControlMode::kCentralOnly);
  ExpectIdentical(sim, tcp);
}

// A 10,000-link chain on one worker: over TCP its completion cascade runs inline on the
// worker's loop thread, so it must run as a loop (sim::RunInline's FIFO), not recurse once
// per link and overflow the thread's stack.
TEST(TransportEquivalenceTest, LongDependencyChainOnOneWorkerSimVsTcp) {
  constexpr int kStages = 10000;
  const std::vector<double> sim = RunChain(TransportKind::kSim, kStages);
  const std::vector<double> tcp = RunChain(TransportKind::kTcp, kStages);
  ASSERT_EQ(sim.size(), 4u);
  EXPECT_EQ(sim[3] - sim[2], sim[1] - sim[0]) << "every run adds the whole chain";
  EXPECT_EQ(sim, tcp);
}

}  // namespace
}  // namespace nimbus
