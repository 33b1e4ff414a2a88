// Property-based differential test: random iterative programs must produce bit-identical
// data no matter which control plane executes them (templates vs central vs static
// dataflow) or which transport carries them (simulator vs TCP), and repeated runs must be
// deterministic.
//
// Programs are random but well-formed: every read is of an object initialized or already
// written, placements are random, stages chain through random subsets of variables, and one
// final stage folds everything into a checksum object. Task durations vary, so the
// simulator's modeled completion order differs from the submission order TCP nodes run in.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"

namespace nimbus {
namespace {

struct ProgramSpec {
  std::uint64_t seed;
  int workers;
  int partitions;
  int variables;
  int stages_per_block;
  int blocks;
  int iterations;
};

// Deterministically derives a random program from `spec`, builds it on `job`, runs it, and
// returns the final value of every object in the system.
std::map<std::uint64_t, std::vector<double>> BuildAndRun(Cluster* cluster, Job* job,
                                                         const ProgramSpec& spec) {
  Rng rng(spec.seed);
  // Durations draw from their own stream, so each seed's program shape does not depend on
  // them.
  Rng duration_rng(spec.seed * 7 + 3);
  const auto duration = [&duration_rng]() {
    constexpr sim::Duration kDurations[] = {sim::Micros(50), sim::Micros(200),
                                            sim::Micros(800)};
    return kDurations[duration_rng.NextBounded(3)];
  };
  const int p = spec.partitions;

  // One shared combine function: out[i] = sum over reads of (read[i] * weight) + bias.
  const FunctionId combine =
      job->RegisterFunction("combine", [](TaskContext& ctx) {
        BlobReader r(ctx.params());
        const double weight = r.ReadDouble();
        const double bias = r.ReadDouble();
        auto& out = ctx.WriteVector(0, 4).values();
        out.assign(4, bias);
        for (std::size_t i = 0; i < ctx.read_count(); ++i) {
          const auto& in = ctx.ReadVector(i).values();
          for (std::size_t j = 0; j < out.size() && j < in.size(); ++j) {
            out[j] += weight * in[j];
          }
        }
      });
  const FunctionId init = job->RegisterFunction("init", [](TaskContext& ctx) {
    BlobReader r(ctx.params());
    const double v = r.ReadDouble();
    ctx.WriteVector(0, 4).values().assign(4, v);
  });

  std::vector<VariableId> vars;
  for (int v = 0; v < spec.variables; ++v) {
    vars.push_back(job->DefineVariable("var" + std::to_string(v), p, 1000));
  }

  // Init stage: every object gets a seed-derived value.
  {
    std::vector<StageDescriptor> stages;
    StageDescriptor stage;
    stage.name = "init";
    for (int v = 0; v < spec.variables; ++v) {
      for (int q = 0; q < p; ++q) {
        TaskDescriptor task;
        task.function = init;
        task.writes = {ObjRef{vars[static_cast<std::size_t>(v)], q}};
        task.placement_partition = q;
        task.duration = duration();
        BlobWriter w;
        w.WriteDouble(static_cast<double>(v * 100 + q) + 0.5);
        task.params = w.Take();
        stage.tasks.push_back(std::move(task));
      }
    }
    stages.push_back(std::move(stage));
    job->RunStages(std::move(stages));
  }

  // Random blocks: each stage maps over all partitions of a target variable, reading 1-3
  // other (variable, partition) pairs with random cross-partition references.
  for (int b = 0; b < spec.blocks; ++b) {
    std::vector<StageDescriptor> stages;
    for (int s = 0; s < spec.stages_per_block; ++s) {
      StageDescriptor stage;
      stage.name = "b" + std::to_string(b) + "s" + std::to_string(s);
      const auto target = static_cast<std::size_t>(rng.NextBounded(vars.size()));
      const int n_reads = 1 + static_cast<int>(rng.NextBounded(3));
      for (int q = 0; q < p; ++q) {
        TaskDescriptor task;
        task.function = combine;
        for (int r = 0; r < n_reads; ++r) {
          const auto read_var = static_cast<std::size_t>(rng.NextBounded(vars.size()));
          const auto read_part =
              static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(p)));
          task.reads.push_back(ObjRef{vars[read_var], read_part});
        }
        task.writes = {ObjRef{vars[target], q}};
        task.placement_partition =
            static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(p)));
        task.duration = duration();
        BlobWriter w;
        w.WriteDouble(0.5 + 0.25 * static_cast<double>(rng.NextBounded(4)));
        w.WriteDouble(static_cast<double>(rng.NextBounded(10)));
        task.params = w.Take();
        stage.tasks.push_back(std::move(task));
      }
      stages.push_back(std::move(stage));
    }
    job->DefineBlock("block" + std::to_string(b), std::move(stages));
  }

  // Drive the blocks in a repetitive, interleaved pattern (what templates exploit).
  for (int it = 0; it < spec.iterations; ++it) {
    for (int b = 0; b < spec.blocks; ++b) {
      job->RunBlock("block" + std::to_string(b));
    }
  }

  // Collect every object's final value from its latest holder. Under TCP the nodes ran on
  // their own threads; Quiesce orders their last deliveries before these reads.
  cluster->Quiesce();
  std::map<std::uint64_t, std::vector<double>> result;
  for (VariableId var : vars) {
    const auto& info = cluster->directory().variable(var);
    for (LogicalObjectId obj : info.objects) {
      const WorkerId holder = cluster->controller().versions().AnyLatestHolder(obj);
      if (!holder.valid()) {
        continue;
      }
      Worker* worker = cluster->worker(holder);
      const auto* payload = dynamic_cast<const VectorPayload*>(worker->store().Get(obj));
      result[obj.value()] = payload->values();
    }
  }
  return result;
}

std::map<std::uint64_t, std::vector<double>> RunProgram(
    const ProgramSpec& spec, ControlMode mode, TransportKind transport = TransportKind::kSim) {
  ClusterOptions options;
  options.workers = spec.workers;
  options.partitions = spec.partitions;
  options.mode = mode;
  options.transport = transport;
  Cluster cluster(options);
  Job job(&cluster);
  return BuildAndRun(&cluster, &job, spec);
}

class RandomProgramTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramTest, AllControlPlanesAgree) {
  ProgramSpec spec;
  spec.seed = GetParam();
  Rng shape(spec.seed * 31 + 7);
  spec.workers = 2 + static_cast<int>(shape.NextBounded(4));
  spec.partitions = spec.workers * (1 + static_cast<int>(shape.NextBounded(3)));
  spec.variables = 3 + static_cast<int>(shape.NextBounded(4));
  spec.stages_per_block = 1 + static_cast<int>(shape.NextBounded(3));
  spec.blocks = 1 + static_cast<int>(shape.NextBounded(3));
  spec.iterations = 4;

  const auto with_templates = RunProgram(spec, ControlMode::kTemplates);
  const auto central = RunProgram(spec, ControlMode::kCentralOnly);
  const auto dataflow = RunProgram(spec, ControlMode::kStaticDataflow);
  const auto tcp_templates = RunProgram(spec, ControlMode::kTemplates, TransportKind::kTcp);
  const auto tcp_central = RunProgram(spec, ControlMode::kCentralOnly, TransportKind::kTcp);

  ASSERT_FALSE(with_templates.empty());
  EXPECT_EQ(with_templates, central);
  EXPECT_EQ(with_templates, dataflow);
  EXPECT_EQ(with_templates, tcp_templates);
  EXPECT_EQ(with_templates, tcp_central);
}

TEST_P(RandomProgramTest, RunsAreDeterministic) {
  ProgramSpec spec;
  spec.seed = GetParam();
  Rng shape(spec.seed * 31 + 7);
  spec.workers = 2 + static_cast<int>(shape.NextBounded(4));
  spec.partitions = spec.workers * (1 + static_cast<int>(shape.NextBounded(3)));
  spec.variables = 3 + static_cast<int>(shape.NextBounded(4));
  spec.stages_per_block = 1 + static_cast<int>(shape.NextBounded(3));
  spec.blocks = 1 + static_cast<int>(shape.NextBounded(3));
  spec.iterations = 3;

  const auto a = RunProgram(spec, ControlMode::kTemplates);
  const auto b = RunProgram(spec, ControlMode::kTemplates);
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

}  // namespace
}  // namespace nimbus
