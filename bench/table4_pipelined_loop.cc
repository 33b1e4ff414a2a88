// Table 4 — the pipelined controller loop (no paper counterpart; DESIGN.md §9).
//
// BM_ControllerLoopPipelined runs the real controller loop over two alternating template
// blocks, with and without the driver's lookahead hints, and reports dispatched tasks over
// elapsed virtual time (sim_tasks_per_s). The rate is deterministic: it comes from the
// simulator's cost model, not from the host. When both rows ran, the exit code gates the
// lookahead row at >=1.5x the serial row.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/common/tracing.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"

namespace nimbus::bench {
namespace {

// The minimum lookahead=1 / lookahead=0 ratio of sim_tasks_per_s.
constexpr double kMinLookaheadSpeedup = 1.5;

// sim_tasks_per_s of the last run of each row, by lookahead arg; 0 = the row did not run.
std::array<double, 2>& SimTasksPerS() {
  static std::array<double, 2> rates{};
  return rates;
}

// End-to-end pipelined controller loop (DESIGN.md §9), driven through the driver's lookahead
// hints. Two alternating template blocks (every transition is a block change, so the full
// precondition sweep runs and the model broadcast patches every time) with tiny task
// durations, so the loop is control-plane-bound like Fig 8. The primary counter is
// sim_tasks_per_s — dispatched tasks over elapsed *virtual* time. A fixed iteration count
// and a hinted warm block (so every timed block can hit) make it deterministic and
// independent of the bench host. main() gates lookahead=1 at >=1.5x lookahead=0.
void BM_ControllerLoopPipelined(benchmark::State& state) {
  const bool lookahead = state.range(0) != 0;
  constexpr int kLoopWorkers = 16;
  constexpr int kLoopPartitions = 128;

  ClusterOptions options;
  options.workers = kLoopWorkers;
  options.partitions = kLoopPartitions;
  options.mode = ControlMode::kTemplates;
  Cluster cluster(options);
  Job job(&cluster);

  const VariableId data = job.DefineVariable("data", kLoopPartitions, 1 << 16);
  const VariableId model = job.DefineVariable("model", 1, 1 << 12);
  const FunctionId touch = job.RegisterFunction("touch", [](TaskContext& ctx) {
    ctx.WriteVector(0, 4).values().assign(4, 1.0);
  });
  const FunctionId bump = job.RegisterFunction("bump", [](TaskContext& ctx) {
    auto& v = ctx.WriteVector(0, 4).values();
    v.assign(4, v.empty() ? 1.0 : v[0] + 1.0);
  });

  // Load: materialize every object once through the central path.
  {
    StageDescriptor load;
    load.name = "load";
    for (int q = 0; q < kLoopPartitions; ++q) {
      TaskDescriptor task;
      task.function = touch;
      task.writes = {ObjRef{data, q}};
      task.placement_partition = q;
      task.duration = sim::Micros(20);
      load.tasks.push_back(std::move(task));
    }
    TaskDescriptor init_model;
    init_model.function = bump;
    init_model.writes = {ObjRef{model, 0}};
    init_model.placement_partition = 0;
    init_model.duration = sim::Micros(20);
    load.tasks.push_back(std::move(init_model));
    job.RunStages({load});
  }

  // Two identical alternating blocks: P map tasks reading the model broadcast, one update
  // task advancing it (whose write stales every other worker's replica for the NEXT
  // block's preconditions).
  for (const char* name : {"even", "odd"}) {
    StageDescriptor map_stage;
    map_stage.name = std::string(name) + "_map";
    for (int q = 0; q < kLoopPartitions; ++q) {
      TaskDescriptor task;
      task.function = touch;
      task.reads = {ObjRef{model, 0}, ObjRef{data, q}};
      task.writes = {ObjRef{data, q}};
      task.placement_partition = q;
      task.duration = sim::Micros(20);
      map_stage.tasks.push_back(std::move(task));
    }
    StageDescriptor update_stage;
    update_stage.name = std::string(name) + "_update";
    TaskDescriptor task;
    task.function = bump;
    task.reads = {ObjRef{model, 0}};
    task.writes = {ObjRef{model, 0}};
    task.placement_partition = 0;
    task.duration = sim::Micros(20);
    update_stage.tasks.push_back(std::move(task));
    job.DefineBlock(name, {std::move(map_stage), std::move(update_stage)});
  }

  // Bring-up: capture, projection, worker install for both blocks.
  for (int i = 0; i < 3; ++i) {
    job.RunBlock("even");
    job.RunBlock("odd");
  }
  // Warm block: announces the first timed block, so every timed block, the first
  // included, can hit a lookahead.
  if (lookahead) {
    job.HintNextBlock("odd");
  }
  job.RunBlock("even");

  const sim::TimePoint sim_start = cluster.simulation().now();
  const std::uint64_t tasks_start = cluster.controller().tasks_dispatched();
  bool flip = true;
  for (auto _ : state) {
    if (lookahead) {
      job.HintNextBlock(flip ? "even" : "odd");
    }
    job.RunBlock(flip ? "odd" : "even");
    flip = !flip;
  }
  const double sim_s =
      sim::ToSeconds(cluster.simulation().now() - sim_start);
  const auto tasks =
      static_cast<double>(cluster.controller().tasks_dispatched() - tasks_start);

  const double sim_tasks_per_s = sim_s > 0.0 ? tasks / sim_s : 0.0;
  SimTasksPerS()[lookahead ? 1 : 0] = sim_tasks_per_s;
  state.counters["sim_tasks_per_s"] = sim_tasks_per_s;
  state.counters["sim_blocks_per_s"] =
      sim_s > 0.0 ? static_cast<double>(state.iterations()) / sim_s : 0.0;
  state.counters["lookaheads_scheduled"] =
      static_cast<double>(cluster.controller().lookaheads_scheduled());
  state.counters["lookahead_hits"] =
      static_cast<double>(cluster.controller().lookahead_hits());
}
BENCHMARK(BM_ControllerLoopPipelined)
    ->ArgName("lookahead")
    // Fixed, not time-chosen: the virtual-time rate must not depend on host speed.
    ->Iterations(4000)
    // The serial controller loop (the ROADMAP's "one block at a time" baseline).
    ->Arg(0)
    // Driver lookahead: block N+1's sweep runs in block N's assembly phase.
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nimbus::bench

int main(int argc, char** argv) {
  std::printf(
      "Table 4 (this reproduction; no paper counterpart): the pipelined controller loop\n"
      "(driver lookahead hints, DESIGN.md 9). sim_tasks_per_s is dispatched tasks over\n"
      "elapsed VIRTUAL time (deterministic). Gate: lookahead=1 >= %.1fx lookahead=0.\n\n",
      nimbus::bench::kMinLookaheadSpeedup);
  // --trace-out must be stripped before benchmark::Initialize (it rejects unknown flags).
  const char* trace_out = nullptr;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (trace_out != nullptr) {
    nimbus::trace::Tracer::Options topts;
    topts.ring_capacity = 1 << 20;
    nimbus::trace::Tracer::Get().Enable(topts);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (trace_out != nullptr &&
      !nimbus::trace::Tracer::Get().WriteChromeJson(trace_out)) {
    std::fprintf(stderr, "cannot write trace to %s\n", trace_out);
    return 1;
  }
  const std::array<double, 2>& rates = nimbus::bench::SimTasksPerS();
  if (rates[0] > 0.0 && rates[1] > 0.0) {
    const double speedup = rates[1] / rates[0];
    const bool ok = speedup >= nimbus::bench::kMinLookaheadSpeedup;
    std::printf("\nShape check: lookahead=1 %.2f vs lookahead=0 %.2f sim tasks/s = %.2fx "
                "(need >=%.1fx): %s\n",
                rates[1], rates[0], speedup, nimbus::bench::kMinLookaheadSpeedup,
                ok ? "REPRODUCED" : "NOT reproduced");
    return ok ? 0 : 1;
  }
  return 0;
}
