// Table 4 — Sharded instantiation scaling (no paper counterpart; DESIGN.md §7).
//
// Measures one full engine-driven instantiation of the 8000-task micro block — sharded
// full validation, patch application, sharded version-map delta application, and
// per-worker message assembly — as a function of shard count × executor. This is the
// dynamic-control-flow path (Table 2's 7.3µs/task row): every iteration first dirties the
// broadcast object's residency (as a preceding foreign block would), so validation finds
// ~100 stale replicas and the patch machinery really runs.
//
// Throughput accounting: the primary counter is modeled, not measured. Every executor times
// each job with the thread CPU clock and accumulates a per-batch critical path
// (max(longest job, busy/concurrency), the greedy-schedule lower bound). The primary
// `instantiations_per_s` counter models the run at full shard parallelism: measured wall
// time with the serialized job time swapped for the measured critical path.
// `wall_instantiations_per_s` is the raw wall rate on the cores the host has (the JSON
// context's `num_cpus`), reported alongside so the modeling is visible, and
// `parallel_efficiency` reports how balanced the shard decomposition actually was.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/common/tracing.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"
#include "src/runtime/executor.h"
#include "src/runtime/instantiation_pipeline.h"
#include "src/runtime/sharded_version_map.h"

namespace nimbus::bench {
namespace {

constexpr int kWorkers = 100;
constexpr int kPartitions = 7899;
constexpr double kTasks = 8000.0;

// One engine-driven instantiation as the controller sequences the stages: validate ->
// patch every failure (no patch cache) -> apply -> [assemble || validate `next`].
struct Instantiation {
  std::size_t directives = 0;
  std::vector<runtime::WorkerMessage> messages;
  std::vector<core::PatchDirective> next_required;
};

Instantiation Instantiate(runtime::InstantiationPipeline* pipeline,
                          const core::WorkerTemplateSet& set, VersionMap* versions,
                          const core::WorkerTemplateSet* next = nullptr) {
  Instantiation out;
  core::Patch patch;
  patch.directives = pipeline->Validate(set, *versions);
  out.directives = patch.size();
  pipeline->ApplyEffects(set, patch, versions);
  out.messages = pipeline->AssembleMessages(set, {}, nullptr, next, versions,
                                            next != nullptr ? &out.next_required : nullptr);
  return out;
}

// arg0 = shard count, arg1 = thread-pool threads (0 => InlineExecutor).
void BM_EngineInstantiate(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));

  auto block = BuildMicroBlock(kPartitions, kWorkers);
  const core::ControllerTemplate* tmpl = block->manager.Find(block->template_id);
  core::WorkerTemplateSet set =
      core::ProjectBlock(*tmpl, block->assignment, WorkerTemplateId(0), ConstantBytes(80));
  VersionMap versions;
  SeedVersions(*block, &versions);

  std::unique_ptr<runtime::Executor> executor;
  if (threads == 0) {
    executor = std::make_unique<runtime::InlineExecutor>();
  } else {
    executor = std::make_unique<runtime::ThreadPoolExecutor>(threads);
  }
  runtime::InstantiationPipeline pipeline(executor.get(), shards);

  // Prime once so the shard plan and compiled instantiation are cached (steady state).
  Instantiate(&pipeline, set, &versions);
  executor->ClearCounters();
  pipeline.ClearCounters();

  std::size_t directives = 0;
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    // A foreign block wrote the broadcast object: every other worker's replica goes stale,
    // so this instantiation must patch ~(workers-1) copies back into place.
    versions.RecordWrite(block->coeff, block->assignment.WorkerFor(0));
    const Instantiation outcome = Instantiate(&pipeline, set, &versions);
    directives = outcome.directives;
    benchmark::DoNotOptimize(outcome.messages.data());
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  const ExecutorCounters& ec = executor->counters();
  const double barrier_wall_s = static_cast<double>(ec.wall_ns) * 1e-9;
  const double cp_s = static_cast<double>(ec.critical_path_ns) * 1e-9;
  // Model: each barrier's wall time (which on one core is the serialized jobs plus
  // scheduler churn) replaced by its measured critical path; serial sections between
  // barriers stay at face value. For the inline executor cp == serialized jobs, so this
  // is within noise of the raw wall rate.
  const double modeled_s = wall_s - barrier_wall_s + cp_s;
  const double iters = static_cast<double>(state.iterations());

  state.counters["instantiations_per_s"] = modeled_s > 0.0 ? iters / modeled_s : 0.0;
  state.counters["wall_instantiations_per_s"] = wall_s > 0.0 ? iters / wall_s : 0.0;
  state.counters["tasks_per_s_modeled"] = modeled_s > 0.0 ? iters * kTasks / modeled_s : 0.0;
  state.counters["parallel_efficiency"] = ec.ParallelEfficiency(executor->concurrency());
  state.counters["executor_jobs"] = static_cast<double>(ec.jobs_run);
  state.counters["executor_batches"] = static_cast<double>(ec.batches);
  state.counters["executor_steals"] = static_cast<double>(ec.steals);
  state.counters["patch_directives"] = static_cast<double>(directives);
  ReportPerTaskTime(state, kTasks);
}
BENCHMARK(BM_EngineInstantiate)
    ->ArgNames({"shards", "threads"})
    // InlineExecutor (the simulator's configuration) across shard counts: the engine must
    // not tax the flat path.
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    // ThreadPoolExecutor with 3 pool threads + the submitting thread = 4 lanes, matching
    // the 4-shard decomposition: the shard-scaling claim (>=2x at 4 shards vs 1 shard).
    ->Args({1, 3})
    ->Args({2, 3})
    ->Args({4, 3})
    ->Args({8, 3})
    ->Unit(benchmark::kMillisecond);

// The overlap lever (ROADMAP "async controller loop"): block N+1's validation rides block
// N's assembly batch. Alternates two projections of the same template so every iteration
// both assembles and pre-validates.
void BM_EngineInstantiateOverlapped(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));

  auto block = BuildMicroBlock(kPartitions, kWorkers);
  const core::ControllerTemplate* tmpl = block->manager.Find(block->template_id);
  core::WorkerTemplateSet set_a =
      core::ProjectBlock(*tmpl, block->assignment, WorkerTemplateId(0), ConstantBytes(80));
  core::WorkerTemplateSet set_b =
      core::ProjectBlock(*tmpl, block->assignment, WorkerTemplateId(1), ConstantBytes(80));
  VersionMap versions;
  SeedVersions(*block, &versions);

  std::unique_ptr<runtime::Executor> executor;
  if (threads == 0) {
    executor = std::make_unique<runtime::InlineExecutor>();
  } else {
    executor = std::make_unique<runtime::ThreadPoolExecutor>(threads);
  }
  runtime::InstantiationPipeline pipeline(executor.get(), shards);
  Instantiate(&pipeline, set_a, &versions);
  executor->ClearCounters();

  bool flip = false;
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const core::WorkerTemplateSet& current = flip ? set_b : set_a;
    const core::WorkerTemplateSet& next = flip ? set_a : set_b;
    const Instantiation outcome = Instantiate(&pipeline, current, &versions, &next);
    benchmark::DoNotOptimize(outcome.next_required.data());
    flip = !flip;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  const ExecutorCounters& ec = executor->counters();
  const double modeled_s = wall_s - static_cast<double>(ec.wall_ns) * 1e-9 +
                           static_cast<double>(ec.critical_path_ns) * 1e-9;
  const double iters = static_cast<double>(state.iterations());
  state.counters["instantiations_per_s"] = modeled_s > 0.0 ? iters / modeled_s : 0.0;
  state.counters["parallel_efficiency"] = ec.ParallelEfficiency(executor->concurrency());
  ReportPerTaskTime(state, kTasks);
}
BENCHMARK(BM_EngineInstantiateOverlapped)
    ->ArgNames({"shards", "threads"})
    ->Args({4, 0})
    ->Args({4, 3})
    ->Unit(benchmark::kMillisecond);

// End-to-end pipelined controller loop (DESIGN.md §9): the overlap above, driven from the
// REAL controller loop through the driver's lookahead hints instead of the engine harness.
// Two alternating template blocks (every transition is a block change, so the full
// precondition sweep runs and the model broadcast patches every time) with tiny task
// durations, so the loop is control-plane-bound like Fig 8. The primary counter is
// sim_tasks_per_s — dispatched tasks over elapsed *virtual* time. A fixed iteration count
// and a hinted warm block (so every timed block can hit) make it deterministic and
// independent of the bench host. lookahead=1 should beat lookahead=0 by >=1.5x.
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

  state.counters["sim_tasks_per_s"] = sim_s > 0.0 ? tasks / sim_s : 0.0;
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
    // Driver lookahead: block N+1's sweep rides block N's assembly batch.
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nimbus::bench

int main(int argc, char** argv) {
  std::printf(
      "Table 4 (this reproduction; no paper counterpart): engine-driven instantiation\n"
      "throughput vs shard count x executor. Every iteration runs the dynamic-control-flow\n"
      "path: sharded full validation of all preconditions, patching of ~100 stale broadcast\n"
      "replicas, sharded version-map delta application, per-worker message assembly.\n"
      "instantiations_per_s models full shard parallelism from per-job thread-CPU critical\n"
      "paths; wall_instantiations_per_s is the raw wall rate on the host's cores.\n"
      "Expect >=2x modeled throughput at shards=4/threads=4 vs shards=1/threads=4, and\n"
      "shards=1/threads=0 (inline) to match the flat path.\n"
      "BM_ControllerLoopPipelined drives the same overlap from the REAL controller loop\n"
      "(driver lookahead hints, DESIGN.md 9): sim_tasks_per_s is dispatched tasks over\n"
      "elapsed VIRTUAL time (deterministic). Expect lookahead=1 >= 1.5x lookahead=0.\n\n");
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
  return 0;
}
