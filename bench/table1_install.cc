// Table 1 — Template installation costs (paper §5.2).
//
// Measures the *real* per-task cost of our implementation's template operations on the
// canonical micro-benchmark block (8000 tasks over 100 workers: 7900 gradient tasks, 100
// level-1 reduces, 1 update). The paper's EC2 numbers are printed for reference; absolute
// values differ across machines, but the orderings the paper relies on must hold:
//   install per-task  <<  centrally-schedule per-task   and   instantiation << install.

#include <benchmark/benchmark.h>

#include <utility>

#include "bench/bench_util.h"
#include "src/runtime/instantiation_pipeline.h"

namespace nimbus::bench {
namespace {

constexpr int kWorkers = 100;
constexpr int kPartitions = 7899;  // + 100 reduces + 1 update = 8000 tasks

// Paper Table 1 row: "Installing controller template — 25µs/task".
void BM_InstallControllerTemplate(benchmark::State& state) {
  for (auto _ : state) {
    auto block = BuildMicroBlock(kPartitions, kWorkers);
    benchmark::DoNotOptimize(block);
  }
  ReportPerTaskTime(state, 8000.0);
}
BENCHMARK(BM_InstallControllerTemplate)->Unit(benchmark::kMillisecond);

// Paper Table 1 row: "Installing worker template on controller — 15µs/task". This is the
// projection: full dependency analysis + copy insertion + precondition discovery.
void BM_InstallWorkerTemplateController(benchmark::State& state) {
  auto block = BuildMicroBlock(kPartitions, kWorkers);
  const core::ControllerTemplate* tmpl = block->manager.Find(block->template_id);
  for (auto _ : state) {
    core::WorkerTemplateSet set = core::ProjectBlock(*tmpl, block->assignment,
                                                     WorkerTemplateId(0), ConstantBytes(80));
    benchmark::DoNotOptimize(set);
  }
  ReportPerTaskTime(state, 8000.0);
}
BENCHMARK(BM_InstallWorkerTemplateController)->Unit(benchmark::kMillisecond);

// Paper Table 1 row: "Installing worker template on worker — 9µs/task". The worker-side
// install is caching the received table; we measure the structure copy + store.
void BM_InstallWorkerTemplateWorker(benchmark::State& state) {
  auto block = BuildMicroBlock(kPartitions, kWorkers);
  const core::ControllerTemplate* tmpl = block->manager.Find(block->template_id);
  core::WorkerTemplateSet set =
      core::ProjectBlock(*tmpl, block->assignment, WorkerTemplateId(0), ConstantBytes(80));
  for (auto _ : state) {
    std::vector<core::WorkerHalf> cached;
    cached.reserve(set.halves().size());
    for (const core::WorkerHalf& half : set.halves()) {
      cached.push_back(half);  // what OnInstallTemplate stores
    }
    benchmark::DoNotOptimize(cached);
  }
  ReportPerTaskTime(state, 8000.0);
}
BENCHMARK(BM_InstallWorkerTemplateWorker)->Unit(benchmark::kMillisecond);

// Paper Table 1 rows: "Nimbus schedule task — 134µs" / "Spark schedule task — 166µs". Our
// central path amortizes the projection across the stage; we measure the full ad-hoc
// dependency analysis + validation + patch resolution + effect application per task, which
// is the recurring data-structure work of scheduling one task centrally. The stages run on
// the instantiation pipeline, as in the controller.
void BM_CentralSchedulePerTask(benchmark::State& state) {
  auto block = BuildMicroBlock(kPartitions, kWorkers);
  const core::ControllerTemplate* tmpl = block->manager.Find(block->template_id);
  VersionMap versions;
  SeedVersions(*block, &versions);
  for (auto _ : state) {
    core::WorkerTemplateSet set = core::ProjectBlock(*tmpl, block->assignment,
                                                     WorkerTemplateId(0), ConstantBytes(80));
    // Every iteration's projection reuses id 0: a fresh pipeline drops the previous one's
    // cached set plan, so each schedule pays its own plan build, as an uncached projection
    // would.
    runtime::InstantiationPipeline pipeline;
    auto needed = pipeline.Validate(set, versions);
    core::Patch patch = block->manager.ResolvePatch(set, core::PatchCache::kEntryFromOutside,
                                                    versions, std::move(needed));
    benchmark::DoNotOptimize(patch);
    pipeline.ApplyEffects(set, patch, &versions);
  }
  ReportPerTaskTime(state, 8000.0);
}
BENCHMARK(BM_CentralSchedulePerTask)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nimbus::bench

int main(int argc, char** argv) {
  std::printf(
      "Table 1 (paper, EC2): install controller template 25us/task; worker template\n"
      "15us/task (controller) + 9us/task (worker); Nimbus central scheduling 134us/task;\n"
      "Spark 166us/task. Below: measured per-task costs of THIS implementation\n"
      "(per_task_us counter; orderings must match the paper, absolutes are machine-local).\n"
      "The simulated-cluster experiments charge the paper's calibrated constants.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
