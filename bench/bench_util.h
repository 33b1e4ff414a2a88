// Shared helpers for the figure/table reproduction benchmarks.

#ifndef NIMBUS_BENCH_BENCH_UTIL_H_
#define NIMBUS_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/logistic_regression.h"
#include "src/core/controller_template.h"
#include "src/core/template_manager.h"
#include "src/core/worker_template.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"

namespace nimbus::bench {

// Builds a pure-core LR-shaped basic block (P map tasks reading a broadcast object and a
// partition object, G level-1 reduces, 1 level-2 update) directly in a TemplateManager,
// without a cluster. Used by the Table 1-3 microbenchmarks to measure the real cost of the
// template data-structure operations.
struct MicroBlock {
  core::TemplateManager manager;
  TemplateId template_id;
  core::Assignment assignment;
  std::vector<LogicalObjectId> tdata, grad, gpartial;
  LogicalObjectId coeff, model;
  int tasks = 0;
};

inline std::unique_ptr<MicroBlock> BuildMicroBlock(int partitions, int workers) {
  auto block = std::make_unique<MicroBlock>();
  IdAllocator<LogicalObjectId> objects;
  const int groups = workers;

  block->coeff = objects.Next();
  block->model = objects.Next();
  for (int q = 0; q < partitions; ++q) {
    block->tdata.push_back(objects.Next());
    block->grad.push_back(objects.Next());
  }
  for (int g = 0; g < groups; ++g) {
    block->gpartial.push_back(objects.Next());
  }

  std::vector<WorkerId> ids;
  for (int w = 0; w < workers; ++w) {
    ids.push_back(WorkerId(static_cast<std::uint64_t>(w)));
  }
  block->assignment = core::Assignment::RoundRobin(partitions, ids);

  block->template_id = block->manager.BeginCapture("micro_lr");
  for (int q = 0; q < partitions; ++q) {
    block->manager.CaptureTask(FunctionId(0),
                               {block->tdata[static_cast<std::size_t>(q)], block->coeff,
                                block->model},
                               {block->grad[static_cast<std::size_t>(q)]}, q, sim::Millis(4),
                               false, {});
  }
  for (int g = 0; g < groups; ++g) {
    std::vector<LogicalObjectId> reads;
    for (int q = g; q < partitions; q += groups) {
      reads.push_back(block->grad[static_cast<std::size_t>(q)]);
    }
    block->manager.CaptureTask(FunctionId(1), std::move(reads),
                               {block->gpartial[static_cast<std::size_t>(g)]}, g,
                               sim::Micros(200), false, {});
  }
  {
    std::vector<LogicalObjectId> reads = block->gpartial;
    reads.push_back(block->coeff);
    reads.push_back(block->model);
    block->manager.CaptureTask(FunctionId(2), std::move(reads), {block->coeff}, 0,
                               sim::Micros(300), true, {});
  }
  block->manager.FinishCapture();
  block->tasks = partitions + groups + 1;
  return block;
}

inline core::ObjectBytesFn ConstantBytes(std::int64_t bytes) {
  return [bytes](LogicalObjectId) { return bytes; };
}

// Attaches the per-task cost counter the Table 1-3 benchmarks report: `tasks` units of work
// per iteration, inverted so the displayed value is time per task. Keeping every benchmark
// on this one helper makes the BENCH_*.json series (see bench/run_benchmarks.sh) comparable
// across PRs.
inline void ReportPerTaskTime(benchmark::State& state, double tasks,
                              const char* counter_name = "per_task_us") {
  // kIsRate | kInvert yields elapsed seconds / value: counting work in millionths of a task
  // makes the counter hold microseconds per task, as its name says.
  constexpr double kMicrosPerSecond = 1e6;
  state.counters[counter_name] = benchmark::Counter(
      static_cast<double>(state.iterations()) * tasks / kMicrosPerSecond,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// Populates a version map consistent with a fresh run of the micro block on its assignment
// (every precondition satisfied).
inline void SeedVersions(const MicroBlock& block, VersionMap* versions) {
  for (std::size_t q = 0; q < block.tdata.size(); ++q) {
    versions->CreateObject(block.tdata[q], block.assignment.WorkerFor(static_cast<int>(q)));
    versions->CreateObject(block.grad[q], block.assignment.WorkerFor(static_cast<int>(q)));
  }
  for (std::size_t g = 0; g < block.gpartial.size(); ++g) {
    versions->CreateObject(block.gpartial[g],
                           block.assignment.WorkerFor(static_cast<int>(g)));
  }
  versions->CreateObject(block.coeff, block.assignment.WorkerFor(0));
  versions->CreateObject(block.model, block.assignment.WorkerFor(0));
  // coeff/model must be "latest" everywhere the map tasks read them.
  for (WorkerId w : block.assignment.Workers()) {
    versions->RecordCopyToLatest(block.coeff, w);
    versions->RecordCopyToLatest(block.model, w);
  }
}

// ---- Table printing ----

inline void PrintHeader(const std::string& title) {
  std::printf("\n==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==================================================================\n");
}

inline void PrintRow3(const char* a, const char* b, const char* c) {
  std::printf("%-44s %14s %14s\n", a, b, c);
}

// Builds an LR job at paper scale for a given worker count (80 map tasks per worker).
struct LrHarness {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Job> job;
  std::unique_ptr<apps::LogisticRegressionApp> app;
};

// `options` carries any further cluster knobs (costs, controller switches); the worker
// count, partition space and mode are filled in here.
inline LrHarness MakeLrHarness(int workers, ControlMode mode, ClusterOptions options = {},
                               int tasks_per_worker = 79) {
  LrHarness h;
  options.workers = workers;
  options.partitions = tasks_per_worker * workers;
  options.mode = mode;
  h.cluster = std::make_unique<Cluster>(options);
  h.job = std::make_unique<Job>(h.cluster.get());
  apps::LogisticRegressionApp::Config config;
  config.partitions = options.partitions;
  config.reduce_groups = workers;
  config.rows_per_partition = 4;  // tiny real rows; durations are modeled
  h.app = std::make_unique<apps::LogisticRegressionApp>(h.job.get(), config);
  return h;
}

}  // namespace nimbus::bench

#endif  // NIMBUS_BENCH_BENCH_UTIL_H_
