// Figure 1 — The control plane is a bottleneck in modern analytics workloads.
//
// Spark 2.0 MLlib logistic regression on 100 GB, 30-100 workers: computation time (black
// bars) shrinks with added workers, but control-plane overhead grows faster, so completion
// time *increases*. Reproduced with the Spark-style centralized baseline: tasks scale with
// workers (~80/worker), per-task durations model MLlib (4x JVM + 2x immutable-data copies
// over the C++ tasks), and the controller dispatches each task at ~166µs.
//
// Alongside the Spark reproduction, the Nimbus kCentralOnly baseline is reported twice —
// per-task dispatch and serialized dispatch, one pre-encoded buffer per worker per stage
// (DESIGN.md §8, §10) — so the figure separates how much of the central bottleneck is
// *per-task messaging* (recovered by batching) from what only templates recover.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/baselines/spark_opt.h"
#include "src/sim/virtual_time.h"

namespace nimbus::bench {
namespace {

// 100 GB of C++-speed LR work is ~33.6 core-seconds per iteration (calibrated in
// apps/logistic_regression.h); MLlib is 8x slower (paper §5.1).
constexpr double kCppCoreSeconds = 33.6;
constexpr double kMllibSlowdown = 8.0;
constexpr int kTasksPerWorker = 80;

// Mean completion seconds of one kCentralOnly LR iteration (C++-speed tasks; the point is
// the *control* trajectory, which the MLlib slowdown would only dilute).
double CentralIterationSeconds(int workers, bool serialized) {
  ClusterOptions options;
  options.serialized_batching = serialized;
  LrHarness h = MakeLrHarness(workers, ControlMode::kCentralOnly, options, kTasksPerWorker);
  h.app->Setup();
  h.app->RunInnerIteration();  // warm: stage plans compile, stores materialize
  const sim::TimePoint start = h.cluster->simulation().now();
  const int iters = 3;
  for (int i = 0; i < iters; ++i) {
    h.app->RunInnerIteration();
  }
  return sim::ToSeconds(h.cluster->simulation().now() - start) / iters;
}

void Run() {
  std::printf("Figure 1: Spark MLlib logistic regression, 100GB, 30-100 workers\n");
  std::printf("Paper completion times (s): 30w=1.44 40w=1.38 50w=1.33 60w=1.34 70w=1.38 "
              "80w=1.59 90w=1.64 100w=1.73\n\n");
  std::printf("%8s %8s %14s %14s %14s %14s %21s\n", "workers", "tasks", "computation_s",
              "control_s", "completion_s", "central_s", "central_serialized_s");

  double first_completion = 0.0;
  double first_compute = 0.0;
  double last_completion = 0.0;
  double last_compute = 0.0;
  double last_central = 0.0;
  double last_serialized = 0.0;
  for (int workers = 30; workers <= 100; workers += 10) {
    baselines::SparkOptConfig config;
    config.workers = workers;
    config.tasks_per_iteration = kTasksPerWorker * workers;
    config.task_duration =
        sim::Seconds(kCppCoreSeconds / config.tasks_per_iteration);
    config.task_slowdown = kMllibSlowdown;
    baselines::SparkOptRunner runner(config);
    const baselines::IterationStats stats = runner.Run(5);
    const double central = CentralIterationSeconds(workers, /*serialized=*/false);
    const double serialized = CentralIterationSeconds(workers, /*serialized=*/true);
    std::printf("%8d %8d %14.3f %14.3f %14.3f %14.3f %21.3f\n", workers,
                config.tasks_per_iteration, stats.compute_seconds, stats.control_seconds,
                stats.iteration_seconds, central, serialized);
    if (workers == 30) {
      first_completion = stats.iteration_seconds;
      first_compute = stats.compute_seconds;
    }
    last_completion = stats.iteration_seconds;
    last_compute = stats.compute_seconds;
    last_central = central;
    last_serialized = serialized;
  }

  std::printf("\nShape check: computation shrinks (%.3f -> %.3f s) while completion grows "
              "(%.3f -> %.3f s): %s\n",
              first_compute, last_compute, first_completion, last_completion,
              (last_compute < first_compute && last_completion > first_completion)
                  ? "REPRODUCED"
                  : "NOT reproduced");
  std::printf("Serialized central dispatch at 100 workers: %.3f s vs %.3f s per-task (%s)\n",
              last_serialized, last_central,
              last_serialized < last_central ? "batching recovers control overhead"
                                             : "UNEXPECTED: batching did not help");
}

}  // namespace
}  // namespace nimbus::bench

int main() {
  nimbus::bench::Run();
  return 0;
}
