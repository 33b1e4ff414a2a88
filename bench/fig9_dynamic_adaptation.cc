// Figure 9 — Dynamic adaptation timeline (paper §5.4).
//
// LR on 100 workers, 35 iterations:
//   iterations  1-9 : templates manually disabled -> central scheduling dominates (~1s+)
//   iteration   10  : driver enables templates; the block is captured while executing
//                     centrally (controller-template installation cost on top)
//   iteration   11  : controller generates its half of the worker templates, still
//                     dispatching tasks individually
//   iteration   12  : worker halves installed on the workers, still dispatching centrally
//   iterations 13-19: steady-state template instantiation (~60 ms)
//   iteration   20  : the cluster manager revokes 50 workers -> re-projection onto the
//                     smaller schedule (+ patches moving data off revoked workers)
//   iterations 21-29: steady state on 50 workers (~2x the work per worker)
//   iteration   30  : the 50 workers return -> the cached 100-worker templates are reused
//                     but must be explicitly validated once
//   iterations 31-35: steady state on 100 workers again.
//
// The shape check drives the exit code. Its bounds come from the paper's Fig 9 claims
// (§5.4), the same ones the banner prints, not from this binary's output:
//   * "2x after eviction": with half the workers gone each one does twice the work, so
//     the 50-worker steady state must sit within [1.5x, 2.5x] of the 100-worker one;
//   * after the workers return the cached 100-worker templates are reused after one
//     validation ("validation blip at 30"), so the restored steady state must come back
//     to the pre-revoke band: within ±10% of the pre-revoke steady state.
// Steady states are the medians of the last five iterations of each phase (15-19, 25-29,
// 31-35), so the one-off capture, re-projection and validation blips stay out of them.
//
// With --json PATH the series and the check are written as a JSON document
// (bench/run_benchmarks.sh commits it as BENCH_fig9.json). The clock is virtual: the
// simulator's cost model times every iteration, so the series is bit-reproducible.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace nimbus::bench {
namespace {

constexpr int kIterations = 35;

// Median of iterations [first, last] (1-based) of `times`.
double SteadyState(const std::vector<double>& times, int first, int last) {
  std::vector<double> window(times.begin() + (first - 1), times.begin() + last);
  std::sort(window.begin(), window.end());
  return window[window.size() / 2];
}

void WriteSeries(std::FILE* f, const char* name, const std::vector<double>& values) {
  std::fprintf(f, "  \"%s\": [", name);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%s%.6f", i == 0 ? "" : ", ", values[i]);
  }
  std::fprintf(f, "],\n");
}

int Run(const char* json_path) {
  constexpr int kWorkers = 100;
  LrHarness h = MakeLrHarness(kWorkers, ControlMode::kTemplates);
  h.job->SetTemplatesEnabled(false);
  h.app->Setup();

  // Half of the workers will be revoked at iteration 20 and restored at 30.
  std::vector<WorkerId> revoked;
  for (int w = 50; w < 100; ++w) {
    revoked.push_back(WorkerId(static_cast<std::uint64_t>(w)));
  }

  const double compute_100 =
      h.app->TasksPerInnerBlock() * sim::ToSeconds(h.app->GradientTaskDuration()) /
      (kWorkers * h.cluster->costs().worker_cores);

  std::printf("Figure 9: control overhead while resources change (LR, 100 workers)\n");
  std::printf("Paper: ~1.07s central; install spike at 10; 60ms steady; 2x after eviction; "
              "validation blip at 30.\n\n");
  std::printf("%5s %12s %12s %12s  %s\n", "iter", "time_s", "compute_s", "control_s",
              "event");

  std::vector<double> iterations, times, computes, controls;
  for (int iter = 1; iter <= kIterations; ++iter) {
    std::string event;
    if (iter == 10) {
      h.job->SetTemplatesEnabled(true);
      event = "driver enables templates (capture)";
    } else if (iter == 11) {
      event = "generating worker templates (controller half)";
    } else if (iter == 12) {
      event = "installing templates on 100 workers";
    } else if (iter == 13) {
      event = "steady state: full template path";
    } else if (iter == 20) {
      h.cluster->controller().RevokeWorkers(revoked);
      event = "resource manager evicts 50 workers";
    } else if (iter == 30) {
      h.cluster->controller().RestoreWorkers(revoked);
      event = "workers return; cached templates validated";
    }

    const int active =
        static_cast<int>(h.cluster->controller().ActiveWorkers().size());
    const double compute = compute_100 * kWorkers / active;
    const sim::TimePoint start = h.cluster->simulation().now();
    h.app->RunInnerIteration();
    const double elapsed = sim::ToSeconds(h.cluster->simulation().now() - start);
    std::printf("%5d %12.3f %12.3f %12.3f  %s\n", iter, elapsed, compute,
                elapsed - compute, event.c_str());
    iterations.push_back(iter);
    times.push_back(elapsed);
    computes.push_back(compute);
    controls.push_back(elapsed - compute);
  }

  const double steady_100 = SteadyState(times, 15, 19);
  const double steady_50 = SteadyState(times, 25, 29);
  const double steady_restored = SteadyState(times, 31, 35);
  const double evicted_ratio = steady_50 / steady_100;
  const double restored_drift = steady_restored / steady_100 - 1.0;
  const bool evicted_ok = evicted_ratio >= 1.5 && evicted_ratio <= 2.5;
  const bool restored_ok = restored_drift >= -0.10 && restored_drift <= 0.10;
  std::printf("\nShape check: 50-worker steady state %.3fs = %.2fx the 100-worker %.3fs "
              "(paper ~2x, need [1.5x, 2.5x]): %s\n",
              steady_50, evicted_ratio, steady_100,
              evicted_ok ? "REPRODUCED" : "NOT reproduced");
  std::printf("Shape check: restored steady state %.3fs, %+.1f%% from pre-revoke (paper: "
              "returns to original, need within 10%%): %s\n",
              steady_restored, 100.0 * restored_drift,
              restored_ok ? "REPRODUCED" : "NOT reproduced");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"figure\": \"fig9_dynamic_adaptation\",\n");
    std::fprintf(f, "  \"clock\": \"virtual\",\n");
    WriteSeries(f, "iteration", iterations);
    WriteSeries(f, "time_s", times);
    WriteSeries(f, "compute_s", computes);
    WriteSeries(f, "control_s", controls);
    std::fprintf(f, "  \"steady_100_workers_s\": %.6f,\n", steady_100);
    std::fprintf(f, "  \"steady_50_workers_s\": %.6f,\n", steady_50);
    std::fprintf(f, "  \"steady_restored_s\": %.6f,\n", steady_restored);
    std::fprintf(f, "  \"evicted_ratio\": %.3f,\n", evicted_ratio);
    std::fprintf(f, "  \"evicted_ratio_ok\": %s,\n", evicted_ok ? "true" : "false");
    std::fprintf(f, "  \"restored_ok\": %s,\n", restored_ok ? "true" : "false");
    std::fprintf(f, "  \"paper_shape_reproduced\": %s\n}\n",
                 evicted_ok && restored_ok ? "true" : "false");
    std::fclose(f);
    std::printf("Series written to %s\n", json_path);
  }
  return evicted_ok && restored_ok ? 0 : 1;
}

}  // namespace
}  // namespace nimbus::bench

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }
  return nimbus::bench::Run(json_path);
}
