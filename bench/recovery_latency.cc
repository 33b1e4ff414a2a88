// Recovery latency — wall-clock failure detection + checkpoint restore over real TCP
// (DESIGN.md §14). A worker is killed at an iteration boundary (it keeps its sockets but
// stops beating and executing); the controller must notice purely through heartbeat
// silence on the wall clock, halt the survivors, reload the checkpoint, and hand the
// driver a recovered result. The measured span is kill -> recovered return.
//
// Detection latency depends on where the kill lands between two beats: a kill just after a
// beat waits out the most silence. So the repetitions spread the kill instant over one
// heartbeat period (stratified, rep i in [i/n, (i+1)/n) of it, from a fixed seed), and the
// samples cover the whole range instead of one phase.
//
// The shape claim driving the exit code bounds detection from BOTH sides:
//  * min > heartbeat_timeout — detection cannot be instant; real silence must elapse.
//    (This edge catches clock-domain bugs: a liveness stamp taken from the wrong clock
//    makes a just-killed worker look silent for eons and detection fires immediately.)
//  * median <= timeout * miss_threshold + period / 2 + slack — one full miss window, plus
//    the half period by which the controller's sweeps trail the beats (the first sweep
//    that can see the silence, DESIGN.md §14.2), plus recovery work and jitter.
//
// With --json PATH the samples are written as a JSON document
// (bench/run_benchmarks.sh commits it as BENCH_recovery.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"

namespace nimbus::bench {
namespace {

constexpr int kWorkers = 4;
constexpr int kRepetitions = 5;
constexpr int kWarmIterations = 4;  // template capture + install + steady state
constexpr double kPeriodMs = 20.0;
constexpr double kTimeoutMs = 80.0;
constexpr int kMissThreshold = 2;
constexpr double kSlackMs = 300.0;  // halt + reload + rerun handshake, and CI jitter
constexpr std::uint64_t kKillPhaseSeed = 30;

// One kill/recover cycle on a fresh cluster, killing `kill_delay_ms` after the checkpoint
// returns; returns kill -> recovered-return in ms.
double RunOnce(double kill_delay_ms) {
  ClusterOptions options;
  options.workers = kWorkers;
  options.partitions = 8;
  options.mode = ControlMode::kTemplates;
  options.transport = TransportKind::kTcp;
  options.failure_detection = true;
  options.heartbeat_period = sim::Millis(static_cast<std::int64_t>(kPeriodMs));
  options.heartbeat_timeout = sim::Millis(static_cast<std::int64_t>(kTimeoutMs));
  options.miss_threshold = kMissThreshold;
  Cluster cluster(options);
  Job job(&cluster);

  apps::LogisticRegressionApp::Config config;
  config.partitions = 8;
  config.reduce_groups = 4;
  config.dim = 6;
  config.rows_per_partition = 16;
  config.virtual_bytes_total = 64LL * 1000 * 1000;
  apps::LogisticRegressionApp app(&job, config);
  app.Setup();

  for (int i = 0; i < kWarmIterations; ++i) {
    app.RunInnerIteration();
  }
  job.Checkpoint(kWarmIterations);

  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(kill_delay_ms));
  cluster.FailWorker(WorkerId(2));
  const auto start = std::chrono::steady_clock::now();
  const Job::RunResult result = app.RunInnerIteration();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  if (!result.recovered) {
    std::fprintf(stderr, "killed worker but the next block completed normally\n");
    return -1.0;
  }
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(elapsed)
      .count();
}

int Run(const char* json_path) {
  std::printf("Recovery latency: heartbeat detection + checkpoint restore over TCP\n");
  std::printf("%d workers, period %.0f ms, timeout %.0f ms, miss threshold %d, "
              "%d repetitions\n\n",
              kWorkers, kPeriodMs, kTimeoutMs, kMissThreshold, kRepetitions);

  Rng rng(kKillPhaseSeed);
  std::vector<double> kill_delays;
  std::vector<double> samples;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const double delay_ms = (rep + rng.NextDouble()) / kRepetitions * kPeriodMs;
    const double ms = RunOnce(delay_ms);
    if (ms < 0.0) {
      return 1;
    }
    std::printf("  rep %d: kill %5.1f ms after the checkpoint -> recovered in %8.1f ms\n",
                rep, delay_ms, ms);
    kill_delays.push_back(delay_ms);
    samples.push_back(ms);
  }

  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double min_ms = sorted.front();
  const double median_ms = sorted[sorted.size() / 2];
  const double bound_ms = kTimeoutMs * kMissThreshold + kPeriodMs / 2 + kSlackMs;

  const bool shape_ok = min_ms > kTimeoutMs && median_ms <= bound_ms;
  std::printf("\nmin %.1f ms, median %.1f ms\n", min_ms, median_ms);
  std::printf("Shape check: min > timeout (%.0f ms) and median <= %.0f ms: %s\n",
              kTimeoutMs, bound_ms, shape_ok ? "REPRODUCED" : "NOT reproduced");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"figure\": \"recovery_latency\",\n");
    std::fprintf(f, "  \"transport\": \"tcp-loopback\",\n");
    std::fprintf(f, "  \"workers\": %d,\n", kWorkers);
    std::fprintf(f, "  \"heartbeat_period_ms\": %.0f,\n", kPeriodMs);
    std::fprintf(f, "  \"heartbeat_timeout_ms\": %.0f,\n", kTimeoutMs);
    std::fprintf(f, "  \"miss_threshold\": %d,\n", kMissThreshold);
    std::fprintf(f, "  \"kill_delays_ms\": [");
    for (std::size_t i = 0; i < kill_delays.size(); ++i) {
      std::fprintf(f, "%s%.1f", i == 0 ? "" : ", ", kill_delays[i]);
    }
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"samples_ms\": [");
    for (std::size_t i = 0; i < samples.size(); ++i) {
      std::fprintf(f, "%s%.1f", i == 0 ? "" : ", ", samples[i]);
    }
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"min_ms\": %.1f,\n", min_ms);
    std::fprintf(f, "  \"median_ms\": %.1f,\n", median_ms);
    std::fprintf(f, "  \"bound_ms\": %.1f,\n", bound_ms);
    std::fprintf(f, "  \"shape_ok\": %s\n}\n", shape_ok ? "true" : "false");
    std::fclose(f);
    std::printf("Series written to %s\n", json_path);
  }
  return shape_ok ? 0 : 1;
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
