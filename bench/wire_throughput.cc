// Wire throughput — real-socket task dispatch over the TCP transport (DESIGN.md §13).
//
// The simulator benches (Fig 1/8) charge modeled costs; this bench runs the identical
// control plane over loopback TCP and measures wall-clock task throughput for the two
// central dispatch wire forms (DESIGN.md §8):
//  * per-task        — kCentralOnly baseline: every command is its own envelope/frame.
//  * serialized      — one pre-encoded NBW1 buffer per worker per stage plan from the
//                      serialized-template cache (DESIGN.md §10): memcpy + header patch
//                      instead of per-command encoding.
//
// Task durations are modeled only under the simulator (TCP nodes run each task's function
// at once and charge nothing for its duration), so wall-clock time isolates the real
// control-plane work: envelope encode/decode, framing, syscalls, and scheduling. The two
// configs run interleaved, one fresh cluster per run, for the same number of runs each, so
// host drift lands on both alike; each is reported as the median and quartiles of its
// runs. The shape claim driving the exit code mirrors
// the simulator's Fig 8 ordering on the medians: serialized >= per-task.
//
// Alongside throughput it reports the controller endpoint's writev calls per frame sent
// over the measured iterations: the controller sends from its event loop, so a delivery's
// fan-out to a worker leaves as its first frame plus one gather write (DESIGN.md §13.3),
// and per-task dispatch sits far below one writev per frame.
//
// With --json PATH the measured series are written as a JSON document
// (bench/run_benchmarks.sh commits it as BENCH_wire.json). Its `*_tasks_per_s` and
// `*_writev_per_frame` keys carry medians; `*_p25` / `*_p75` give the spread.

#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/net/tcp_transport.h"

namespace nimbus::bench {
namespace {

constexpr int kWorkers = 4;
constexpr int kTasksPerWorker = 79;
constexpr int kMeasuredIters = 5;
constexpr int kRepetitions = 21;  // runs per config

// Wall-clock tasks/second and the controller endpoint's writev calls per frame, one
// sample per run.
struct WireSeries {
  SampleStats tasks_per_s;
  SampleStats writev_per_frame;
};

// One run of one dispatch config over loopback TCP: a fresh cluster, bootstrap and warmup,
// then kMeasuredIters timed blocks.
void TcpRun(bool serialized, WireSeries* series) {
  LrHarness h;
  ClusterOptions options;
  options.workers = kWorkers;
  options.partitions = kTasksPerWorker * kWorkers;
  options.mode = ControlMode::kCentralOnly;
  options.transport = TransportKind::kTcp;
  options.serialized_batching = serialized;
  h.cluster = std::make_unique<Cluster>(options);
  h.job = std::make_unique<Job>(h.cluster.get());
  apps::LogisticRegressionApp::Config config;
  config.partitions = options.partitions;
  config.reduce_groups = kWorkers;
  config.rows_per_partition = 4;  // tiny real rows; the control plane is under test
  h.app = std::make_unique<apps::LogisticRegressionApp>(h.job.get(), config);

  h.app->Setup();
  h.app->RunInnerIteration();  // warm: stage plans compile, stores materialize

  net::TcpEndpoint& controller = h.cluster->tcp_endpoint(net::NodeAddress::Controller());
  const net::TcpEndpoint::Counters before = controller.counters();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kMeasuredIters; ++i) {
    h.app->RunInnerIteration();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const net::TcpEndpoint::Counters after = controller.counters();
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count() /
      kMeasuredIters;
  const auto frames = static_cast<double>(after.frames_sent - before.frames_sent);
  series->tasks_per_s.Add(h.app->TasksPerInnerBlock() / seconds);
  series->writev_per_frame.Add(
      frames > 0.0 ? static_cast<double>(after.writev_calls - before.writev_calls) / frames
                   : 0.0);
}

void PrintSeries(const char* name, const WireSeries& s) {
  std::printf("%-16s median %9.0f tasks/s  [p25 %9.0f, p75 %9.0f]   controller writev/frame "
              "%.3f\n",
              name, s.tasks_per_s.Percentile(0.5), s.tasks_per_s.Percentile(0.25),
              s.tasks_per_s.Percentile(0.75), s.writev_per_frame.Percentile(0.5));
}

void WriteSeries(std::FILE* f, const char* prefix, const WireSeries& s) {
  std::fprintf(f, "  \"%s_tasks_per_s\": %.1f,\n", prefix, s.tasks_per_s.Percentile(0.5));
  std::fprintf(f, "  \"%s_tasks_per_s_p25\": %.1f,\n", prefix,
               s.tasks_per_s.Percentile(0.25));
  std::fprintf(f, "  \"%s_tasks_per_s_p75\": %.1f,\n", prefix,
               s.tasks_per_s.Percentile(0.75));
}

int Run(const char* json_path) {
  std::printf("Wire throughput: real-socket task dispatch over loopback TCP\n");
  std::printf("%d workers, %d tasks/block, %d interleaved runs x %d iterations per config\n\n",
              kWorkers, kTasksPerWorker * kWorkers, kRepetitions, kMeasuredIters);

  WireSeries per_task_runs;
  WireSeries serialized_runs;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    TcpRun(/*serialized=*/false, &per_task_runs);
    TcpRun(/*serialized=*/true, &serialized_runs);
  }
  PrintSeries("per-task", per_task_runs);
  PrintSeries("serialized", serialized_runs);
  const double per_task = per_task_runs.tasks_per_s.Percentile(0.5);
  const double serialized = serialized_runs.tasks_per_s.Percentile(0.5);

  const double serialized_speedup = per_task > 0.0 ? serialized / per_task : 0.0;
  const bool shape_ok = serialized >= per_task;
  std::printf("\nShape check: serialized median (%.0f) >= per-task median (%.0f): %s\n",
              serialized, per_task, shape_ok ? "REPRODUCED" : "NOT reproduced");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"figure\": \"wire_throughput\",\n");
    std::fprintf(f, "  \"transport\": \"tcp-loopback\",\n");
    std::fprintf(f, "  \"workers\": %d,\n", kWorkers);
    std::fprintf(f, "  \"tasks_per_block\": %d,\n", kTasksPerWorker * kWorkers);
    std::fprintf(f, "  \"repetitions\": %d,\n", kRepetitions);
    WriteSeries(f, "per_task", per_task_runs);
    WriteSeries(f, "serialized", serialized_runs);
    std::fprintf(f, "  \"serialized_speedup\": %.3f,\n", serialized_speedup);
    std::fprintf(f, "  \"per_task_controller_writev_per_frame\": %.4f,\n",
                 per_task_runs.writev_per_frame.Percentile(0.5));
    std::fprintf(f, "  \"serialized_controller_writev_per_frame\": %.4f,\n",
                 serialized_runs.writev_per_frame.Percentile(0.5));
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
