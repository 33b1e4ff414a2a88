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
// Task durations are virtual (each node's private simulation drains instantly), so
// wall-clock time isolates the real control-plane work: envelope encode/decode, framing,
// syscalls, and scheduling. The shape claim driving the exit code mirrors the simulator's
// Fig 8 ordering: serialized >= per-task.
//
// Alongside throughput it reports the controller endpoint's writev calls per frame sent
// over the measured iterations: the controller sends from its event loop, so a delivery's
// fan-out to a worker leaves as its first frame plus one gather write (DESIGN.md §13.3),
// and per-task dispatch sits far below one writev per frame.
//
// With --json PATH the measured series are written as a JSON document
// (bench/run_benchmarks.sh commits it as BENCH_wire.json).

#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/net/tcp_transport.h"

namespace nimbus::bench {
namespace {

constexpr int kWorkers = 4;
constexpr int kTasksPerWorker = 79;
constexpr int kMeasuredIters = 5;
constexpr int kRepetitions = 3;

struct WireResult {
  double tasks_per_s = 0.0;
  double writev_per_frame = 0.0;  // controller endpoint, over the measured iterations
};

// Wall-clock tasks/second for one dispatch config over loopback TCP; best of
// kRepetitions runs (each with a fresh cluster, bootstrap, and warmup) to shed scheduler
// noise. The writev ratio comes from the best run.
WireResult TcpThroughput(bool serialized) {
  WireResult best;
  for (int rep = 0; rep < kRepetitions; ++rep) {
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
    const double tasks_per_s = h.app->TasksPerInnerBlock() / seconds;
    if (tasks_per_s > best.tasks_per_s) {
      const auto frames = static_cast<double>(after.frames_sent - before.frames_sent);
      best.tasks_per_s = tasks_per_s;
      best.writev_per_frame =
          frames > 0.0 ? static_cast<double>(after.writev_calls - before.writev_calls) / frames
                       : 0.0;
    }
  }
  return best;
}

int Run(const char* json_path) {
  std::printf("Wire throughput: real-socket task dispatch over loopback TCP\n");
  std::printf("%d workers, %d tasks/block, best of %d x %d iterations per config\n\n",
              kWorkers, kTasksPerWorker * kWorkers, kRepetitions, kMeasuredIters);

  const WireResult per_task_run = TcpThroughput(/*serialized=*/false);
  std::printf("%-16s %12.0f tasks/s   controller writev/frame %.3f\n", "per-task",
              per_task_run.tasks_per_s, per_task_run.writev_per_frame);
  const WireResult serialized_run = TcpThroughput(/*serialized=*/true);
  std::printf("%-16s %12.0f tasks/s   controller writev/frame %.3f\n", "serialized",
              serialized_run.tasks_per_s, serialized_run.writev_per_frame);
  const double per_task = per_task_run.tasks_per_s;
  const double serialized = serialized_run.tasks_per_s;

  const double serialized_speedup = per_task > 0.0 ? serialized / per_task : 0.0;
  const bool shape_ok = serialized >= per_task;
  std::printf("\nShape check: serialized (%.0f) >= per-task (%.0f): %s\n", serialized,
              per_task, shape_ok ? "REPRODUCED" : "NOT reproduced");

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
    std::fprintf(f, "  \"per_task_tasks_per_s\": %.1f,\n", per_task);
    std::fprintf(f, "  \"serialized_tasks_per_s\": %.1f,\n", serialized);
    std::fprintf(f, "  \"serialized_speedup\": %.3f,\n", serialized_speedup);
    std::fprintf(f, "  \"per_task_controller_writev_per_frame\": %.4f,\n",
                 per_task_run.writev_per_frame);
    std::fprintf(f, "  \"serialized_controller_writev_per_frame\": %.4f,\n",
                 serialized_run.writev_per_frame);
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
