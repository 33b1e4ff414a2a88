// Seeded fault-injection equivalence (DESIGN.md §14.5): a FaultSchedule generated from a
// seed — heartbeat drops/delays/duplicates, a connection sever, one worker kill mid-run —
// is replayed against the same LR driver program over the deterministic simulator and over
// real loopback TCP. Both runs must detect the failure, recover from the checkpoint, and
// finish with bit-identical coefficients, per-iteration scalars, and per-worker command
// logs: the recovered computation is a pure function of (workload, schedule), not of the
// transport underneath. Seeds ride every assertion via SCOPED_TRACE so a failure names the
// script that produced it.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/apps/logistic_regression.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"
#include "src/net/fault_injector.h"
#include "src/task/command.h"

namespace nimbus {
namespace {

using apps::LogisticRegressionApp;

constexpr int kWorkers = 4;
constexpr int kIterations = 8;  // one injector epoch per completed driver iteration

LogisticRegressionApp::Config SmallConfig() {
  LogisticRegressionApp::Config config;
  config.partitions = 8;
  config.reduce_groups = 4;
  config.dim = 6;
  config.rows_per_partition = 16;
  config.virtual_bytes_total = 64LL * 1000 * 1000;
  return config;
}

struct RunOutput {
  std::vector<double> coefficients;
  std::vector<double> iteration_scalars;  // completed iterations, reruns included
  std::vector<std::vector<Command>> command_logs;  // surviving workers only
  std::uint64_t recoveries = 0;
};

// Replays the schedule for `seed` over `transport`. The driver loop advances the injector
// one epoch per *completed* iteration (a recovered iteration does not advance it), applies
// the epoch's structural events — kills via FailWorker, severs via SeverConnection — at
// the iteration boundary, and rewinds to the restored checkpoint marker on recovery.
// Detection knobs: the generator's default max_run (3) keeps injected silence at
// 3 * 25ms < 100ms, below even one missed-beat interval, and the miss threshold of 3
// (fail past ~300ms of silence) leaves real-clock jitter headroom under TCP.
RunOutput RunWithSchedule(TransportKind transport, std::uint64_t seed) {
  net::FaultInjector injector(net::FaultSchedule::Generate(seed, kWorkers, kIterations));

  ClusterOptions options;
  options.workers = kWorkers;
  options.partitions = 8;
  options.mode = ControlMode::kTemplates;
  options.transport = transport;
  options.enable_command_log = true;
  options.failure_detection = true;
  options.heartbeat_period = sim::Millis(25);
  options.heartbeat_timeout = sim::Millis(100);
  options.miss_threshold = 3;
  options.fault_injector = &injector;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();

  RunOutput out;
  int iter = 0;
  while (iter < kIterations) {
    // Structural events pinned to the current epoch. A rewound loop re-enters the kill
    // epoch with the worker already dead; the liveness guard makes the re-apply a no-op.
    for (const net::FaultEvent& e : injector.PendingStructural(net::FaultKind::kKillWorker)) {
      if (cluster.worker(e.worker) != nullptr) {
        cluster.FailWorker(e.worker);
      }
    }
    for (const net::FaultEvent& e : injector.PendingStructural(net::FaultKind::kSever)) {
      cluster.SeverConnection(net::NodeAddress::Controller(),
                              net::NodeAddress::ForWorker(e.worker));
    }

    const Job::RunResult result = app.RunInnerIteration();
    if (result.recovered) {
      iter = static_cast<int>(result.resume_marker);
      continue;
    }
    out.iteration_scalars.push_back(result.FirstScalar());
    ++iter;
    injector.AdvanceEpoch();
    if (iter % 2 == 0 && iter < kIterations) {
      job.Checkpoint(static_cast<std::uint64_t>(iter));
    }
  }

  cluster.Quiesce();
  out.coefficients = app.CoeffSnapshot();
  for (WorkerId id : cluster.worker_ids()) {
    if (Worker* w = cluster.worker(id)) {
      out.command_logs.push_back(w->command_log());
    }
  }
  out.recoveries = cluster.controller().counters().recoveries;
  return out;
}

void ExpectIdentical(const RunOutput& sim, const RunOutput& tcp) {
  // Exact equality, not tolerance: same arithmetic in the same order on both transports.
  ASSERT_EQ(sim.iteration_scalars.size(), tcp.iteration_scalars.size());
  for (std::size_t i = 0; i < sim.iteration_scalars.size(); ++i) {
    EXPECT_EQ(sim.iteration_scalars[i], tcp.iteration_scalars[i]) << "iteration " << i;
  }
  ASSERT_EQ(sim.coefficients.size(), tcp.coefficients.size());
  for (std::size_t d = 0; d < sim.coefficients.size(); ++d) {
    EXPECT_EQ(sim.coefficients[d], tcp.coefficients[d]) << "coefficient " << d;
  }
  ASSERT_EQ(sim.command_logs.size(), tcp.command_logs.size());
  for (std::size_t w = 0; w < sim.command_logs.size(); ++w) {
    ASSERT_EQ(sim.command_logs[w].size(), tcp.command_logs[w].size()) << "worker " << w;
    for (std::size_t c = 0; c < sim.command_logs[w].size(); ++c) {
      EXPECT_EQ(sim.command_logs[w][c], tcp.command_logs[w][c])
          << "worker " << w << " command " << c;
    }
  }
}

void RunSeed(std::uint64_t seed) {
  SCOPED_TRACE("fault schedule seed " + std::to_string(seed));
  const RunOutput sim = RunWithSchedule(TransportKind::kSim, seed);
  const RunOutput tcp = RunWithSchedule(TransportKind::kTcp, seed);

  // The schedule's one kill must have triggered exactly one recovery on each backend.
  EXPECT_EQ(sim.recoveries, 1u);
  EXPECT_EQ(tcp.recoveries, 1u);
  ASSERT_EQ(sim.command_logs.size(), static_cast<std::size_t>(kWorkers - 1));

  ExpectIdentical(sim, tcp);

  // And not merely self-consistent: the recovered run matches the model-free sequential
  // reference, like a failure-free run does.
  const std::vector<double> expected =
      LogisticRegressionApp::ReferenceInnerLoop(SmallConfig(), kIterations);
  ASSERT_EQ(expected.size(), sim.coefficients.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    EXPECT_DOUBLE_EQ(expected[d], sim.coefficients[d]) << "coefficient " << d;
  }
}

TEST(FaultScheduleTest, GeneratorIsDeterministicAndWellFormed) {
  const net::FaultSchedule a = net::FaultSchedule::Generate(99, kWorkers, kIterations);
  const net::FaultSchedule b = net::FaultSchedule::Generate(99, kWorkers, kIterations);
  ASSERT_EQ(a.events.size(), b.events.size());
  int kills = 0;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a.events[i].kind), static_cast<int>(b.events[i].kind));
    EXPECT_EQ(a.events[i].epoch, b.events[i].epoch);
    EXPECT_EQ(a.events[i].worker, b.events[i].worker);
    EXPECT_EQ(a.events[i].count, b.events[i].count);

    const net::FaultEvent& e = a.events[i];
    EXPECT_GE(e.epoch, 0);
    EXPECT_LT(e.epoch, kIterations);
    EXPECT_LT(e.worker.value(), static_cast<std::uint64_t>(kWorkers));
    EXPECT_LE(e.count, 3) << "run longer than max_run breaks the determinism argument";
    if (e.kind == net::FaultKind::kKillWorker) {
      ++kills;
      // Middle half: work exists both before the kill (a checkpoint) and after (reruns).
      EXPECT_GE(e.epoch, kIterations / 4);
      EXPECT_LT(e.epoch, kIterations - kIterations / 4);
    }
  }
  EXPECT_EQ(kills, 1);
}

TEST(FaultScheduleTest, Seed1BitIdenticalAcrossTransports) { RunSeed(1); }

TEST(FaultScheduleTest, Seed42BitIdenticalAcrossTransports) { RunSeed(42); }

TEST(FaultScheduleTest, Seed1337BitIdenticalAcrossTransports) { RunSeed(1337); }

}  // namespace
}  // namespace nimbus
