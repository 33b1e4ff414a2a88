// Fault recovery (paper §4.4): checkpoint, fail a worker, detect via heartbeats, halt,
// reload from durable storage, rerun from the checkpoint marker — and end up with results
// identical to a failure-free run.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/apps/logistic_regression.h"
#include "src/common/logging.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"
#include "src/net/fault_injector.h"
#include "src/task/wire.h"

namespace nimbus {
namespace {

using apps::LogisticRegressionApp;

LogisticRegressionApp::Config SmallConfig() {
  LogisticRegressionApp::Config config;
  config.partitions = 8;
  config.reduce_groups = 4;
  config.dim = 5;
  config.rows_per_partition = 12;
  config.virtual_bytes_total = 8LL * 1000 * 1000;
  return config;
}

// Heartbeat detection with 100 ms beats and a 500 ms timeout; the cluster arms it at
// construction.
void ArmDetection(ClusterOptions* options) {
  options->failure_detection = true;
  options->heartbeat_period = sim::Millis(100);
  options->heartbeat_timeout = sim::Millis(500);
}

TEST(FaultRecoveryTest, CheckpointPersistsEveryLiveObject) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();
  app.RunInnerLoop(2);
  job.Checkpoint(2);

  EXPECT_EQ(cluster.controller().counters().checkpoints, 1u);
  // Every object tracked by the version map is in the durable store.
  EXPECT_EQ(cluster.durable().size(), cluster.controller().versions().object_count());
}

TEST(FaultRecoveryTest, RecoveryMatchesFailureFreeRun) {
  const int total_iterations = 10;
  const int checkpoint_at = 5;

  // Reference: failure-free sequential result.
  const auto expected =
      LogisticRegressionApp::ReferenceInnerLoop(SmallConfig(), total_iterations);

  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = ControlMode::kTemplates;
  ArmDetection(&options);
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();

  int iter = 0;
  while (iter < total_iterations) {
    auto result = app.RunInnerIteration();
    if (result.recovered) {
      // Rewind the driver loop to the restored checkpoint.
      iter = static_cast<int>(result.resume_marker);
      continue;
    }
    ++iter;
    if (iter == checkpoint_at) {
      job.Checkpoint(static_cast<std::uint64_t>(iter));
    }
    if (iter == 7 && cluster.worker(WorkerId(2)) != nullptr) {
      // Kill worker 2 mid-job (after the checkpoint); heartbeats stop and the controller
      // must notice, halt, reload and signal the driver.
      cluster.FailWorker(WorkerId(2));
    }
  }

  EXPECT_EQ(cluster.controller().counters().recoveries, 1u);
  const auto actual = app.CoeffSnapshot();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    EXPECT_DOUBLE_EQ(expected[d], actual[d]) << "coefficient " << d;
  }
}

// A failure detected between blocks: the recovery runs and its notice reaches a driver
// that waits on no request. The next block must come back as recovered without running:
// the driver reruns from the checkpoint marker, so a block that also ran on the restored
// state would be applied twice.
TEST(FaultRecoveryTest, RecoveryWhileDriverIdleRunsEachBlockOnce) {
  const int total_iterations = 10;
  const int checkpoint_at = 4;
  const int kill_at = 6;
  const auto expected =
      LogisticRegressionApp::ReferenceInnerLoop(SmallConfig(), total_iterations);

  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = ControlMode::kTemplates;
  ArmDetection(&options);
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();

  int iter = 0;
  bool killed = false;
  int recovered_returns = 0;
  while (iter < total_iterations) {
    auto result = app.RunInnerIteration();
    if (result.recovered) {
      ++recovered_returns;
      iter = static_cast<int>(result.resume_marker);
      continue;
    }
    ++iter;
    if (iter == checkpoint_at) {
      job.Checkpoint(static_cast<std::uint64_t>(iter));
    }
    if (iter == kill_at && !killed) {
      killed = true;
      cluster.FailWorker(WorkerId(2));
      // The driver stays idle through detection, halt, reload and the notice.
      sim::Simulation& simulation = cluster.simulation();
      simulation.RunUntil(simulation.now() + sim::Seconds(3));
      ASSERT_EQ(cluster.controller().counters().recoveries, 1u);
    }
  }

  EXPECT_EQ(recovered_returns, 1);
  EXPECT_EQ(cluster.controller().counters().recoveries, 1u);
  const auto actual = app.CoeffSnapshot();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    EXPECT_DOUBLE_EQ(expected[d], actual[d]) << "coefficient " << d;
  }
}

// The other half of the epoch check: a request that left the driver before it learned of a
// recovery (under TCP, a request and the notice can cross on the wire) must not run on the
// restored state. The controller answers it with the notice again, and the driver takes
// the repeat as no news: it rewinds once.
TEST(FaultRecoveryTest, RequestFromBeforeARecoveryIsAnsweredWithTheNotice) {
  const int total_iterations = 8;
  const auto expected =
      LogisticRegressionApp::ReferenceInnerLoop(SmallConfig(), total_iterations);

  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = ControlMode::kTemplates;
  ArmDetection(&options);
  Cluster cluster(options);
  Job job(&cluster);
  std::vector<wire::RecoveryNoticeEnvelope> notices;
  cluster.SetDriverHandler(
      [&job, &notices](net::NodeAddress src, MessageKind kind, ParameterBlob bytes) {
        if (wire::PeekEnvelopeType(bytes) == wire::EnvelopeType::kRecoveryNotice) {
          notices.push_back(wire::DecodeRecoveryNoticeEnvelope(bytes));
        }
        job.OnEnvelope(src, kind, std::move(bytes));
      });

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();
  app.RunInnerLoop(4);  // captured and installed: later blocks take the template path
  job.Checkpoint(4);
  cluster.FailWorker(WorkerId(2));
  sim::Simulation& simulation = cluster.simulation();
  simulation.RunUntil(simulation.now() + sim::Seconds(3));
  ASSERT_EQ(cluster.controller().counters().recoveries, 1u);
  ASSERT_EQ(notices.size(), 1u);
  EXPECT_EQ(notices[0].epoch, 1u);
  EXPECT_EQ(notices[0].marker, 4u);

  // A block request still stamped with epoch 0, as if sent before the notice arrived.
  const std::uint64_t dispatched = cluster.controller().tasks_dispatched();
  wire::InstantiateRequestEnvelope stale;
  stale.request_id = 1000;
  stale.epoch = 0;
  stale.name = app.InnerBlockName();
  cluster.transport().Send(net::NodeAddress::Driver(), net::NodeAddress::Controller(),
                           MessageKind::kControl,
                           wire::EncodeInstantiateRequestEnvelope(stale), 64);
  simulation.RunUntil(simulation.now() + sim::Millis(50));
  EXPECT_EQ(cluster.controller().tasks_dispatched(), dispatched);
  ASSERT_EQ(notices.size(), 2u);
  EXPECT_EQ(notices[1].epoch, 1u);

  int iter = 4;
  int recovered_returns = 0;
  while (iter < total_iterations) {
    const auto result = app.RunInnerIteration();
    if (result.recovered) {
      ++recovered_returns;
      iter = static_cast<int>(result.resume_marker);
      continue;
    }
    ++iter;
  }
  EXPECT_EQ(recovered_returns, 1);
  const auto actual = app.CoeffSnapshot();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    EXPECT_DOUBLE_EQ(expected[d], actual[d]) << "coefficient " << d;
  }
}

TEST(FaultRecoveryTest, RecoveryRedistributesToSurvivors) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  ArmDetection(&options);
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();
  app.RunInnerLoop(2);
  job.Checkpoint(2);

  cluster.FailWorker(WorkerId(3));
  // Run until the recovery notification arrives.
  auto result = app.RunInnerIteration();
  while (!result.recovered) {
    result = app.RunInnerIteration();
  }
  EXPECT_EQ(result.resume_marker, 2u);

  // The failed worker owns nothing any more.
  for (WorkerId w : cluster.controller().ActiveWorkers()) {
    EXPECT_NE(w, WorkerId(3));
  }
  // The job keeps making progress on the survivors.
  const double norm = app.RunInnerIteration().FirstScalar();
  EXPECT_GT(norm, 0.0);
}

TEST(FaultRecoveryTest, FailedWorkerIsEvictedFromHeartbeatAccounting) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  ArmDetection(&options);
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();
  app.RunInnerLoop(2);
  job.Checkpoint(2);

  for (WorkerId w : cluster.worker_ids()) {
    EXPECT_TRUE(cluster.controller().HeartbeatTracked(w)) << "worker " << w;
  }

  cluster.FailWorker(WorkerId(2));
  auto result = app.RunInnerIteration();
  while (!result.recovered) {
    result = app.RunInnerIteration();
  }

  // Regression: the dead worker must not still look live to heartbeat accounting.
  EXPECT_FALSE(cluster.controller().HeartbeatTracked(WorkerId(2)));
  for (WorkerId w : cluster.controller().ActiveWorkers()) {
    EXPECT_TRUE(cluster.controller().HeartbeatTracked(w)) << "worker " << w;
  }
}

TEST(FaultRecoveryTest, RestoreAfterLongRevocationDoesNotTripFailureDetection) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  ArmDetection(&options);
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();
  app.RunInnerLoop(2);

  // Revoked workers leave liveness accounting; parking one far past the heartbeat timeout
  // and restoring it must not read the stale timestamp as a missed heartbeat.
  cluster.controller().RevokeWorkers({WorkerId(3)});
  EXPECT_FALSE(cluster.controller().HeartbeatTracked(WorkerId(3)));
  app.RunInnerLoop(30);  // >> timeout of virtual time with worker 3 out

  cluster.controller().RestoreWorkers({WorkerId(3)});
  EXPECT_TRUE(cluster.controller().HeartbeatTracked(WorkerId(3)));
  app.RunInnerLoop(2);
  EXPECT_EQ(cluster.controller().counters().recoveries, 0u);
}

// Satellite of DESIGN.md §14: a worker death is not polite enough to wait for an
// iteration boundary. The controller's phase probe fires inside InstantiateSet at each
// pipeline phase; killing the worker there means the rest of the pipeline runs against a
// silently-dead node (its deliveries fall on the floor), the block hangs, and detection +
// checkpoint recovery must still converge to the failure-free result.
void RunPhaseFailure(const char* phase, ControlMode mode, bool serialized_batching) {
  SCOPED_TRACE(std::string("failure during phase '") + phase + "'");
  const int total_iterations = 8;

  const auto expected =
      LogisticRegressionApp::ReferenceInnerLoop(SmallConfig(), total_iterations);

  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = mode;
  options.serialized_batching = serialized_batching;
  ArmDetection(&options);
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();

  bool armed = false;
  bool killed = false;
  cluster.controller().set_phase_probe([&](const char* p) {
    if (armed && !killed && std::string(p) == phase) {
      killed = true;
      cluster.FailWorker(WorkerId(2));
    }
  });

  int iter = 0;
  while (iter < total_iterations) {
    armed = iter == 3 && !killed;  // kill mid-pipeline of the 4th iteration
    auto result = app.RunInnerIteration();
    if (result.recovered) {
      iter = static_cast<int>(result.resume_marker);
      continue;
    }
    ++iter;
    if (iter == 2) {
      job.Checkpoint(static_cast<std::uint64_t>(iter));
    }
  }

  EXPECT_TRUE(killed) << "phase probe never fired for '" << phase << "'";
  EXPECT_EQ(cluster.controller().counters().recoveries, 1u);
  const auto actual = app.CoeffSnapshot();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    EXPECT_DOUBLE_EQ(expected[d], actual[d]) << "coefficient " << d;
  }
}

TEST(FaultRecoveryTest, FailureDuringValidatePhaseRecovers) {
  RunPhaseFailure("validate", ControlMode::kTemplates, false);
}

TEST(FaultRecoveryTest, FailureDuringApplyPhaseRecovers) {
  RunPhaseFailure("apply", ControlMode::kTemplates, false);
}

TEST(FaultRecoveryTest, FailureDuringAssemblePhaseRecovers) {
  RunPhaseFailure("assemble", ControlMode::kTemplates, false);
}

TEST(FaultRecoveryTest, FailureDuringDispatchPhaseRecovers) {
  RunPhaseFailure("dispatch", ControlMode::kTemplates, false);
}

TEST(FaultRecoveryTest, FailureDuringSerializedDispatchRecovers) {
  // The serialized central path assembles NBW1 batches (memcpy + header patch); a death
  // between assembly and dispatch must not leak a stale pre-serialized batch past recovery.
  RunPhaseFailure("dispatch", ControlMode::kCentralOnly, true);
}

// Lookahead consumption only happens on block alternation — a block following itself
// auto-validates and skips the consumption path entirely — so the probe program alternates
// the inner and outer LR blocks with correct hints (the pipelined-loop pattern). The twin
// runs share an identical prefix; `churn` then injects a revoke/restore cycle at the
// moment an inner-block sweep is armed, and the very next instantiation is the probe.
//
// Revocation moves no objects — captured sets keep their placement and the version map is
// untouched — so the armed sweep's stamps (map uid, churn epoch, set generation) still
// prove reuse legal and the probe must HIT on both sides. The opposite direction, stamps
// refusing a sweep after real churn, is pinned by the phase-failure tests above: recovery
// drops the dead worker from the version map and the rerun still matches the reference.
struct LookaheadProbe {
  std::vector<double> coefficients;
  std::uint64_t hits_at_churn = 0;
  std::uint64_t hits_after_probe = 0;
  std::uint64_t hits_final = 0;
  std::uint64_t scheduled_final = 0;
  std::uint64_t recoveries = 0;
};

LookaheadProbe RunLookaheadProbe(bool churn) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = ControlMode::kTemplates;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();

  // Bring-up: capture and install both templates, no hints yet.
  for (int i = 0; i < 3; ++i) {
    app.RunInnerIteration();
    app.RunOuterIteration();
  }
  // Hinted alternation: each instantiation carries the next block's name, so an overlapped
  // sweep is armed for — and consumed by — the instantiation that follows it.
  for (int i = 0; i < 2; ++i) {
    job.HintNextBlock(app.OuterBlockName());
    app.RunInnerIteration();
    job.HintNextBlock(app.InnerBlockName());
    app.RunOuterIteration();
  }

  LookaheadProbe out;
  out.hits_at_churn = cluster.controller().lookahead_hits();
  // The outer run above armed a sweep for the inner block; park worker 3 out of and back
  // into the allocation right under it, then probe with the consuming instantiation.
  if (churn) {
    cluster.controller().RevokeWorkers({WorkerId(3)});
    cluster.controller().RestoreWorkers({WorkerId(3)});
  }
  app.RunInnerIteration();
  out.hits_after_probe = cluster.controller().lookahead_hits();

  // Either way the machinery keeps arming: another alternation cycle hits again.
  job.HintNextBlock(app.OuterBlockName());
  app.RunInnerIteration();
  job.HintNextBlock(app.InnerBlockName());
  app.RunOuterIteration();
  job.HintNextBlock(std::string());
  app.RunInnerIteration();

  out.hits_final = cluster.controller().lookahead_hits();
  out.scheduled_final = cluster.controller().lookaheads_scheduled();
  out.recoveries = cluster.controller().counters().recoveries;
  out.coefficients = app.CoeffSnapshot();
  return out;
}

TEST(FaultRecoveryTest, RevokeRestoreKeepsLookaheadAndPatchStampsValid) {
  const LookaheadProbe control = RunLookaheadProbe(/*churn=*/false);
  const LookaheadProbe churned = RunLookaheadProbe(/*churn=*/true);

  // Identical prefixes: both runs arrive at the revocation point with the same hit count,
  // and the alternation actually exercised the lookahead path.
  ASSERT_EQ(control.hits_at_churn, churned.hits_at_churn);
  EXPECT_GT(control.hits_at_churn, 0u);
  EXPECT_GT(control.scheduled_final, 0u);

  // The probe instantiation consumes the armed sweep on both sides: revocation left the
  // version map untouched, so invalidating here would be spurious (and throw away the
  // overlap win for every allocation blip).
  EXPECT_EQ(control.hits_after_probe, control.hits_at_churn + 1);
  EXPECT_EQ(churned.hits_after_probe, churned.hits_at_churn + 1)
      << "revoke/restore spuriously invalidated a still-valid lookahead sweep";
  EXPECT_GT(control.hits_final, control.hits_after_probe);
  EXPECT_GT(churned.hits_final, churned.hits_after_probe);

  // Revocation is not a failure: no recovery fired in either run.
  EXPECT_EQ(control.recoveries, 0u);
  EXPECT_EQ(churned.recoveries, 0u);

  // Bit-identical coefficients pin the reuse (lookahead result AND patch-cache entries):
  // if any stamp let stale state through — or refused state it should have kept — the
  // churned run's command stream would split from the control's.
  ASSERT_EQ(control.coefficients.size(), churned.coefficients.size());
  for (std::size_t d = 0; d < control.coefficients.size(); ++d) {
    EXPECT_EQ(control.coefficients[d], churned.coefficients[d]) << "coefficient " << d;
  }
}

// Sweeps run every heartbeat period, half a period after the beats (DESIGN.md §14.2), so
// detection fires at the first sweep that can see `miss_threshold × timeout` of silence:
// a worker whose last beat left at `b` is declared failed at `b + threshold × timeout +
// period / 2`, whatever the one-hop delay before the beat arrived.
TEST(FaultRecoveryTest, DetectionFiresAtTheFirstSweepThatSeesTheSilence) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.failure_detection = true;
  options.heartbeat_period = sim::Millis(100);
  options.heartbeat_timeout = sim::Millis(200);
  options.miss_threshold = 2;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();
  app.RunInnerLoop(2);
  job.Checkpoint(2);
  // Let worker 2 beat after its last group completion, so the controller last hears a beat.
  sim::Simulation& simulation = cluster.simulation();
  simulation.RunUntil(simulation.now() + 2 * options.heartbeat_period);

  const std::uint64_t beats = cluster.worker(WorkerId(2))->failure_counters().heartbeats_sent;
  ASSERT_GT(beats, 0u);
  cluster.FailWorker(WorkerId(2));
  ASSERT_TRUE(simulation.RunUntilCondition(
      [&]() { return cluster.controller().failure_counters().workers_failed > 0; }));

  // Beats start when the cluster arms detection, at virtual time 0.
  const sim::TimePoint last_beat =
      static_cast<sim::TimePoint>(beats - 1) * options.heartbeat_period;
  EXPECT_EQ(simulation.now(), last_beat + options.miss_threshold * options.heartbeat_timeout +
                                  options.heartbeat_period / 2);
}

struct SuspicionRun {
  std::vector<double> coefficients;
  FailureCounters counters;  // the controller's
  std::uint64_t suspect_notices = 0;
  std::uint64_t recoveries = 0;
};

// Runs six LR iterations with 25 ms beats, a 100 ms timeout and a miss threshold of 3. A
// hand-written schedule drops the next `dropped_beats` beats of worker 1 in epoch 1, which
// starts after iteration 3; the driver then idles 400 ms of virtual time, long enough for
// the silence, the suspicion and the beat that ends it.
SuspicionRun RunWithDroppedBeats(int dropped_beats) {
  net::FaultSchedule schedule;
  schedule.events.push_back(net::FaultEvent{net::FaultKind::kDropHeartbeat, /*epoch=*/1,
                                            WorkerId(1), dropped_beats});
  net::FaultInjector injector(schedule);

  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = ControlMode::kTemplates;
  options.failure_detection = true;
  options.heartbeat_period = sim::Millis(25);
  options.heartbeat_timeout = sim::Millis(100);
  options.miss_threshold = 3;
  options.fault_injector = &injector;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();
  app.RunInnerLoop(3);
  injector.AdvanceEpoch();
  sim::Simulation& simulation = cluster.simulation();
  simulation.RunUntil(simulation.now() + sim::Millis(400));
  app.RunInnerLoop(3);

  SuspicionRun out;
  out.coefficients = app.CoeffSnapshot();
  out.counters = cluster.controller().failure_counters();
  out.suspect_notices = job.suspect_notices();
  out.recoveries = cluster.controller().counters().recoveries;
  return out;
}

// A false suspicion: six dropped beats silence worker 1 for about 175 ms, past one 100 ms
// timeout but short of the three that declare it failed. The controller suspects it once,
// tells the driver once and clears the suspicion at the next beat; nothing fails, nothing
// recovers, and the result is the fault-free run's, bit for bit.
TEST(FaultRecoveryTest, FalseSuspicionClearsWithoutRecovery) {
  const SuspicionRun clean = RunWithDroppedBeats(0);
  const SuspicionRun suspected = RunWithDroppedBeats(6);

  EXPECT_EQ(clean.counters.suspects_marked, 0u);
  EXPECT_EQ(suspected.counters.suspects_marked, 1u);
  EXPECT_EQ(suspected.counters.suspects_cleared, 1u);
  EXPECT_EQ(suspected.suspect_notices, 1u);
  EXPECT_EQ(suspected.counters.workers_failed, 0u);
  EXPECT_EQ(suspected.recoveries, 0u);
  EXPECT_EQ(suspected.coefficients, clean.coefficients);
}

// Every block leaves the controller's pending list once it finishes or is abandoned: a
// failure drops the blocks in flight, and an empty block finishes at once.
TEST(FaultRecoveryTest, FinishedAndAbandonedBlocksLeaveNoPendingBlock) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  ArmDetection(&options);
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();
  app.RunInnerLoop(2);
  job.Checkpoint(2);
  EXPECT_EQ(cluster.controller().pending_block_count(), 0u);

  cluster.FailWorker(WorkerId(3));
  auto result = app.RunInnerIteration();
  while (!result.recovered) {
    result = app.RunInnerIteration();
  }
  EXPECT_EQ(cluster.controller().pending_block_count(), 0u) << "after a recovery";

  job.RunStages({});
  EXPECT_EQ(cluster.controller().pending_block_count(), 0u) << "after an empty block";
}

// A second worker failure while the first one's recovery is pending or running
// (DESIGN.md §14.2): the second worker is declared failed too, a running reload is
// abandoned, and one recovery over the two survivors completes, tells the driver once,
// and converges to the failure-free result. `together` kills workers 2 and 3 at once, so
// one sweep declares both; otherwise worker 3 dies right after worker 2's detection.
void RunSecondFailure(bool together) {
  SCOPED_TRACE(together ? "workers 2 and 3 killed at once"
                        : "worker 3 killed on worker 2's detection");
  const int total_iterations = 10;
  const int checkpoint_at = 5;
  const auto expected =
      LogisticRegressionApp::ReferenceInnerLoop(SmallConfig(), total_iterations);

  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = ControlMode::kTemplates;
  ArmDetection(&options);
  Cluster cluster(options);
  Job job(&cluster);
  NimbusController& controller = cluster.controller();
  sim::Simulation& simulation = cluster.simulation();

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();

  // Polls every 100 µs of virtual time, so it sees the first detection before the
  // recovery it starts (4 network latencies later) has sent its reload. Then it watches
  // for the recovery, for at most 30 s of virtual time: a recovery that waits on a dead
  // worker forever would otherwise spin the simulator forever.
  sim::TimePoint detected = -1;
  std::function<void()> watch = [&]() {
    if (detected < 0 && controller.failure_counters().workers_failed > 0) {
      detected = simulation.now();
      if (together) {
        EXPECT_EQ(controller.failure_counters().workers_failed, 2u) << "not one sweep";
      } else {
        EXPECT_EQ(controller.failure_counters().workers_failed, 1u);
        cluster.FailWorker(WorkerId(3));
      }
    }
    if (controller.counters().recoveries > 0) {
      return;
    }
    NIMBUS_CHECK(detected < 0 || simulation.now() - detected < sim::Seconds(30))
        << "no recovery completed within 30 s of the first detection";
    simulation.ScheduleAfter(sim::Micros(100), watch);
  };

  int iter = 0;
  int recovery_notices = 0;
  while (iter < total_iterations) {
    auto result = app.RunInnerIteration();
    if (result.recovered) {
      ++recovery_notices;
      iter = static_cast<int>(result.resume_marker);
      continue;
    }
    ++iter;
    if (iter == checkpoint_at) {
      job.Checkpoint(static_cast<std::uint64_t>(iter));
    }
    if (iter == 7 && controller.failure_counters().workers_failed == 0) {
      // The next block hangs on the dead worker until detection.
      cluster.FailWorker(WorkerId(2));
      if (together) {
        cluster.FailWorker(WorkerId(3));
      }
      watch();
    }
  }

  EXPECT_EQ(controller.failure_counters().workers_failed, 2u);
  EXPECT_EQ(controller.counters().recoveries, 1u);
  EXPECT_EQ(recovery_notices, 1);
  EXPECT_EQ(controller.pending_block_count(), 0u);
  EXPECT_EQ(controller.ActiveWorkers(), (std::vector<WorkerId>{WorkerId(0), WorkerId(1)}));
  const auto actual = app.CoeffSnapshot();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    EXPECT_DOUBLE_EQ(expected[d], actual[d]) << "coefficient " << d;
  }
}

TEST(FaultRecoveryTest, FailureDuringRecoveryRestartsIt) { RunSecondFailure(false); }

TEST(FaultRecoveryTest, TwoFailuresInOneSweepRecoverOnce) { RunSecondFailure(true); }

TEST(FaultRecoveryTest, FailureWithoutCheckpointAborts) {
  ClusterOptions options;
  options.workers = 2;
  options.partitions = 8;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  // No checkpoint taken: losing a worker is unrecoverable data loss and must be loud —
  // either the recovery path aborts ("no valid checkpoint") or validation trips first on a
  // vanished replica ("no live replica").
  EXPECT_DEATH(
      {
        app.Setup();
        app.RunInnerLoop(2);
        cluster.FailWorker(WorkerId(1));
        cluster.controller().OnWorkerFailed(WorkerId(1));
        app.RunInnerIteration();
      },
      "no valid checkpoint|no live replica");
}

}  // namespace
}  // namespace nimbus
