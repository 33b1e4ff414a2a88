// Trace determinism (DESIGN.md §12): under the simulator two identical runs must
// produce bit-identical event streams — same names, order, lanes, tracks, virtual
// timestamps and values. Wall-clock stamps are the only nondeterministic fields, so a
// trace minus its wall times is a regression oracle for the whole control plane, the
// span-level analogue of the worker command-log comparisons.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/apps/logistic_regression.h"
#include "src/common/tracing.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"

namespace nimbus {
namespace {

using apps::LogisticRegressionApp;

// Everything deterministic about an event: all fields except the wall-clock stamps.
struct EventKey {
  trace::EventType type;
  trace::Lane lane;
  std::uint32_t track;
  std::string name;
  std::uint64_t seq;
  std::int64_t virtual_ns;
  std::int64_t value;

  bool operator==(const EventKey& o) const {
    return type == o.type && lane == o.lane && track == o.track && name == o.name &&
           seq == o.seq && virtual_ns == o.virtual_ns && value == o.value;
  }
};

std::vector<EventKey> TracedLrRun(ControlMode mode, int iterations) {
  trace::Tracer::Options options;
  options.ring_capacity = 1 << 16;
  trace::Tracer::Get().Enable(options);  // resets rings and the sequence counter

  {
    ClusterOptions cluster_options;
    cluster_options.workers = 4;
    cluster_options.partitions = 8;
    cluster_options.mode = mode;
    Cluster cluster(cluster_options);
    Job job(&cluster);

    LogisticRegressionApp::Config config;
    config.partitions = 8;
    config.reduce_groups = 4;
    config.dim = 6;
    config.rows_per_partition = 16;
    config.virtual_bytes_total = 64LL * 1000 * 1000;
    LogisticRegressionApp app(&job, config);
    app.Setup();
    app.RunInnerLoop(iterations);
  }

  std::vector<EventKey> keys;
  for (const trace::Event& e : trace::Tracer::Get().Snapshot()) {
    keys.push_back({e.type, e.lane, e.track, e.name, e.seq, e.virtual_ns, e.value});
  }
  trace::Tracer::Get().Disable();
  EXPECT_EQ(trace::Tracer::Get().dropped(), 0u);
  return keys;
}

class TraceDeterminismTest : public ::testing::TestWithParam<ControlMode> {
 protected:
  void SetUp() override {
#if defined(NIMBUS_TRACING_DISABLED)
    GTEST_SKIP() << "tracing compiled out (-DNIMBUS_TRACING=OFF)";
#endif
  }
};

TEST_P(TraceDeterminismTest, IdenticalRunsProduceIdenticalEventStreams) {
  const std::vector<EventKey> first = TracedLrRun(GetParam(), 4);
  const std::vector<EventKey> second = TracedLrRun(GetParam(), 4);

  ASSERT_GT(first.size(), 0u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i] == second[i])
        << "event " << i << ": " << first[i].name << " (seq " << first[i].seq << ", vt "
        << first[i].virtual_ns << ") vs " << second[i].name << " (seq " << second[i].seq
        << ", vt " << second[i].virtual_ns << ")";
    if (!(first[i] == second[i])) {
      break;  // one divergence is enough; the rest is cascade noise
    }
  }
}

TEST_P(TraceDeterminismTest, StreamCoversExpectedLanes) {
  const std::vector<EventKey> events = TracedLrRun(GetParam(), 4);
  bool controller = false, network = false, worker = false;
  for (const EventKey& e : events) {
    controller = controller || e.lane == trace::Lane::kController;
    network = network || e.lane == trace::Lane::kNetwork;
    worker = worker || e.lane == trace::Lane::kWorker;
  }
  EXPECT_TRUE(controller);
  EXPECT_TRUE(network);
  EXPECT_TRUE(worker);
}

INSTANTIATE_TEST_SUITE_P(Modes, TraceDeterminismTest,
                         ::testing::Values(ControlMode::kTemplates,
                                           ControlMode::kCentralOnly),
                         [](const ::testing::TestParamInfo<ControlMode>& param) {
                           return param.param == ControlMode::kTemplates ? "Templates"
                                                                         : "CentralOnly";
                         });

}  // namespace
}  // namespace nimbus
