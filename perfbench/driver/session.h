// One benchmark session: a cluster, its job and the workload's application, driven
// closed-loop from the calling thread (one block outstanding at a time).
//
// Every block goes through Session::RunUnit, which stamps the wall clock around the public
// driver call — LogisticRegressionApp::RunInnerIteration for LR, Job::RunBlock for
// watersim. The watersim frame loop is the benchmark's own copy of WaterSimApp::RunFrame
// (same exits, same block order) so each of its ~700 blocks per frame can be timed; it
// adds lookahead hints, which are advisory and never change results. The simulator
// reference runs the application's own RunFrame, so any drift between the two loops
// fails the correctness check.

#ifndef PERFBENCH_DRIVER_SESSION_H_
#define PERFBENCH_DRIVER_SESSION_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/logistic_regression.h"
#include "src/apps/watersim.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"

namespace perfbench {

enum class AppKind { kLr, kWatersim };

struct Workload {
  const char* name;
  AppKind app;
  nimbus::ControlMode mode;
  bool serialized_batching;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

inline constexpr int kWorkers = 4;
inline constexpr int kLrPartitionsPerWorker = 79;
inline constexpr int kLrRowsPerPartition = 4;
inline constexpr int kWatersimPartitions = 4;

int Partitions(const Workload& workload);

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Wall stamps around one driver block.
struct BlockSample {
  std::int64_t call_ns = 0;
  std::int64_t return_ns = 0;
  bool recovered = false;
};

// What one watersim frame produced; compared field for field against the simulator.
struct FrameRecord {
  int substeps = 0;
  int cg_iterations = 0;
  std::uint64_t blocks = 0;
  double volume = 0.0;
};
bool SameFrame(const FrameRecord& a, const FrameRecord& b);

class Session {
 public:
  Session(const Workload& workload, std::uint64_t seed, nimbus::TransportKind transport,
          bool command_log = false);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // The application's Setup(): variables, functions, blocks and input data.
  void SetUp();
  // Warm-up: LR runs kLrWarmupIterations, watersim one frame, which captures and installs
  // every template the workload uses.
  void Warm();

  // One unit of driver work: one LR inner iteration, or one watersim frame. Appends one
  // BlockSample per block to `samples` when it is non-null; returns the blocks run.
  std::uint64_t RunUnit(std::vector<BlockSample>* samples);

  // Called after every block RunUnit runs (the traced run collects its stamps here).
  void set_after_block(std::function<void()> hook) { after_block_ = std::move(hook); }

  // Simulator reference for watersim: one frame through the application's own RunFrame.
  void RunReferenceFrame();

  // LR only: the cluster's coefficients against LogisticRegressionApp::ReferenceInnerLoop,
  // bit for bit. `corrupt` flips one bit of the reference (the checker's negative test).
  bool CoefficientsMatchReference(bool corrupt);

  const std::vector<FrameRecord>& frames() const { return frames_; }
  const Workload& workload() const { return workload_; }
  nimbus::Cluster& cluster() { return *cluster_; }
  nimbus::Job& job() { return *job_; }

  static constexpr int kLrWarmupIterations = 5;

 private:
  nimbus::Job::RunResult Block(int name, int next, std::vector<BlockSample>* samples);

  Workload workload_;
  std::unique_ptr<nimbus::Cluster> cluster_;
  std::unique_ptr<nimbus::Job> job_;
  std::unique_ptr<nimbus::apps::LogisticRegressionApp> lr_;
  std::unique_ptr<nimbus::apps::WaterSimApp> ws_;
  std::vector<std::string> block_names_;  // watersim, indexed by the kWs* constants
  std::function<void()> after_block_;
  int lr_iterations_ = 0;
  std::vector<FrameRecord> frames_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SESSION_H_
