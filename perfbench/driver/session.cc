#include "perfbench/driver/session.h"

#include <cstring>
#include <utility>

namespace perfbench {

using nimbus::ControlMode;
using nimbus::Job;
using nimbus::apps::LogisticRegressionApp;
using nimbus::apps::WaterSimApp;

namespace {

// Watersim block indices into Session::block_names_.
enum WsBlock { kFrameStart = 0, kDt, kAdvect, kCgInit, kCgIter, kProject };
constexpr const char* kWsBlockSuffixes[] = {"frame_start", "dt",      "advect",
                                            "cg_init",     "cg_iter", "project"};

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"lr-templates", AppKind::kLr, ControlMode::kTemplates, false},
      {"lr-central-pertask", AppKind::kLr, ControlMode::kCentralOnly, false},
      {"lr-central-serialized", AppKind::kLr, ControlMode::kCentralOnly, true},
      {"watersim-templates", AppKind::kWatersim, ControlMode::kTemplates, false},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

int Partitions(const Workload& workload) {
  return workload.app == AppKind::kLr ? kWorkers * kLrPartitionsPerWorker
                                      : kWatersimPartitions;
}

bool SameFrame(const FrameRecord& a, const FrameRecord& b) {
  return a.substeps == b.substeps && a.cg_iterations == b.cg_iterations &&
         a.blocks == b.blocks && std::memcmp(&a.volume, &b.volume, sizeof(double)) == 0;
}

Session::Session(const Workload& workload, std::uint64_t seed,
                 nimbus::TransportKind transport, bool command_log)
    : workload_(workload) {
  nimbus::ClusterOptions options;
  options.workers = kWorkers;
  options.partitions = Partitions(workload);
  options.mode = workload.mode;
  options.transport = transport;
  options.serialized_batching = workload.serialized_batching;
  options.enable_command_log = command_log;
  cluster_ = std::make_unique<nimbus::Cluster>(options);
  job_ = std::make_unique<Job>(cluster_.get());

  if (workload.app == AppKind::kLr) {
    LogisticRegressionApp::Config config;
    config.partitions = options.partitions;
    config.reduce_groups = kWorkers;
    config.rows_per_partition = kLrRowsPerPartition;
    config.seed = seed;
    lr_ = std::make_unique<LogisticRegressionApp>(job_.get(), config);
  } else {
    WaterSimApp::Config config;
    config.partitions = options.partitions;
    config.seed = seed;
    ws_ = std::make_unique<WaterSimApp>(job_.get(), config);
    for (const char* suffix : kWsBlockSuffixes) {
      block_names_.push_back(config.block_prefix + "_" + suffix);
    }
  }
}

Session::~Session() = default;

void Session::SetUp() {
  if (lr_) {
    lr_->Setup();
  } else {
    ws_->Setup();
  }
}

void Session::Warm() {
  const int units = lr_ ? kLrWarmupIterations : 1;
  for (int i = 0; i < units; ++i) {
    RunUnit(nullptr);
  }
}

Job::RunResult Session::Block(int name, int next, std::vector<BlockSample>* samples) {
  job_->HintNextBlock(block_names_[static_cast<std::size_t>(next)]);
  BlockSample s;
  s.call_ns = NowNs();
  Job::RunResult result = job_->RunBlock(block_names_[static_cast<std::size_t>(name)]);
  s.return_ns = NowNs();
  s.recovered = result.recovered;
  if (samples != nullptr) {
    samples->push_back(s);
  }
  if (after_block_) {
    after_block_();
  }
  return result;
}

std::uint64_t Session::RunUnit(std::vector<BlockSample>* samples) {
  if (lr_) {
    BlockSample s;
    s.call_ns = NowNs();
    const Job::RunResult result = lr_->RunInnerIteration();
    s.return_ns = NowNs();
    s.recovered = result.recovered;
    if (samples != nullptr) {
      samples->push_back(s);
    }
    if (after_block_) {
      after_block_();
    }
    ++lr_iterations_;
    return 1;
  }

  // WaterSimApp::RunFrame, block for block, with each block timed and the likely next
  // block hinted.
  const WaterSimApp::Config& c = ws_->config();
  const std::uint64_t blocks_before = job_->blocks_completed();
  FrameRecord record;
  Block(kFrameStart, kDt, samples);
  double frame_time = 0.0;
  while (frame_time < c.frame_duration - 1e-9 && record.substeps < c.max_substeps) {
    Block(kDt, kAdvect, samples);
    Block(kAdvect, kCgInit, samples);
    double residual = Block(kCgInit, kCgIter, samples).FirstScalar();
    int cg = 0;
    while (residual > c.cg_tolerance && cg < c.max_cg_iterations) {
      residual = Block(kCgIter, kCgIter, samples).FirstScalar();
      ++cg;
    }
    record.cg_iterations += cg;
    frame_time = Block(kProject, kDt, samples).FirstScalar();
    ++record.substeps;
  }
  record.blocks = job_->blocks_completed() - blocks_before;
  cluster_->Quiesce();
  record.volume = ws_->MeasureVolume();
  frames_.push_back(record);
  return record.blocks;
}

void Session::RunReferenceFrame() {
  const std::uint64_t blocks_before = job_->blocks_completed();
  const WaterSimApp::FrameStats stats = ws_->RunFrame();
  FrameRecord record;
  record.substeps = stats.substeps;
  record.cg_iterations = stats.total_cg_iterations;
  record.blocks = job_->blocks_completed() - blocks_before;
  cluster_->Quiesce();
  record.volume = ws_->MeasureVolume();
  frames_.push_back(record);
}

bool Session::CoefficientsMatchReference(bool corrupt) {
  cluster_->Quiesce();
  const std::vector<double> got = lr_->CoeffSnapshot();
  std::vector<double> want =
      LogisticRegressionApp::ReferenceInnerLoop(lr_->config(), lr_iterations_);
  if (corrupt && !want.empty()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &want[0], sizeof(bits));
    bits ^= 1;
    std::memcpy(&want[0], &bits, sizeof(bits));
  }
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0;
}

}  // namespace perfbench
