#include "src/driver/job.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/data/payload.h"
#include "src/task/wire.h"

namespace nimbus {

Job::Job(Cluster* cluster) : cluster_(cluster) {
  cluster_->SetDriverHandler(
      [this](net::NodeAddress src, MessageKind kind, ParameterBlob bytes) {
        OnEnvelope(src, kind, std::move(bytes));
      });
}

void Job::OnEnvelope(net::NodeAddress src, MessageKind kind, ParameterBlob bytes) {
  (void)src;
  (void)kind;
  switch (wire::PeekEnvelopeType(bytes)) {
    case wire::EnvelopeType::kBlockDone: {
      wire::BlockDoneEnvelope e = wire::DecodeBlockDoneEnvelope(bytes);
      if (e.request_id == waiting_request_) {
        pending_scalars_ = std::move(e.scalars);
        pending_done_ = true;
      }
      return;
    }
    case wire::EnvelopeType::kCheckpointDone: {
      if (wire::DecodeCheckpointDoneEnvelope(bytes) == waiting_request_) {
        checkpoint_done_ = true;
      }
      return;
    }
    case wire::EnvelopeType::kRecoveryNotice: {
      const wire::RecoveryNoticeEnvelope e = wire::DecodeRecoveryNoticeEnvelope(bytes);
      // The controller repeats a notice to answer each request sent before the driver saw
      // it; only a newer epoch is news.
      if (e.epoch > recovery_epoch_) {
        recovery_epoch_ = e.epoch;
        recovery_marker_ = e.marker;
        recovery_pending_ = true;
      }
      return;
    }
    case wire::EnvelopeType::kSuspectNotice: {
      // Informational: the controller suspects a worker but has not declared it failed.
      // The driver only counts them (tests assert the suspicion path fired).
      wire::DecodeSuspectNoticeEnvelope(bytes);
      ++suspect_notices_;
      return;
    }
    default:
      NIMBUS_CHECK(false) << "unexpected driver-bound envelope type "
                          << static_cast<int>(wire::PeekEnvelopeType(bytes));
  }
}

VariableId Job::DefineVariable(const std::string& name, int partitions,
                               std::int64_t virtual_bytes_per_partition) {
  return cluster_->controller().DefineVariable(name, partitions, virtual_bytes_per_partition);
}

FunctionId Job::RegisterFunction(const std::string& name, TaskFunction fn) {
  return cluster_->functions().Register(name, std::move(fn));
}

void Job::DefineBlock(const std::string& name, std::vector<StageDescriptor> stages) {
  BlockDef def;
  def.task_count = 0;
  for (const auto& s : stages) {
    def.task_count += s.tasks.size();
  }
  def.stages = std::move(stages);
  blocks_[name] = std::move(def);
}

std::uint64_t Job::OpenRequest(std::uint64_t* epoch) {
  ++last_request_id_;
  cluster_->WithDriver([this, epoch]() {
    if (recovery_pending_) {
      return;
    }
    waiting_request_ = last_request_id_;
    pending_done_ = false;
    pending_scalars_.clear();
    checkpoint_done_ = false;
    *epoch = recovery_epoch_;
  });
  // Only this thread writes waiting_request_ (0 between requests), so reading it back
  // needs no serialization.
  return waiting_request_;
}

Job::RunResult Job::TakeRecovery() {
  RunResult result;
  cluster_->WithDriver([this, &result]() {
    NIMBUS_CHECK(recovery_pending_);
    recovery_pending_ = false;
    result.recovered = true;
    result.resume_marker = recovery_marker_;
  });
  return result;
}

Job::RunResult Job::ExecuteAndWait(ParameterBlob request, std::int64_t request_bytes) {
  cluster_->transport().Send(net::NodeAddress::Driver(), net::NodeAddress::Controller(),
                             MessageKind::kControl, std::move(request), request_bytes);

  const bool ok =
      cluster_->AwaitDriver([this]() { return pending_done_ || recovery_pending_; });
  NIMBUS_CHECK(ok || pending_done_ || recovery_pending_)
      << "cluster drained without completing the request";

  cluster_->WithDriver([&]() { waiting_request_ = 0; });
  if (!pending_done_) {
    return TakeRecovery();
  }
  RunResult result;
  result.scalars = std::move(pending_scalars_);
  // Transport invariance: under TCP workers complete concurrently, so arrival order
  // races. Task ids give the one canonical order both backends agree on bit-for-bit.
  std::sort(result.scalars.begin(), result.scalars.end(),
            [](const ScalarResult& a, const ScalarResult& b) { return a.task < b.task; });
  return result;
}

const std::vector<StageDescriptor>& Job::WithParams(const std::vector<StageDescriptor>& stages,
                                                    const SparseParams& params,
                                                    std::vector<StageDescriptor>* scratch) {
  std::size_t task_count = 0;
  for (const auto& stage : stages) {
    task_count += stage.tasks.size();
  }
  const bool any_applies =
      std::any_of(params.begin(), params.end(), [task_count](const auto& param) {
        return param.first >= 0 && static_cast<std::size_t>(param.first) < task_count;
      });
  if (!any_applies) {
    return stages;
  }
  *scratch = stages;
  std::int32_t slot = 0;
  for (auto& stage : *scratch) {
    for (auto& task : stage.tasks) {
      for (const auto& [pslot, blob] : params) {
        if (pslot == slot) {
          task.params = blob;
        }
      }
      ++slot;
    }
  }
  return *scratch;
}

Job::RunResult Job::SubmitStages(const std::vector<StageDescriptor>& stages,
                                 const std::string& capture_name) {
  std::int64_t bytes = 64;
  for (const auto& s : stages) {
    bytes += static_cast<std::int64_t>(s.tasks.size()) * 96;
  }
  std::uint64_t epoch = 0;
  const std::uint64_t request_id = OpenRequest(&epoch);
  if (request_id == 0) {
    return TakeRecovery();
  }
  return ExecuteAndWait(
      wire::EncodeSubmitStagesEnvelope(request_id, epoch, capture_name, stages), bytes);
}

Job::RunResult Job::RunStages(std::vector<StageDescriptor> stages) {
  return SubmitStages(stages, std::string());
}

Job::RunResult Job::RunBlock(const std::string& name, SparseParams params) {
  auto it = blocks_.find(name);
  NIMBUS_CHECK(it != blocks_.end()) << "unknown block '" << name << "'";
  BlockDef& def = it->second;
  NimbusController& controller = cluster_->controller();

  // Automatic checkpoint insertion between blocks (worker queues are drained here).
  if (auto_checkpoint_every_ > 0 && blocks_completed_ > 0 &&
      blocks_completed_ % auto_checkpoint_every_ == 0 &&
      blocks_completed_ != last_auto_checkpoint_) {
    last_auto_checkpoint_ = blocks_completed_;
    Checkpoint(blocks_completed_);
  }
  ++blocks_completed_;

  const bool use_templates =
      templates_enabled_ && controller.mode() != ControlMode::kCentralOnly;

  // Central runs encode the recorded stages in place; only an applied param copies them.
  std::vector<StageDescriptor> scratch;
  if (!use_templates) {
    return SubmitStages(WithParams(def.stages, params, &scratch), std::string());
  }

  if (!def.captured) {
    // First templated run: mark the basic block and capture it while executing centrally
    // (paper §4.1: "it simultaneously schedules them normally and stores them").
    RunResult result = SubmitStages(WithParams(def.stages, params, &scratch), name);
    if (!result.recovered) {
      def.captured = true;
    }
    return result;
  }

  // Steady state: a single instantiation message (paper §2.2: n+1 messages per block).
  // The lookahead hint rides the request (a few bytes naming the next block) so the
  // controller can pre-validate it while this block's messages assemble (DESIGN.md §9).
  std::int64_t bytes = 64;
  for (const auto& [slot, blob] : params) {
    bytes += 8 + static_cast<std::int64_t>(blob.size());
  }
  bytes += static_cast<std::int64_t>(next_block_hint_.size());
  wire::InstantiateRequestEnvelope e;
  e.request_id = OpenRequest(&e.epoch);
  if (e.request_id == 0) {
    return TakeRecovery();
  }
  e.name = name;
  e.params = std::move(params);
  e.next_hint = next_block_hint_;
  return ExecuteAndWait(wire::EncodeInstantiateRequestEnvelope(e), bytes);
}

Job::RunResult Job::RunBlockSequence(
    const std::vector<std::pair<std::string, SparseParams>>& seq) {
  RunResult result;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    HintNextBlock(i + 1 < seq.size() ? seq[i + 1].first : std::string());
    result = RunBlock(seq[i].first, seq[i].second);
    if (result.recovered) {
      break;  // the driver reruns from the checkpoint marker; the hint is stale anyway
    }
  }
  HintNextBlock(std::string());
  return result;
}

std::vector<double> Job::ReadVector(VariableId variable, int partition) {
  const LogicalObjectId obj = cluster_->directory().ObjectFor(variable, partition);
  const WorkerId holder = cluster_->controller().versions().AnyLatestHolder(obj);
  NIMBUS_CHECK(holder.valid());
  Worker* worker = cluster_->worker(holder);
  NIMBUS_CHECK(worker != nullptr);
  const auto* payload = dynamic_cast<const VectorPayload*>(worker->store().Get(obj));
  NIMBUS_CHECK(payload != nullptr);
  return payload->values();
}

void Job::Checkpoint(std::uint64_t marker) {
  wire::CheckpointRequestEnvelope e;
  e.request_id = OpenRequest(&e.epoch);
  if (e.request_id == 0) {
    return;  // a recovery is pending: the next block reports it, and no checkpoint is due
  }
  e.marker = marker;
  cluster_->transport().Send(net::NodeAddress::Driver(), net::NodeAddress::Controller(),
                             MessageKind::kControl, wire::EncodeCheckpointRequestEnvelope(e),
                             /*cost_bytes=*/32);
  // A recovery that lands first abandons the checkpoint; its notice stays pending for the
  // next block to report.
  const bool ok = cluster_->AwaitDriver(
      [this]() { return checkpoint_done_ || recovery_pending_; });
  NIMBUS_CHECK(ok || checkpoint_done_ || recovery_pending_) << "checkpoint did not complete";
  cluster_->WithDriver([&]() { waiting_request_ = 0; });
}

}  // namespace nimbus
