#include "src/controller/controller.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/tracing.h"

namespace nimbus {

namespace {
// Controller phases all live on track 0 of the controller trace lane (DESIGN.md §12.3).
constexpr std::uint32_t kControlTrack = 0;
}  // namespace

NimbusController::NimbusController(sim::WorkMeter meter, net::Transport* transport,
                                   ObjectDirectory* directory, DurableStore* durable,
                                   ControlMode mode, ControllerSwitches switches,
                                   net::TimerQueue* timers)
    : transport_(transport),
      timers_(timers),
      directory_(directory),
      durable_(durable),
      mode_(mode),
      switches_(switches),
      meter_(std::move(meter)) {}

void NimbusController::OnEnvelope(net::NodeAddress src, MessageKind kind,
                                  ParameterBlob bytes) {
  static_cast<void>(src);
  static_cast<void>(kind);
  switch (wire::PeekEnvelopeType(bytes)) {
    case wire::EnvelopeType::kHeartbeat: {
      const wire::HeartbeatEnvelope e = wire::DecodeHeartbeatEnvelope(bytes);
      OnHeartbeat(e.worker, e.seq);
      break;
    }
    case wire::EnvelopeType::kGroupComplete: {
      wire::GroupCompleteEnvelope e = wire::DecodeGroupCompleteEnvelope(bytes);
      OnGroupComplete(e.worker, e.group_seq, std::move(e.scalars));
      break;
    }
    case wire::EnvelopeType::kSubmitStages: {
      const wire::ScratchGuard guard(&submit_scratch_live_);
      wire::DecodeSubmitStagesEnvelope(bytes, &submit_scratch_);
      const wire::SubmitStagesEnvelope& e = submit_scratch_;
      if (!RequestIsCurrent(e.epoch)) {
        break;
      }
      const std::uint64_t request_id = e.request_id;
      BlockDone done = [this, request_id](std::vector<ScalarResult> scalars) {
        SendBlockDone(request_id, std::move(scalars));
      };
      if (!e.capture_name.empty()) {
        BeginTemplate(e.capture_name);
        SubmitStages(e.stages, std::move(done));
        EndTemplate();
      } else {
        SubmitStages(e.stages, std::move(done));
      }
      break;
    }
    case wire::EnvelopeType::kInstantiateRequest: {
      wire::InstantiateRequestEnvelope e = wire::DecodeInstantiateRequestEnvelope(bytes);
      if (!RequestIsCurrent(e.epoch)) {
        break;
      }
      const std::uint64_t request_id = e.request_id;
      InstantiateTemplate(
          e.name, std::move(e.params),
          [this, request_id](std::vector<ScalarResult> scalars) {
            SendBlockDone(request_id, std::move(scalars));
          },
          e.next_hint);
      break;
    }
    case wire::EnvelopeType::kCheckpointRequest: {
      wire::CheckpointRequestEnvelope e = wire::DecodeCheckpointRequestEnvelope(bytes);
      if (!RequestIsCurrent(e.epoch)) {
        break;
      }
      const std::uint64_t request_id = e.request_id;
      TriggerCheckpoint(e.marker, [this, request_id]() {
        transport_->Send(net::NodeAddress::Controller(), net::NodeAddress::Driver(),
                         MessageKind::kControl,
                         wire::EncodeCheckpointDoneEnvelope(request_id),
                         /*cost_bytes=*/16);
      });
      break;
    }
    default:
      NIMBUS_CHECK(false) << "controller: unexpected envelope type "
                          << static_cast<int>(wire::PeekEnvelopeType(bytes));
  }
}

bool NimbusController::RequestIsCurrent(std::uint64_t epoch) {
  if (epoch == recovery_epoch_) {
    return true;
  }
  // Sent before the driver learned of the latest recovery: running it would apply a block
  // the driver reruns from the checkpoint marker. Answer with the notice, unless that
  // recovery is still reloading — its own notice answers the request when it completes.
  // (No driver sends an epoch it was never told; such a request is dropped too.)
  if (epoch < recovery_epoch_ && notified_epoch_ == recovery_epoch_) {
    SendRecoveryNotice();
  }
  return false;
}

void NimbusController::SendRecoveryNotice() {
  notified_epoch_ = recovery_epoch_;
  wire::RecoveryNoticeEnvelope e;
  e.epoch = recovery_epoch_;
  e.marker = checkpoint_.driver_marker;
  transport_->Send(net::NodeAddress::Controller(), net::NodeAddress::Driver(),
                   MessageKind::kControl, wire::EncodeRecoveryNoticeEnvelope(e),
                   /*cost_bytes=*/16);
}

void NimbusController::SendBlockDone(std::uint64_t request_id,
                                     std::vector<ScalarResult> scalars) {
  wire::BlockDoneEnvelope e;
  e.request_id = request_id;
  e.scalars = std::move(scalars);
  const std::int64_t bytes = 64 + static_cast<std::int64_t>(e.scalars.size()) * 16;
  transport_->Send(net::NodeAddress::Controller(), net::NodeAddress::Driver(),
                   MessageKind::kControl, wire::EncodeBlockDoneEnvelope(e), bytes);
}

// -----------------------------------------------------------------------------------------
// Membership & placement
// -----------------------------------------------------------------------------------------

void NimbusController::AttachWorker(WorkerId worker) {
  worker_ids_.Intern(worker);
  worker_records_.EnsureSize(worker_ids_.size());
}

NimbusController::WorkerRecord* NimbusController::RecordFor(WorkerId id) {
  const DenseIndex index = worker_ids_.Find(id);
  return index == kInvalidDenseIndex ? nullptr : &worker_records_[index];
}

const NimbusController::WorkerRecord* NimbusController::RecordFor(WorkerId id) const {
  const DenseIndex index = worker_ids_.Find(id);
  return index == kInvalidDenseIndex ? nullptr : &worker_records_[index];
}

void NimbusController::RevokeWorkers(const std::vector<WorkerId>& workers) {
  for (WorkerId w : workers) {
    if (WorkerRecord* record = RecordFor(w)) {
      record->revoked = true;
    }
  }
  Rebalance();
}

void NimbusController::RestoreWorkers(const std::vector<WorkerId>& workers) {
  for (WorkerId w : workers) {
    WorkerRecord* record = RecordFor(w);
    if (record == nullptr) {
      continue;
    }
    record->revoked = false;
    // Liveness restarts now: the stale pre-revocation timestamp must not count against a
    // worker that was silent (legitimately) while out of the allocation.
    record->last_heard = timers_->Now();
    record->suspect = false;
  }
  Rebalance();
}

std::vector<WorkerId> NimbusController::ActiveWorkers() const {
  std::vector<WorkerId> out;
  for (DenseIndex i = 0; i < worker_ids_.size(); ++i) {
    const WorkerRecord& record = worker_records_[i];
    if (!record.revoked && !record.failed) {
      out.push_back(worker_ids_.Resolve(i));
    }
  }
  return out;
}

void NimbusController::SetPartitions(int partitions) {
  partitions_ = partitions;
  Rebalance();
}

void NimbusController::Rebalance() {
  const std::vector<WorkerId> active = ActiveWorkers();
  NIMBUS_CHECK(!active.empty()) << "no active workers";
  if (partitions_ > 0) {
    assignment_ = core::Assignment::RoundRobin(partitions_, active);
  }
}

VariableId NimbusController::DefineVariable(const std::string& name, int variable_partitions,
                                            std::int64_t virtual_bytes_per_partition) {
  return directory_->DefineVariable(name, variable_partitions, virtual_bytes_per_partition);
}

NimbusController::SetState& NimbusController::StateFor(WorkerTemplateId id) {
  // The template manager allocates worker-template ids contiguously from 0, so the
  // id value doubles as the dense index.
  NIMBUS_CHECK(id.valid());
  const auto index = static_cast<DenseIndex>(id.value());
  set_states_.EnsureSize(index + 1);
  return set_states_[index];
}

std::int64_t NimbusController::ObjectBytes(LogicalObjectId object) const {
  return directory_->object(object).virtual_bytes;
}

core::ObjectBytesFn NimbusController::BytesFn() const {
  return [this](LogicalObjectId object) { return ObjectBytes(object); };
}

// -----------------------------------------------------------------------------------------
// Pending-block bookkeeping
// -----------------------------------------------------------------------------------------

NimbusController::PendingBlock* NimbusController::NewPendingBlock(BlockDone done) {
  auto block = std::make_unique<PendingBlock>();
  block->done = std::move(done);
  PendingBlock* out = block.get();
  pending_blocks_.push_back(std::move(block));
  return out;
}

void NimbusController::RegisterGroup(std::uint64_t seq, PendingBlock* block,
                                     int participating) {
  block->outstanding_groups.push_back(seq);
  GroupTracker& tracker = groups_.Slot(seq);
  tracker.block = block;
  tracker.remaining = participating;
}

void NimbusController::OnGroupComplete(WorkerId worker_id, std::uint64_t seq,
                                       std::vector<ScalarResult> scalars) {
  if (WorkerRecord* record = RecordFor(worker_id); record != nullptr && !record->failed) {
    // Detection clock, never a simulation's: a virtual stamp here would make the worker
    // look silent for eons at the next wall-clock heartbeat check (DESIGN.md §14.1).
    record->last_heard = timers_->Now();
  }
  GroupTracker* tracker = groups_.Find(seq);
  if (tracker == nullptr || tracker->block == nullptr) {
    return;  // stale (pre-recovery) groups are untracked
  }
  PendingBlock* block = tracker->block;
  for (ScalarResult& s : scalars) {
    block->scalars.push_back(s);
  }
  // The same seq is shared by all workers participating in a block group: wait for all.
  if (--tracker->remaining > 0) {
    return;
  }
  *tracker = GroupTracker{};
  groups_.Retire();
  auto& outstanding = block->outstanding_groups;
  outstanding.erase(std::remove(outstanding.begin(), outstanding.end(), seq),
                    outstanding.end());
  FinishIfIdle(block);
}

void NimbusController::FinishIfIdle(PendingBlock* block) {
  if (!block->outstanding_groups.empty()) {
    return;
  }
  BlockDone done = std::move(block->done);
  std::vector<ScalarResult> collected = std::move(block->scalars);
  for (auto it = pending_blocks_.begin(); it != pending_blocks_.end(); ++it) {
    if (it->get() == block) {
      pending_blocks_.erase(it);
      break;
    }
  }
  if (done) {
    done(std::move(collected));
  }
}

// -----------------------------------------------------------------------------------------
// Central scheduling path
// -----------------------------------------------------------------------------------------

void NimbusController::EnsureObjectsExist(const core::WorkerTemplateSet& set) {
  // One sweep over the compiled write deltas: existence probes and creation are flat array
  // operations in the version map's dense id space (serial — creation is map-global).
  // lint:allow(map-invalidate) -- thin wrapper; every caller invalidates (or holds a
  // just-invalidated lookahead) before dispatching the block this sweep belongs to
  pipeline_.EnsureObjectsExist(set, &versions_);
}

void NimbusController::SubmitStages(const std::vector<StageDescriptor>& stages,
                                    BlockDone done) {
  PendingBlock* block = NewPendingBlock(std::move(done));
  ExecuteStagesCentrally(stages, block);
  FinishIfIdle(block);  // an empty block dispatches no group
}

void NimbusController::ExecuteStagesCentrally(const std::vector<StageDescriptor>& stages,
                                              PendingBlock* block) {
  for (const StageDescriptor& stage : stages) {
    NIMBUS_TRACE_SPAN(trace::Lane::kController, kControlTrack, "stage_central");
    // Capture feeds the template being recorded, charging the Table 1 install cost. It is
    // independent of the plan cache (capture is a one-off; the plan may already be warm).
    if (templates_.capturing()) {
      const core::ControllerTemplate adhoc = CompileStageTemplate(stage,
                                                                  /*include_params=*/true);
      for (const core::TemplateEntry& e : adhoc.entries()) {
        templates_.CaptureTask(e.function, e.reads, e.writes, e.placement_partition,
                               e.duration, e.returns_scalar, e.cached_params);
        meter_.Charge(sim::Work::kCaptureTask, 1);
      }
    }

    bool newly = false;
    core::WorkerTemplateSet* set = templates_.GetOrBuildStagePlan(
        StageSignature(stage), assignment_,
        [this, &stage]() { return CompileStageTemplate(stage, /*include_params=*/false); },
        BytesFn(), stage.tasks.size(), &newly);
    if (switches_.serialized_batching) {
      // Plan compilation IS the dependency analysis: charged at the per-task rate on the
      // cold build only, plus the sweep. Per-task dispatch (the paper's baseline) models
      // re-analysis in its per-command charge instead.
      if (newly) {
        meter_.Charge(sim::Work::kCentralSchedule, stage.tasks.size());
      }
      meter_.Charge(sim::Work::kValidateEntry, set->preconditions().size());
    }

    // Sparse per-entry params come from the stage descriptors themselves on this path.
    std::vector<std::pair<std::int32_t, ParameterBlob>> params;
    for (std::size_t i = 0; i < stage.tasks.size(); ++i) {
      if (!stage.tasks[i].params.empty()) {
        params.emplace_back(static_cast<std::int32_t>(i), stage.tasks[i].params);
      }
    }
    RunSetCentrallyWithPatches(*set, params, block);
  }
  prev_executed_ = core::PatchCache::kEntryFromOutside;
}

std::uint64_t NimbusController::StageSignature(const StageDescriptor& stage) const {
  // Content hash over everything that shapes the projected plan: the schedule (assignment +
  // partition space) and each task's function, placement, duration, and object references.
  // Per-task params are deliberately excluded — they are instantiation parameters, routed
  // fresh on every dispatch. Size fields separate the variable-length sections so
  // concatenation ambiguity cannot alias two stages.
  std::size_t h = HashCombine(0x53544147u, std::hash<std::string>{}(stage.name));
  h = HashCombine(h, static_cast<std::size_t>(assignment_.Signature()));
  h = HashCombine(h, static_cast<std::size_t>(partitions_));
  h = HashCombine(h, stage.tasks.size());
  for (const TaskDescriptor& task : stage.tasks) {
    h = HashCombine(h, static_cast<std::size_t>(task.function.value()));
    h = HashCombine(h, static_cast<std::size_t>(task.placement_partition + 1));
    h = HashCombine(h, static_cast<std::size_t>(task.duration));
    h = HashCombine(h, task.returns_scalar ? 1u : 2u);
    h = HashCombine(h, task.reads.size());
    for (const ObjRef& r : task.reads) {
      h = HashCombine(h, static_cast<std::size_t>(r.variable.value()));
      h = HashCombine(h, static_cast<std::size_t>(r.partition));
    }
    h = HashCombine(h, task.writes.size());
    for (const ObjRef& w : task.writes) {
      h = HashCombine(h, static_cast<std::size_t>(w.variable.value()));
      h = HashCombine(h, static_cast<std::size_t>(w.partition));
    }
  }
  return h;
}

core::ControllerTemplate NimbusController::CompileStageTemplate(const StageDescriptor& stage,
                                                                bool include_params) {
  core::ControllerTemplate adhoc(TemplateId::Invalid(), stage.name);
  for (const TaskDescriptor& task : stage.tasks) {
    core::TemplateEntry entry;
    entry.function = task.function;
    for (const ObjRef& r : task.reads) {
      entry.reads.push_back(directory_->ObjectFor(r.variable, r.partition));
    }
    for (const ObjRef& w : task.writes) {
      entry.writes.push_back(directory_->ObjectFor(w.variable, w.partition));
    }
    entry.placement_partition =
        task.placement_partition >= 0
            ? task.placement_partition
            : (task.writes.empty() ? 0 : task.writes.front().partition % partitions_);
    entry.duration = task.duration;
    entry.returns_scalar = task.returns_scalar;
    // Stage plans cache structure only (dispatch routes the current stage's non-empty
    // params as overrides — exactly when the per-task path would have used them, since
    // empty params resolve to empty either way); the per-task path and capture bake them.
    if (include_params) {
      entry.cached_params = task.params;
    }
    adhoc.AppendEntry(std::move(entry));
  }
  adhoc.MarkFinished();
  return adhoc;
}

void NimbusController::DispatchCentralBlock(
    const core::WorkerTemplateSet& set,
    const std::vector<std::pair<std::int32_t, ParameterBlob>>& params, PendingBlock* block) {
  NIMBUS_TRACE_SPAN(trace::Lane::kController, kControlTrack, "dispatch_central_block");
  const std::uint64_t seq = NewGroupSeq();
  const TaskId task_base = task_ids_.NextRange(set.entry_meta().size());

  // Command-id ranges are allocated per participating half in halves order — the same
  // allocation sequence as the per-task dispatcher, so ids match bit-for-bit.
  const auto& halves = set.halves();
  std::vector<CommandId> bases(halves.size(), CommandId::Invalid());
  for (std::size_t h = 0; h < halves.size(); ++h) {
    if (!halves[h].entries.empty()) {
      bases[h] = command_ids_.NextRange(halves[h].entries.size());
    }
  }

  // Ship each worker's pre-encoded wire buffer (DESIGN.md §10). Cold batches (template
  // just encoded) pay the encode; steady-state batches pay only the memcpy-scale patch
  // costs — the gap Fig 8's central-serialized series measures.
  if (phase_probe_) {
    phase_probe_("assemble");
  }
  std::vector<runtime::SerializedBatch> batches =
      pipeline_.AssembleSerializedBatches(set, params, seq, task_base, bases);
  if (phase_probe_) {
    phase_probe_("dispatch");
  }
  int participating = 0;
  for (runtime::SerializedBatch& batch : batches) {
    ++participating;
    tasks_dispatched_ += batch.task_count;
    const std::size_t total = batch.command_count;
    if (batch.reused) {
      meter_.Charge(sim::Work::kBatchCopy, total);
      meter_.Charge(sim::Work::kBatchPatchSlot, batch.params_patched);
    } else {
      meter_.Charge(sim::Work::kBatchEncode, total);
    }
    const std::int64_t wire = batch.wire_size;  // modeled size: the nested NBW1 bytes
    meter_.Submit(batch.reused ? sim::Work::kBatchReuse : sim::Work::kBatchBuild, 1,
                  [this, dst = net::NodeAddress::ForWorker(batch.worker),
                   bytes = std::move(batch.bytes), seq, total, wire]() mutable {
      wire::SerializedBatchEnvelope e;
      e.group_seq = seq;
      e.expected_total = total;
      e.batch = std::move(bytes);
      transport_->Send(net::NodeAddress::Controller(), dst, MessageKind::kSerializedBatch,
                       wire::EncodeSerializedBatchEnvelope(e), wire);
    });
  }
  if (participating > 0) {
    RegisterGroup(seq, block, participating);
  }
}

void NimbusController::DispatchSetCentrally(
    const core::WorkerTemplateSet& set,
    const std::vector<std::pair<std::int32_t, ParameterBlob>>& params, PendingBlock* block) {
  if (phase_probe_) {
    phase_probe_("dispatch");
  }
  const std::uint64_t seq = NewGroupSeq();
  const TaskId task_base = task_ids_.NextRange(set.entry_meta().size());

  std::unordered_map<std::int32_t, const ParameterBlob*> param_of;
  for (const auto& [slot, blob] : params) {
    param_of.emplace(slot, &blob);
  }

  const sim::Work per_task =
      mode_ == ControlMode::kCentralOnly || mode_ == ControlMode::kTemplates
          ? sim::Work::kCentralSchedule
          : sim::Work::kSparkSchedule;

  // Per-task dispatch encodes one single-command envelope per entry, refilled in place.
  wire::CommandsEnvelope& envelope = dispatch_scratch_;
  envelope.commands.resize(1);
  Command& cmd = envelope.commands[0];
  int participating = 0;
  for (const core::WorkerHalf& half : set.halves()) {
    if (half.entries.empty()) {
      continue;
    }
    ++participating;
    const net::NodeAddress dst = net::NodeAddress::ForWorker(half.worker);
    const CommandId base = command_ids_.NextRange(half.entries.size());

    envelope.group_seq = seq;
    envelope.expected_total = half.entries.size();
    for (std::size_t i = 0; i < half.entries.size(); ++i) {
      const core::WtEntry& e = half.entries[i];
      const ParameterBlob* override_params = nullptr;
      if (e.type == CommandType::kTask) {
        auto pit = param_of.find(e.global_entry);
        if (pit != param_of.end()) {
          override_params = pit->second;
        }
        ++tasks_dispatched_;
      }
      // One shared builder with the pipeline's serialized cold encode
      // (core::CommandFromEntry): the bit-identical-streams contract between the two wire
      // forms is structural. The one scratch command is refilled within its kept capacity
      // and encoded here, so the queued send carries only its bytes.
      core::CommandFromEntry(e, i, base, task_base, seq, override_params, &cmd);
      const std::int64_t wire = cmd.WireSize();

      // Each command is individually scheduled (per-task controller cost) and sent as its
      // own message: this is exactly the bottleneck the paper's Fig 1/8 demonstrate.
      ParameterBlob bytes = wire::EncodeCommandsEnvelope(envelope);
      meter_.Submit(per_task, 1, [this, dst, wire, bytes = std::move(bytes)]() mutable {
        transport_->Send(net::NodeAddress::Controller(), dst, MessageKind::kCommand,
                         std::move(bytes), wire);
      });
    }
  }
  if (participating > 0) {
    // Every participating worker reports completion for `seq`; we need all of them.
    RegisterGroup(seq, block, participating);
  }
}

void NimbusController::SendCommandGroups(std::uint64_t seq,
                                         std::map<WorkerId, std::vector<Command>> per_worker,
                                         PendingBlock* block) {
  if (per_worker.empty()) {
    return;
  }
  const int participating = static_cast<int>(per_worker.size());
  for (auto& [wid, cmds] : per_worker) {
    const CommandId base = command_ids_.NextRange(cmds.size());
    std::int64_t wire = 0;
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      cmds[i].id = CommandId(base.value() + i);
      wire += cmds[i].WireSize();
    }
    meter_.Submit(sim::Work::kMessageSend, 1,
                  [this, dst = net::NodeAddress::ForWorker(wid), seq, cmds = std::move(cmds),
                   wire]() mutable {
      wire::CommandsEnvelope e;
      e.group_seq = seq;
      e.expected_total = cmds.size();
      e.commands = std::move(cmds);
      transport_->Send(net::NodeAddress::Controller(), dst, MessageKind::kCommand,
                       wire::EncodeCommandsEnvelope(e), wire);
    });
  }
  RegisterGroup(seq, block, participating);
}

void NimbusController::DispatchPatch(const core::Patch& patch, PendingBlock* block) {
  if (patch.empty()) {
    return;
  }
  const std::uint64_t seq = NewGroupSeq();
  // Group the directives by src (sends) and dst (receives).
  std::map<WorkerId, std::vector<Command>> sends;
  std::map<WorkerId, std::vector<Command>> recvs;
  std::int32_t copy_index = 0;
  for (const core::PatchDirective& d : patch.directives) {
    Command send;
    send.type = CommandType::kCopySend;
    send.copy_id = MakeCopyId(seq, copy_index);
    send.peer = d.dst;
    send.copy_object = d.object;
    send.copy_bytes = d.bytes;
    sends[d.src].push_back(std::move(send));

    Command recv;
    recv.type = CommandType::kCopyReceive;
    recv.copy_id = MakeCopyId(seq, copy_index);
    recv.peer = d.src;
    recv.copy_object = d.object;
    recv.copy_bytes = d.bytes;
    recvs[d.dst].push_back(std::move(recv));
    ++copy_index;
  }

  // A worker may be both a copy source and destination within one patch: its sends
  // precede its receives in its one group.
  std::map<WorkerId, std::vector<Command>> merged = std::move(sends);
  for (auto& [wid, cmds] : recvs) {
    auto& dst = merged[wid];
    for (Command& c : cmds) {
      dst.push_back(std::move(c));
    }
  }
  SendCommandGroups(seq, std::move(merged), block);
}

// -----------------------------------------------------------------------------------------
// Template lifecycle
// -----------------------------------------------------------------------------------------

TemplateId NimbusController::BeginTemplate(const std::string& name) {
  NIMBUS_CHECK(mode_ != ControlMode::kCentralOnly)
      << "templates are disabled in kCentralOnly mode";
  return templates_.BeginCapture(name);
}

void NimbusController::EndTemplate() { templates_.FinishCapture(); }

bool NimbusController::HasTemplate(const std::string& name) const {
  return templates_.FindByName(name).valid();
}

const core::WorkerTemplateSet* NimbusController::ResolveLookaheadTarget(
    const std::string& next_name, const core::WorkerTemplateSet* current) {
  if (next_name.empty() || mode_ != ControlMode::kTemplates ||
      switches_.force_full_validation) {
    // force_full_validation pins the serial sweep (the ablation bench's contract), so an
    // overlapped sweep could never be consumed — don't schedule one.
    return nullptr;
  }
  const TemplateId tid = templates_.FindByName(next_name);
  if (!tid.valid()) {
    return nullptr;
  }
  const core::ControllerTemplate* tmpl = templates_.Find(tid);
  if (tmpl == nullptr || !tmpl->finished()) {
    return nullptr;
  }
  core::WorkerTemplateSet* candidate = templates_.FindProjection(tid, assignment_);
  if (candidate == nullptr) {
    return nullptr;  // not yet projected: its next run is a bring-up stage (central)
  }
  SetState& state = StateFor(candidate->id());
  if (!state.installed_on_workers) {
    return nullptr;  // worker halves not installed: ditto
  }
  if (state.pending_edits.tasks_touched > 0) {
    return nullptr;  // edits force a fresh validation at the consuming instantiation
  }
  // A self-follow of a self-validating set auto-validates for free (§4.2): overlapping
  // its sweep would only add the scheduling charge.
  if (candidate == current && candidate->self_validating()) {
    return nullptr;
  }
  return candidate;
}

void NimbusController::InstantiateTemplate(
    const std::string& name, std::vector<std::pair<std::int32_t, ParameterBlob>> params,
    BlockDone done, const std::string& next_name) {
  NIMBUS_TRACE_SPAN(trace::Lane::kController, kControlTrack, "instantiate_template");
  const TemplateId tid = templates_.FindByName(name);
  NIMBUS_CHECK(tid.valid()) << "unknown template '" << name << "'";
  core::ControllerTemplate* tmpl = templates_.Find(tid);
  NIMBUS_CHECK(tmpl->finished()) << "instantiating unfinished template '" << name << "'";

  PendingBlock* block = NewPendingBlock(std::move(done));

  // Stage 1: first touch of this (template, schedule) pair projects the controller half of
  // the worker templates while the block still runs via central dispatch (paper Fig 9,
  // iteration 11).
  bool newly = false;
  core::WorkerTemplateSet* set = templates_.GetOrProject(tid, assignment_, BytesFn(), &newly);
  SetState& state = StateFor(set->id());
  if (newly) {
    meter_.Charge(sim::Work::kInstallProjection, tmpl->task_count());
    if (mode_ == ControlMode::kStaticDataflow) {
      // Naiad-style installation bundles the whole dataflow build.
      meter_.Charge(sim::Work::kNaiadInstall, tmpl->task_count());
    }
    RunSetCentrallyWithPatches(*set, params, block);
    prev_executed_ = core::PatchCache::kEntryFromOutside;
  } else if (!state.installed_on_workers) {
    // Stage 2: install the worker halves (paper Fig 9, iteration 12) while dispatching
    // centrally one more time.
    for (const core::WorkerHalf& half : set->halves()) {
      const std::int64_t wire = static_cast<std::int64_t>(half.entries.size()) * 64;
      core::WorkerHalf copy = half;
      const WorkerTemplateId wtid = set->id();
      meter_.Submit(sim::Work::kMessageSend, 1,
                    [this, dst = net::NodeAddress::ForWorker(half.worker),
                     copy = std::move(copy), wtid, wire]() mutable {
        wire::InstallTemplateEnvelope e;
        e.id = wtid;
        e.half = std::move(copy);
        transport_->Send(net::NodeAddress::Controller(), dst, MessageKind::kControl,
                         wire::EncodeInstallTemplateEnvelope(e), wire);
      });
    }
    state.installed_on_workers = true;
    RunSetCentrallyWithPatches(*set, params, block);
    prev_executed_ = core::PatchCache::kEntryFromOutside;
  } else {
    // Stage 3: the fast path (paper Fig 9, iteration 13+). The driver's lookahead hint
    // resolves to the set whose sweep will ride this block's assembly batch (or null).
    InstantiateSet(set, &state, std::move(params), block,
                   ResolveLookaheadTarget(next_name, set));
  }
  FinishIfIdle(block);  // a set with no entries dispatches no group
}

void NimbusController::RunSetCentrallyWithPatches(
    const core::WorkerTemplateSet& set,
    const std::vector<std::pair<std::int32_t, ParameterBlob>>& params, PendingBlock* block) {
  // Central dispatch mutates the version map outside the lookahead-covered window; any
  // overlapped validation result is stale the moment a stage lands (DESIGN.md §9).
  InvalidateLookahead();
  EnsureObjectsExist(set);

  // Precondition sweep over the set's compiled preconditions; failures become explicit
  // patch copies (no templates on the workers => nothing to validate against there).
  std::vector<core::PatchDirective> needed;
  if (phase_probe_) {
    phase_probe_("validate");
  }
  {
    NIMBUS_TRACE_SPAN(trace::Lane::kController, kControlTrack, "validate");
    needed = pipeline_.Validate(set, versions_);
  }
  if (!needed.empty()) {
    core::Patch patch;
    patch.directives = needed;
    DispatchPatch(patch, block);
    for (const core::PatchDirective& d : needed) {
      versions_.RecordCopyToLatest(d.object, d.dst);
    }
  }

  if (switches_.serialized_batching) {
    DispatchCentralBlock(set, params, block);
  } else {
    DispatchSetCentrally(set, params, block);
  }

  // Patch effects were applied above; only the write deltas remain.
  if (phase_probe_) {
    phase_probe_("apply");
  }
  NIMBUS_TRACE_SPAN(trace::Lane::kController, kControlTrack, "apply_effects");
  pipeline_.ApplyEffects(set, core::Patch{}, &versions_);
}

void NimbusController::InstantiateSet(
    core::WorkerTemplateSet* set, SetState* state,
    std::vector<std::pair<std::int32_t, ParameterBlob>> params, PendingBlock* block,
    const core::WorkerTemplateSet* next_set) {
  control_plane_.Assert();  // lookahead cache access below requires the serial role
  NIMBUS_TRACE_SPAN(trace::Lane::kController, kControlTrack, "instantiate_set");
  const std::size_t n_tasks = set->entry_meta().size();

  // Controller-template instantiation cost (Table 2 row 1).
  meter_.Charge(sim::Work::kInstantiate, n_tasks);

  // Edits planned since the last instantiation ride along now (paper §4.3).
  core::EditPlan edits = std::move(state->pending_edits);
  state->pending_edits = core::EditPlan{};
  const bool has_edits = edits.tasks_touched > 0;
  if (has_edits) {
    meter_.Charge(sim::Work::kEdit, edits.tasks_touched);
  }

  // Validation: skipped when this template directly follows itself and is self-validating
  // (Table 2 row 2 vs row 3). Edits force a full validation.
  if (phase_probe_) {
    phase_probe_("validate");
  }
  core::Patch patch;
  const bool follows_self =
      set->self_validating() && prev_executed_ == set->id().value();
  const bool auto_validates = !switches_.force_full_validation && !has_edits &&
                              follows_self && mode_ != ControlMode::kCentralOnly;
  if (!auto_validates) {
    // Lookahead consumption (DESIGN.md §9.2): this set's sweep already ran right after the
    // previous block's message assembly. Reuse is legal iff the stamps prove nothing it
    // read has moved since — same set, same map id space, same edit generation, no
    // intervening version-map mutation (every such site calls InvalidateLookahead) —
    // which makes the cached directives bit-identical to what the serial sweep below
    // would produce. force_full_validation keeps the serial sweep so the ablation bench
    // measures what it claims to.
    const bool lookahead_hit =
        lookahead_.valid && !has_edits && !switches_.force_full_validation &&
        lookahead_.set_id_value == set->id().value() &&
        lookahead_.map_uid == versions_.uid() &&
        lookahead_.map_churn_epoch == versions_.churn_epoch() &&
        lookahead_.set_generation == set->generation();
    std::vector<core::PatchDirective> required;
    if (lookahead_hit) {
      // Re-proved on every hit: no pipeline stage may have written the map since the fill,
      // so a mutation site that forgot InvalidateLookahead aborts here instead of silently
      // reusing a stale sweep.
      NIMBUS_CHECK_EQ(lookahead_.map_writes, pipeline_.map_writes())
          << "lookahead consumed after a version-map write without InvalidateLookahead";
      ++lookahead_hits_;
      required = std::move(lookahead_.required);
      NIMBUS_TRACE_INSTANT(trace::Lane::kController, kControlTrack, "lookahead_consume",
                           static_cast<std::int64_t>(required.size()));
      meter_.Charge(sim::Work::kLookaheadConsume, n_tasks);
    } else if (has_edits && follows_self) {
      // Edits name exactly the preconditions they touched, so only those entries need
      // re-checking (paper §4.3: edit cost scales with the size of the change).
      NIMBUS_TRACE_SPAN(trace::Lane::kController, kControlTrack, "validate");
      meter_.Charge(sim::Work::kValidateEntry, edits.tasks_touched);
      required = pipeline_.Validate(*set, versions_);
    } else {
      NIMBUS_TRACE_SPAN(trace::Lane::kController, kControlTrack, "validate");
      meter_.Charge(sim::Work::kFullValidation, n_tasks);
      required = pipeline_.Validate(*set, versions_);
    }
    bool cache_hit = false;
    const std::uint64_t cache_key =
        switches_.disable_patch_cache
            ? core::PatchCache::kEntryFromOutside - 1 - next_group_seq_
            : prev_executed_;
    // The pipeline runs the precondition sweep; the template manager only resolves the
    // result against the patch cache.
    patch = templates_.ResolvePatch(*set, cache_key, versions_, std::move(required),
                                    &cache_hit);
    NIMBUS_TRACE_INSTANT(trace::Lane::kController, kControlTrack,
                         cache_hit ? "patch_cache_hit" : "patch_cache_miss",
                         static_cast<std::int64_t>(patch.size()));
    if (!patch.empty()) {
      meter_.Charge(cache_hit ? sim::Work::kPatchDirective : sim::Work::kPatchCompute,
                    patch.size());
      DispatchPatch(patch, block);
    }
  }
  // Consumed, stale, or skipped by auto-validation: one overlapped result per block.
  InvalidateLookahead();

  EnsureObjectsExist(*set);

  // Version-map effects land before assembly, so the overlapped sweep of `next_set` below
  // reads exactly the state its consuming instantiation would. Assembly and dispatch never
  // read the version map, so the move is unobservable on the serial path (the
  // bit-equality tests pin it).
  if (phase_probe_) {
    phase_probe_("apply");
  }
  {
    NIMBUS_TRACE_SPAN(trace::Lane::kController, kControlTrack, "apply_effects");
    pipeline_.ApplyEffects(*set, patch, &versions_);
  }

  // One instantiation message per worker (steady state: n+1 messages total, §2.2). The
  // pipeline's assembly stage routes params and edit ops to the worker owning each entry
  // (smaller wire than broadcasting the full parameter list to every worker). When a
  // lookahead target is known, its precondition sweep runs next, inside the same phase
  // (DESIGN.md §9.2), and the result is stamped for the next instantiation.
  const std::uint64_t seq = NewGroupSeq();
  const TaskId task_base = task_ids_.NextRange(n_tasks);
  std::vector<core::PatchDirective> next_required;
  std::vector<runtime::WorkerMessage> assembled;
  if (phase_probe_) {
    phase_probe_("assemble");
  }
  {
    NIMBUS_TRACE_SPAN(trace::Lane::kController, kControlTrack, "assemble_messages");
    assembled = pipeline_.AssembleMessages(*set, params, has_edits ? &edits : nullptr);
    if (next_set != nullptr) {
      // Assembly read no version-map state, and this block's effects are applied: the
      // sweep reads exactly the state the next instantiation would.
      next_required = pipeline_.Validate(*next_set, versions_);
    }
  }
  if (next_set != nullptr) {
    NIMBUS_TRACE_SPAN(trace::Lane::kController, kControlTrack, "lookahead_fill");
    // Modeled as overlapped with assembly (DESIGN.md §9.2): the serial charge is setup only.
    meter_.Charge(sim::Work::kLookaheadSchedule, next_set->entry_meta().size());
    lookahead_.valid = true;
    lookahead_.set_id_value = next_set->id().value();
    lookahead_.map_uid = versions_.uid();
    lookahead_.map_churn_epoch = versions_.churn_epoch();
    lookahead_.set_generation = next_set->generation();
    lookahead_.map_writes = pipeline_.map_writes();
    lookahead_.required = std::move(next_required);
    ++lookaheads_scheduled_;
  }
  if (phase_probe_) {
    phase_probe_("dispatch");
  }
  int participating = 0;
  for (runtime::WorkerMessage& wm : assembled) {
    ++participating;

    InstantiateMsg msg;
    msg.worker_template = set->id();
    msg.group_seq = seq;
    msg.command_base =
        command_ids_.NextRange(set->halves()[wm.half_index].entries.size());
    msg.task_base = task_base;
    msg.params = std::move(wm.params);
    if (wm.edits != nullptr) {
      msg.edits = *wm.edits;
    }
    // Assembly already sized the message (WorkerMessage::wire_size).
    const std::int64_t wire = wm.wire_size;
    meter_.Submit(sim::Work::kMessageSend, 1,
                  [this, dst = net::NodeAddress::ForWorker(wm.worker), msg = std::move(msg),
                   wire]() mutable {
      transport_->Send(net::NodeAddress::Controller(), dst, MessageKind::kControl,
                       wire::EncodeInstantiateEnvelope(msg), wire);
    });
  }
  tasks_via_templates_ += n_tasks;
  tasks_dispatched_ += n_tasks;

  if (participating > 0) {
    RegisterGroup(seq, block, participating);
  }

  prev_executed_ = set->id().value();
}

// -----------------------------------------------------------------------------------------
// Scheduling changes
// -----------------------------------------------------------------------------------------

void NimbusController::PlanRandomMigrations(const std::string& name, int count, Rng* rng) {
  const TemplateId tid = templates_.FindByName(name);
  NIMBUS_CHECK(tid.valid());
  core::WorkerTemplateSet* set = templates_.FindProjection(tid, assignment_);
  NIMBUS_CHECK(set != nullptr) << "migrations require an installed worker template";

  if (mode_ == ControlMode::kStaticDataflow) {
    // Naiad has no in-place flexibility: any change reinstalls the full dataflow graph.
    const core::ControllerTemplate* tmpl = templates_.Find(tid);
    meter_.Charge(sim::Work::kNaiadInstall, tmpl->task_count());
    ++counters_.naiad_reinstalls;
    return;
  }

  const auto n_entries = static_cast<std::int64_t>(set->entry_meta().size());
  const std::vector<WorkerId> active = ActiveWorkers();
  NIMBUS_CHECK_GE(active.size(), 2u);

  // Track per-worker load so targets are chosen like a rebalancing scheduler would.
  std::unordered_map<WorkerId, int> load;
  for (WorkerId w : active) {
    load[w] = 0;
  }
  for (const core::EntryMeta& em : set->entry_meta()) {
    ++load[em.worker];
  }

  int planned = 0;
  int attempts = 0;
  while (planned < count && attempts < count * 16) {
    ++attempts;
    const auto g = static_cast<std::int32_t>(
        rng->NextBounded(static_cast<std::uint64_t>(n_entries)));
    const WorkerId from = set->entry_meta()[static_cast<std::size_t>(g)].worker;
    // Least-loaded target, with random tie-breaking via scan start.
    WorkerId to = active[rng->NextBounded(active.size())];
    for (WorkerId w : active) {
      if (w != from && load[w] < load[to]) {
        to = w;
      }
    }
    if (to == from) {
      continue;
    }
    core::EditPlan plan = templates_.PlanMigration(set, g, to);
    if (plan.tasks_touched == 0) {
      continue;
    }
    QueueEdits(set->id(), std::move(plan));
    --load[from];
    ++load[to];
    ++planned;
  }
  counters_.migrations_planned += static_cast<std::uint64_t>(planned);
}

bool NimbusController::PlanRemoveTask(const std::string& name, std::int32_t global_entry) {
  const TemplateId tid = templates_.FindByName(name);
  NIMBUS_CHECK(tid.valid());
  core::WorkerTemplateSet* set = templates_.FindProjection(tid, assignment_);
  NIMBUS_CHECK(set != nullptr) << "edits require an installed worker template";
  core::EditPlan plan = templates_.PlanRemoveTask(set, global_entry);
  if (plan.tasks_touched == 0) {
    return false;
  }
  QueueEdits(set->id(), std::move(plan));
  return true;
}

void NimbusController::PlanAddTask(const std::string& name, WorkerId worker,
                                   FunctionId function, std::vector<ObjRef> reads,
                                   std::vector<ObjRef> writes, sim::Duration duration) {
  const TemplateId tid = templates_.FindByName(name);
  NIMBUS_CHECK(tid.valid());
  core::WorkerTemplateSet* set = templates_.FindProjection(tid, assignment_);
  NIMBUS_CHECK(set != nullptr) << "edits require an installed worker template";
  std::vector<LogicalObjectId> read_objects, write_objects;
  for (const ObjRef& r : reads) {
    read_objects.push_back(directory_->ObjectFor(r.variable, r.partition));
  }
  for (const ObjRef& w : writes) {
    write_objects.push_back(directory_->ObjectFor(w.variable, w.partition));
  }
  QueueEdits(set->id(), templates_.PlanAddTask(set, worker, function, std::move(read_objects),
                                               std::move(write_objects), duration));
}

void NimbusController::QueueEdits(WorkerTemplateId set_id, core::EditPlan plan) {
  core::EditPlan& pending = StateFor(set_id).pending_edits;
  for (auto& [worker_id, ops_in] : plan.per_worker) {
    auto* ops = pending.OpsFor(worker_id);
    ops->insert(ops->end(), ops_in.begin(), ops_in.end());
  }
  pending.tasks_touched += plan.tasks_touched;
}

// -----------------------------------------------------------------------------------------
// Fault tolerance
// -----------------------------------------------------------------------------------------

void NimbusController::TriggerCheckpoint(std::uint64_t driver_marker,
                                         std::function<void()> done) {
  // Caller (driver glue) invokes this between blocks, so worker queues are drained.
  checkpoint_.driver_marker = driver_marker;
  checkpoint_.version_snapshot = versions_.Snapshot();
  checkpoint_.valid = false;

  // Ask one latest-holder of every live object to persist it.
  std::map<WorkerId, std::vector<Command>> per_worker;
  for (const VersionMap::SnapshotEntry& entry : checkpoint_.version_snapshot) {
    const WorkerId holder = versions_.AnyLatestHolder(entry.object);
    if (!holder.valid()) {
      continue;
    }
    Command cmd;
    cmd.type = CommandType::kFileSave;
    cmd.data_object = entry.object;
    cmd.copy_version = entry.latest;
    cmd.copy_bytes = ObjectBytes(entry.object);
    per_worker[holder].push_back(std::move(cmd));
  }

  PendingBlock* block = NewPendingBlock([this, done = std::move(done)](auto) {
    checkpoint_.valid = true;
    ++counters_.checkpoints;
    if (done) {
      done();
    }
  });

  SendCommandGroups(NewGroupSeq(), std::move(per_worker), block);
  FinishIfIdle(block);
}

void NimbusController::ArmHeartbeatSweep(sim::Duration heartbeat_period,
                                         sim::Duration timeout, int miss_threshold) {
  NIMBUS_CHECK(!failure_detection_) << "failure detection is armed once";
  NIMBUS_CHECK_GT(miss_threshold, 0);
  failure_detection_ = true;
  heartbeat_period_ = heartbeat_period;
  heartbeat_timeout_ = timeout;
  miss_threshold_ = miss_threshold;
  const sim::TimePoint now = timers_->Now();
  for (WorkerRecord& record : worker_records_) {
    record.last_heard = now;
  }
  // Half a period out of phase with the beats the workers start in the same step: a beat
  // has long arrived when a sweep runs, so the first sweep that can see a silence of
  // `miss_threshold × timeout` counts it in full.
  timers_->Schedule(heartbeat_period_ / 2, [this]() { CheckHeartbeats(); });
}

void NimbusController::CheckHeartbeats() {
  const sim::TimePoint now = timers_->Now();
  for (DenseIndex i = 0; i < worker_ids_.size(); ++i) {
    WorkerRecord& record = worker_records_[i];
    const sim::Duration silent = now - record.last_heard;
    if (record.failed || record.revoked || silent <= heartbeat_timeout_) {
      continue;
    }
    const auto missed = static_cast<std::uint64_t>(silent / heartbeat_timeout_);
    const WorkerId worker = worker_ids_.Resolve(i);
    if (!record.suspect) {
      record.suspect = true;
      ++failure_counters_.suspects_marked;
      NIMBUS_LOG(Info) << "worker " << worker << " suspected (" << missed
                       << " missed heartbeat timeouts)";
      // Informational notice to the driver.
      wire::SuspectNoticeEnvelope notice;
      notice.worker = worker;
      notice.missed_beats = missed;
      transport_->Send(net::NodeAddress::Controller(), net::NodeAddress::Driver(),
                       MessageKind::kControl, wire::EncodeSuspectNoticeEnvelope(notice),
                       /*cost_bytes=*/16);
    }
    if (missed >= static_cast<std::uint64_t>(miss_threshold_)) {
      NIMBUS_LOG(Info) << "worker " << worker << " missed heartbeats; starting recovery";
      OnWorkerFailed(worker);
    }
  }
  timers_->Schedule(heartbeat_period_, [this]() { CheckHeartbeats(); });
}

void NimbusController::OnHeartbeat(WorkerId worker_id, std::uint64_t seq) {
  // Heartbeats from failed workers are stale by definition (detection already fired or the
  // failure was injected); letting them refresh liveness would resurrect a dead worker.
  WorkerRecord* record = RecordFor(worker_id);
  if (record == nullptr || record->failed) {
    return;
  }
  record->last_heard = timers_->Now();
  ++failure_counters_.heartbeats_received;
  if (record->suspect) {
    record->suspect = false;
    ++failure_counters_.suspects_cleared;
    NIMBUS_LOG(Info) << "worker " << worker_id << " heard again; suspicion cleared";
  }
  if (failure_detection_) {
    wire::HeartbeatAckEnvelope ack;
    ack.worker = worker_id;
    ack.seq = seq;
    transport_->Send(net::NodeAddress::Controller(), net::NodeAddress::ForWorker(worker_id),
                     MessageKind::kControl, wire::EncodeHeartbeatAckEnvelope(ack),
                     /*cost_bytes=*/16);
    ++failure_counters_.heartbeat_acks;
  }
}

void NimbusController::OnPeerLost(net::NodeAddress peer) {
  if (!peer.is_worker()) {
    return;  // driver/controller loss is not a worker failure; nothing to recover
  }
  WorkerRecord* record = RecordFor(peer.worker_id());
  if (record == nullptr || record->failed) {
    return;
  }
  ++failure_counters_.connection_losses;
  NIMBUS_LOG(Info) << "worker " << peer.worker_id()
                   << " connection lost (redial budget exhausted); starting recovery";
  OnWorkerFailed(peer.worker_id());
}

bool NimbusController::HeartbeatTracked(WorkerId worker_id) const {
  const WorkerRecord* record = RecordFor(worker_id);
  return failure_detection_ && record != nullptr && !record->failed && !record->revoked;
}

void NimbusController::OnWorkerFailed(WorkerId worker_id) {
  WorkerRecord* record = RecordFor(worker_id);
  if (record == nullptr || record->failed) {
    return;  // a repeat report of a failure already handled
  }
  InvalidateLookahead();  // DropWorker below rewrites residency the cached sweep read
  // A failed worker leaves liveness accounting for good: its late beats are ignored.
  record->failed = true;
  ++failure_counters_.workers_failed;
  versions_.DropWorker(worker_id);

  // Abandon all in-flight blocks, a running recovery's reload too: the driver reruns from
  // the checkpoint marker, and the reload below starts over on the new assignment.
  groups_.Clear();
  pending_blocks_.clear();

  // Halt every surviving worker (paper §4.4: terminate tasks, flush queues).
  for (DenseIndex i = 0; i < worker_ids_.size(); ++i) {
    if (!worker_records_[i].failed) {
      transport_->Send(net::NodeAddress::Controller(),
                       net::NodeAddress::ForWorker(worker_ids_.Resolve(i)),
                       MessageKind::kControl, wire::EncodeHaltEnvelope(), /*cost_bytes=*/16);
    }
  }
  Rebalance();

  // Give the halt round trip time to settle, then reload the checkpoint. A reload already
  // scheduled runs on the assignment just rebalanced, so a second failure adds none.
  if (!recovery_scheduled_) {
    recovery_scheduled_ = true;
    timers_->Schedule(meter_.Price(sim::Work::kHaltSettle, 1), [this]() { RunRecovery(); });
  }
}

void NimbusController::RunRecovery() {
  recovery_scheduled_ = false;
  ++recovery_epoch_;
  NIMBUS_CHECK(checkpoint_.valid) << "worker failed with no valid checkpoint";
  InvalidateLookahead();  // Restore() resets the map to the checkpoint state

  // Revert the version map to the snapshot, with every object now resident only on its
  // reload target (instances on live workers are stale relative to the restored graph).
  VersionMap::SnapshotState restored;
  std::map<WorkerId, std::vector<Command>> reload;
  restored.reserve(checkpoint_.version_snapshot.size());
  for (const VersionMap::SnapshotEntry& snap : checkpoint_.version_snapshot) {
    const auto& info = directory_->object(snap.object);
    const WorkerId owner = assignment_.WorkerFor(info.partition % partitions_);
    restored.push_back(VersionMap::SnapshotEntry{
        snap.object, snap.latest, {{owner, snap.latest}}});
    Command load;
    load.type = CommandType::kFileLoad;
    load.data_object = snap.object;
    reload[owner].push_back(std::move(load));
  }
  versions_.Restore(restored);
  NIMBUS_CHECK(!reload.empty()) << "checkpoint holds no object to reload";

  PendingBlock* block = NewPendingBlock([this](auto) {
    prev_executed_ = core::PatchCache::kEntryFromOutside;
    ++counters_.recoveries;
    // Tell the driver which checkpoint marker the cluster reverted to.
    SendRecoveryNotice();
  });

  SendCommandGroups(NewGroupSeq(), std::move(reload), block);
}

}  // namespace nimbus
