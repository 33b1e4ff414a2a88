#include "src/worker/worker.h"

#include <algorithm>

#include "src/common/tracing.h"

namespace nimbus {

namespace {
// Worker trace track: worker id = track (DESIGN.md §12.3).
inline std::uint32_t TraceTrack(WorkerId id) {
  return static_cast<std::uint32_t>(id.value());
}

// A launched command's completion callback names its (group seq, local index) by one
// packed word, split like a copy id (kCopyIndexBits low bits of index), so the closure
// `[this, key]` is 16 bytes and fits std::function's inline buffer: a launch allocates
// nothing (DESIGN.md §9.3).
std::uint64_t LaunchKey(std::uint64_t seq, std::int32_t index) {
  NIMBUS_CHECK(index >= 0 && index < (1 << kCopyIndexBits))
      << "command index " << index << " exceeds the launch-key field";
  return (seq << kCopyIndexBits) | static_cast<std::uint64_t>(index);
}

std::uint64_t LaunchSeq(std::uint64_t key) { return key >> kCopyIndexBits; }

std::int32_t LaunchIndex(std::uint64_t key) {
  return static_cast<std::int32_t>(key & ((std::uint64_t{1} << kCopyIndexBits) - 1));
}
}  // namespace

void Worker::RuntimeCommand::ResetKeepingCapacity() {
  // Park the capacity-bearing vectors, reset the whole slot from a default, then hand the
  // (cleared) vectors back: a field added later is reset too without being listed here.
  std::vector<std::int32_t> kept_waiters = std::move(waiters);
  std::vector<DenseIndex> kept_reads = std::move(reads_dense);
  std::vector<DenseIndex> kept_writes = std::move(writes_dense);
  ParameterBlob kept_params = std::move(cmd.params);
  *this = RuntimeCommand{};
  kept_waiters.clear();
  kept_reads.clear();
  kept_writes.clear();
  kept_params.clear();
  waiters = std::move(kept_waiters);
  reads_dense = std::move(kept_reads);
  writes_dense = std::move(kept_writes);
  cmd.params = std::move(kept_params);
}

Worker::Worker(WorkerId id, sim::Simulation* simulation, net::Transport* transport,
               const sim::CostModel* costs, const FunctionRegistry* functions,
               DurableStore* durable, net::TimerQueue* timers)
    : id_(id),
      simulation_(simulation),
      transport_(transport),
      owned_timers_(timers == nullptr ? std::make_unique<net::SimTimerQueue>(simulation)
                                      : nullptr),
      timers_(timers == nullptr ? owned_timers_.get() : timers),
      costs_(costs),
      functions_(functions),
      durable_(durable),
      cores_(simulation, costs->worker_cores),
      control_thread_(simulation) {}

void Worker::OnEnvelope(net::NodeAddress src, MessageKind kind, ParameterBlob bytes) {
  static_cast<void>(src);
  static_cast<void>(kind);
  if (failed_) {
    return;  // a dead worker processes nothing — in-flight deliveries fall on the floor
  }
  switch (wire::PeekEnvelopeType(bytes)) {
    case wire::EnvelopeType::kCommands: {
      wire::CommandsEnvelope e = wire::DecodeCommandsEnvelope(bytes);
      OnCommands(e.group_seq, std::move(e.commands),
                 static_cast<std::size_t>(e.expected_total), e.finalize, e.barrier);
      break;
    }
    case wire::EnvelopeType::kSerializedBatch: {
      wire::SerializedBatchEnvelope e = wire::DecodeSerializedBatchEnvelope(bytes);
      OnSerializedCommands(e.group_seq, std::move(e.batch),
                           static_cast<std::size_t>(e.expected_total), e.finalize,
                           e.barrier);
      break;
    }
    case wire::EnvelopeType::kInstallTemplate: {
      wire::InstallTemplateEnvelope e = wire::DecodeInstallTemplateEnvelope(bytes);
      OnInstallTemplate(std::move(e.half), e.id);
      break;
    }
    case wire::EnvelopeType::kInstantiate:
      OnInstantiate(wire::DecodeInstantiateEnvelope(bytes));
      break;
    case wire::EnvelopeType::kHalt:
      wire::DecodeHaltEnvelope(bytes);
      OnHalt();
      break;
    case wire::EnvelopeType::kLoadObjects: {
      wire::LoadObjectsEnvelope e = wire::DecodeLoadObjectsEnvelope(bytes);
      OnLoadObjects(e.group_seq, std::move(e.objects));
      break;
    }
    case wire::EnvelopeType::kHeartbeatAck:
      OnHeartbeatAck(wire::DecodeHeartbeatAckEnvelope(bytes).seq);
      break;
    case wire::EnvelopeType::kDataCopy: {
      wire::DataCopyEnvelope e = wire::DecodeDataCopyEnvelope(bytes);
      OnDataMessage(e.copy, e.object, e.version, std::move(e.payload));
      break;
    }
    default:
      NIMBUS_CHECK(false) << "worker " << id_ << ": unexpected envelope type "
                          << static_cast<int>(wire::PeekEnvelopeType(bytes));
  }
}

void Worker::StartHeartbeats(sim::Duration period) {
  if (heartbeats_running_) {
    return;
  }
  heartbeats_running_ = true;
  HeartbeatTick(period);
}

void Worker::HeartbeatTick(sim::Duration period) {
  if (failed_) {
    heartbeats_running_ = false;
    return;
  }
  wire::HeartbeatEnvelope beat;
  beat.worker = id_;
  beat.seq = ++heartbeat_seq_;
  transport_->Send(address(), net::NodeAddress::Controller(), MessageKind::kControl,
                   wire::EncodeHeartbeatEnvelope(beat), /*cost_bytes=*/16);
  ++failure_counters_.heartbeats_sent;
  timers_->Schedule(period, [this, period]() { HeartbeatTick(period); });
}

void Worker::OnHeartbeatAck(std::uint64_t seq) {
  last_acked_heartbeat_ = std::max(last_acked_heartbeat_, seq);
  ++failure_counters_.heartbeat_acks;
}

Worker::Group& Worker::GetOrCreateGroup(std::uint64_t seq, bool barrier) {
  for (Group& g : groups_) {
    if (g.seq == seq) {
      return g;
    }
  }
  NIMBUS_CHECK_GT(seq, stale_seq_floor_) << "group " << seq << " already finished or halted";
  groups_.push_back(Group{});
  Group& g = groups_.back();
  g.seq = seq;
  g.barrier = barrier;
  return g;
}

Worker::CopySlot& Worker::EnsureCopySlot(Group& group, std::int32_t copy_index) {
  NIMBUS_CHECK_GE(copy_index, 0);
  if (static_cast<std::size_t>(copy_index) >= group.copy_slots.size()) {
    group.copy_slots.resize(static_cast<std::size_t>(copy_index) + 1);
  }
  return group.copy_slots[static_cast<std::size_t>(copy_index)];
}

void Worker::BindReceiveSlot(Group& group, std::int32_t index) {
  RuntimeCommand& rc = group.commands[static_cast<std::size_t>(index)];
  NIMBUS_CHECK_EQ(CopyGroupSeq(rc.cmd.copy_id), group.seq)
      << "copy id " << rc.cmd.copy_id << " does not encode its group";
  CopySlot& slot = EnsureCopySlot(group, CopyLocalIndex(rc.cmd.copy_id));
  NIMBUS_CHECK_LT(slot.command, 0) << "duplicate receive for copy " << rc.cmd.copy_id;
  slot.command = index;
  // Claim a payload that arrived before this group existed.
  for (auto it = early_data_.begin(); it != early_data_.end(); ++it) {
    if (it->copy == rc.cmd.copy_id) {
      slot.has_data = true;
      slot.object = it->object;
      slot.version = it->version;
      slot.payload = std::move(it->payload);
      early_data_.erase(it);
      break;
    }
  }
}

void Worker::ResolveTaskObjects(RuntimeCommand& rc) {
  switch (rc.cmd.type) {
    case CommandType::kTask:
      rc.reads_dense.reserve(rc.cmd.read_set.size());
      for (LogicalObjectId r : rc.cmd.read_set) {
        rc.reads_dense.push_back(store_.Intern(r));
      }
      rc.writes_dense.reserve(rc.cmd.write_set.size());
      for (LogicalObjectId w : rc.cmd.write_set) {
        rc.writes_dense.push_back(store_.Intern(w));
      }
      break;
    case CommandType::kCopySend:
      rc.object_dense = store_.Intern(rc.cmd.copy_object);
      break;
    default:
      break;
  }
}

void Worker::OnCommands(std::uint64_t group_seq, std::vector<Command> commands,
                        std::size_t expected_total, bool finalize, bool barrier) {
  // Message handlers run serially (simulator delivery): assert the control-phase role so
  // the group machinery's REQUIRES contract is satisfied from here down (DESIGN.md §11).
  control_phase_.Assert();
  if (failed_) {
    return;
  }
  if (group_seq <= stale_seq_floor_) {
    return;  // in-flight leftovers of a group that finished or was halted: drop
  }
  const sim::Duration charge =
      costs_->worker_receive_task * static_cast<sim::Duration>(commands.size());
  control_thread_.Charge(charge);
  IngestCommands(group_seq, std::move(commands), expected_total, finalize, barrier);
}

void Worker::OnSerializedCommands(std::uint64_t group_seq, ParameterBlob bytes,
                                  std::size_t expected_total, bool finalize, bool barrier) {
  control_phase_.Assert();
  if (failed_) {
    return;
  }
  if (group_seq <= stale_seq_floor_) {
    return;
  }
  NIMBUS_TRACE_SPAN_V(trace::Lane::kWorker, TraceTrack(id_), "decode",
                      static_cast<std::int64_t>(bytes.size()));
  wire::DecodedBatch batch = wire::DecodeBatch(bytes);
  NIMBUS_CHECK_EQ(batch.header.group_seq, group_seq)
      << "serialized batch addressed to a different group";
  const sim::Duration charge = costs_->serialized_decode_per_task *
                               static_cast<sim::Duration>(batch.commands.size());
  control_thread_.Charge(charge);
  IngestCommands(group_seq, std::move(batch.commands), expected_total, finalize, barrier);
}

void Worker::IngestCommands(std::uint64_t group_seq, std::vector<Command> commands,
                            std::size_t expected_total, bool finalize, bool barrier) {
  if (command_log_enabled_) {
    command_log_.insert(command_log_.end(), commands.begin(), commands.end());
  }

  Group& group = GetOrCreateGroup(group_seq, barrier);
  group.streaming = true;
  for (Command& cmd : commands) {
    AddCommandToGroup(group, std::move(cmd));
  }
  if (finalize) {
    group.finalized = true;
    group.expected_total = expected_total;
  }
  MaybeStartGroups();
  FinishGroupIfDone(group_seq);
}

void Worker::OnInstallTemplate(core::WorkerHalf half, WorkerTemplateId id) {
  control_phase_.Assert();
  if (failed_) {
    return;
  }
  const sim::Duration charge = costs_->install_worker_template_worker_per_task *
                               static_cast<sim::Duration>(half.entries.size());
  control_thread_.Charge(charge);
  const DenseIndex index = template_ids_.Intern(id);
  templates_.EnsureSize(template_ids_.size());
  CachedTemplate& cached = templates_[index];
  cached.half = std::move(half);
  cached.dense.assign(cached.half.entries.size(), CachedTemplate::DenseSets{});
  cached.installed = true;
}

std::size_t Worker::cached_template_count() const {
  control_phase_.Assert();
  std::size_t n = 0;
  for (const CachedTemplate& t : templates_) {
    if (t.installed) {
      ++n;
    }
  }
  return n;
}

bool Worker::HasTemplate(WorkerTemplateId id) const {
  control_phase_.Assert();
  const DenseIndex index = template_ids_.Find(id);
  return index != kInvalidDenseIndex && templates_[index].installed;
}

std::size_t Worker::buffered_copy_count() const {
  control_phase_.Assert();
  std::size_t n = early_data_.size();
  for (const Group& g : groups_) {
    for (const CopySlot& slot : g.copy_slots) {
      if (slot.has_data) {
        ++n;
      }
    }
  }
  return n;
}

void Worker::OnInstantiate(InstantiateMsg msg) {
  control_phase_.Assert();
  if (failed_) {
    return;
  }
  // The sparse template id is resolved once per message (the intern boundary); everything
  // past this point runs on dense indices.
  const DenseIndex tmpl_index = template_ids_.Find(msg.worker_template);
  NIMBUS_CHECK(tmpl_index != kInvalidDenseIndex && templates_[tmpl_index].installed)
      << "worker " << id_ << " has no cached template " << msg.worker_template;
  CachedTemplate& cached = templates_[tmpl_index];

  // Apply piggybacked edits to the cached structure first (paper §4.3). Replaced slots
  // drop their resolved object sets; appended slots start unresolved.
  if (!msg.edits.empty()) {
    core::ApplyWorkerEditOps(&cached.half, msg.edits);
    for (const core::WorkerEditOp& op : msg.edits) {
      if (op.kind == core::WorkerEditOp::Kind::kReplaceWithReceive &&
          static_cast<std::size_t>(op.index) < cached.dense.size()) {
        cached.dense[static_cast<std::size_t>(op.index)] = CachedTemplate::DenseSets{};
      }
    }
  }

  // Overlap-aware rate (DESIGN.md §9.3): a parallel executor materializes entry chunks on
  // min(lanes, cores) real cores, so the modeled per-entry charge divides by that, scaled
  // by the measured chunking efficiency. Clamped to the entry count — a tiny half runs at
  // most one chunk per entry. One lane (the inline default) divides by 1.
  const double lanes = static_cast<double>(std::min(
      {executor_->concurrency(), static_cast<std::size_t>(costs_->worker_cores),
       std::max<std::size_t>(1, cached.half.entries.size())}));
  const double speedup = std::max(1.0, lanes * costs_->worker_materialize_efficiency);
  const auto charge = static_cast<sim::Duration>(
      static_cast<double>(costs_->instantiate_worker_template_auto_per_task *
                          static_cast<sim::Duration>(cached.half.entries.size())) /
      speedup);

  // Materialize the cached table into a runnable group after the control-thread charge.
  // A halt between the charge and the materialization discards the instantiation: its
  // group belongs to the abandoned pre-halt schedule (halt_epoch_ tracks this).
  const std::uint64_t epoch = halt_epoch_;
  control_thread_.Submit(charge, [this, tmpl_index, epoch, msg = std::move(msg)]() {
    // Deferred back onto the serial control phase by the simulator; the analysis sees
    // lambda bodies as separate functions, so the role is re-asserted here.
    control_phase_.Assert();
    if (failed_ || epoch != halt_epoch_) {
      return;
    }
    MaterializeInstantiation(tmpl_index, msg);
  });
}

std::size_t Worker::ChunkCount(std::size_t n) const {
  if (n == 0) {
    return 0;
  }
  return std::max<std::size_t>(1, std::min(executor_->concurrency(), n));
}

void Worker::MaterializeInstantiation(DenseIndex tmpl_index, const InstantiateMsg& msg) {
  NIMBUS_TRACE_SPAN(trace::Lane::kWorker, TraceTrack(id_), "materialize");
  CachedTemplate& cached = templates_[tmpl_index];
  const std::vector<core::WtEntry>& entries = cached.half.entries;
  cached.dense.resize(entries.size());

  Group& group = GetOrCreateGroup(msg.group_seq, /*barrier=*/true);
  NIMBUS_CHECK(group.commands.empty())
      << "group " << msg.group_seq << " materialized over existing commands";

  // Recycled command table (DESIGN.md §9.3): take the template's spare table, the one its
  // last pruned group handed back. A second live group of this template finds the spare
  // gone and starts from an empty table, so live groups never share storage.
  group.commands.swap(cached.spare_table);
  group.template_index = tmpl_index;

  // Serial intern pre-pass: resolving an entry's objects to store-dense indices mutates
  // the store's interner, so it cannot ride the parallel build batch. First touch (or the
  // slot an edit replaced) resolves here, in entry order — the same intern order as the
  // old fused loop — and every later instantiation of this template skips the pass.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const core::WtEntry& e = entries[i];
    CachedTemplate::DenseSets& ds = cached.dense[i];
    if (ds.valid || e.dead) {
      continue;
    }
    ds.reads.clear();
    ds.writes.clear();
    ds.reads.reserve(e.reads.size());
    for (LogicalObjectId r : e.reads) {
      ds.reads.push_back(store_.Intern(r));
    }
    ds.writes.reserve(e.writes.size());
    for (LogicalObjectId w : e.writes) {
      ds.writes.push_back(store_.Intern(w));
    }
    ds.object = e.type == CommandType::kCopySend ? store_.Intern(e.object)
                                                 : kInvalidDenseIndex;
    ds.valid = true;
    ++materialize_counters_.dense_resolves;
  }

  // Sorted view of the sparse per-entry parameters: lookup below is a binary search, not a
  // hash probe (steady state does no hashing per task).
  std::vector<std::pair<std::int32_t, const ParameterBlob*>> params;
  params.reserve(msg.params.size());
  for (const auto& [slot, blob] : msg.params) {
    params.emplace_back(slot, &blob);
  }
  std::sort(params.begin(), params.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Parallel command build (DESIGN.md §9.3): entry i becomes command slot i, so chunks
  // write disjoint slots of a pre-sized table and the result is executor-invariant. The
  // build only reads the cached template, the resolved dense sets, and the sorted params;
  // receive-slot binding and before-edge wiring mutate shared state and stay serial below.
  // Every slot is reset before it is filled: a recycled slot may hold a different entry
  // type from before an edit, and its vectors refill within their kept capacity.
  group.commands.resize(entries.size());
  const std::size_t chunks = ChunkCount(entries.size());
  executor_->Run(chunks, [&](std::size_t job) {
    const std::size_t begin = job * entries.size() / chunks;
    const std::size_t end = (job + 1) * entries.size() / chunks;
    for (std::size_t i = begin; i < end; ++i) {
      const core::WtEntry& e = entries[i];
      const CachedTemplate::DenseSets& ds = cached.dense[i];
      RuntimeCommand& rc = group.commands[i];
      rc.ResetKeepingCapacity();
      rc.cmd.id = CommandId(msg.command_base.value() + i);
      if (e.dead) {
        rc.cmd.type = CommandType::kDataCreate;  // benign no-op preserving the index
        continue;
      }
      rc.cmd.type = e.type;
      switch (e.type) {
        case CommandType::kTask: {
          rc.cmd.function = e.function;
          rc.cmd.task_id =
              TaskId(msg.task_base.value() + static_cast<std::uint64_t>(e.global_entry));
          rc.cmd.duration = e.duration;
          rc.cmd.returns_scalar = e.returns_scalar;
          const auto pit = std::lower_bound(
              params.begin(), params.end(), e.global_entry,
              [](const auto& p, std::int32_t slot) { return p.first < slot; });
          const ParameterBlob& blob =
              pit != params.end() && pit->first == e.global_entry ? *pit->second
                                                                  : e.cached_params;
          rc.cmd.params.assign(blob.begin(), blob.end());
          rc.reads_dense.assign(ds.reads.begin(), ds.reads.end());
          rc.writes_dense.assign(ds.writes.begin(), ds.writes.end());
          break;
        }
        case CommandType::kCopySend:
        case CommandType::kCopyReceive: {
          rc.cmd.copy_id = MakeCopyId(msg.group_seq, e.copy_index);
          rc.cmd.peer = e.peer;
          rc.cmd.copy_object = e.object;
          rc.cmd.copy_bytes = e.bytes;
          rc.object_dense = ds.object;
          break;
        }
        default:
          rc.cmd.data_object = e.object;
          break;
      }
    }
  });
  materialize_counters_.build_chunks += chunks;
  ++materialize_counters_.groups;
  materialize_counters_.entries += entries.size();

  // Receive-slot binding claims buffered payloads and resizes the slot table: serial, in
  // ascending entry order — exactly the bind order of the old fused loop.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!entries[i].dead && entries[i].type == CommandType::kCopyReceive) {
      BindReceiveSlot(group, static_cast<std::int32_t>(i));
    }
  }

  if (command_log_enabled_) {
    for (const RuntimeCommand& rc : group.commands) {
      command_log_.push_back(rc.cmd);
    }
  }

  // Second pass wires the before edges: edits can append providers after their dependents,
  // so an edge may point forward. Dead slots keep their edges (ordering is index-stable).
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::int32_t b : entries[i].before) {
      NIMBUS_CHECK_GE(b, 0);
      NIMBUS_CHECK_LT(static_cast<std::size_t>(b), entries.size());
      if (static_cast<std::size_t>(b) == i) {
        continue;
      }
      group.commands[static_cast<std::size_t>(b)].waiters.push_back(
          static_cast<std::int32_t>(i));
      ++group.commands[i].remaining_before;
    }
  }

  group.finalized = true;
  group.expected_total = entries.size();
  MaybeStartGroups();
  FinishGroupIfDone(msg.group_seq);
}

void Worker::OnHalt() {
  control_phase_.Assert();
  for (const Group& g : groups_) {
    stale_seq_floor_ = std::max(stale_seq_floor_, g.seq);
  }
  groups_.clear();
  early_data_.clear();
  ++halt_epoch_;  // voids instantiations still queued behind their control-thread charge
}

void Worker::OnLoadObjects(std::uint64_t group_seq, std::vector<LogicalObjectId> objects) {
  if (failed_) {
    return;
  }
  std::vector<Command> commands;
  commands.reserve(objects.size());
  for (LogicalObjectId object : objects) {
    Command cmd;
    cmd.id = CommandId((group_seq << 24) | commands.size());
    cmd.type = CommandType::kFileLoad;
    cmd.data_object = object;
    commands.push_back(std::move(cmd));
  }
  const std::size_t total = commands.size();
  OnCommands(group_seq, std::move(commands), total, /*finalize=*/true, /*barrier=*/true);
}

void Worker::AddCommandToGroup(Group& group, Command cmd) {
  const auto index = static_cast<std::int32_t>(group.commands.size());
  group.index_of.emplace(cmd.id, index);

  RuntimeCommand rc;
  rc.cmd = std::move(cmd);
  for (CommandId b : rc.cmd.before) {
    if (group.done_ids.count(b) > 0) {
      continue;  // dependency already completed
    }
    auto it = group.index_of.find(b);
    if (it != group.index_of.end() && it->second != index) {
      group.commands[static_cast<std::size_t>(it->second)].waiters.push_back(index);
    } else {
      group.pending_edges[b].push_back(index);  // dependency not yet arrived (streaming)
    }
    ++rc.remaining_before;
  }

  ResolveTaskObjects(rc);
  group.commands.push_back(std::move(rc));
  if (group.commands.back().cmd.type == CommandType::kCopyReceive) {
    BindReceiveSlot(group, index);
  }

  // Resolve edges from commands that referenced this id before it arrived.
  auto pe = group.pending_edges.find(group.commands.back().cmd.id);
  if (pe != group.pending_edges.end()) {
    for (std::int32_t waiter : pe->second) {
      group.commands[static_cast<std::size_t>(index)].waiters.push_back(waiter);
    }
    group.pending_edges.erase(pe);
  }

  if (group.started) {
    TryLaunch(group, index);
  }
}

void Worker::MaybeStartGroups() {
  // Collect seqs first: starting a group can run commands synchronously, which can complete
  // and prune other groups, invalidating a live iterator over the deque.
  std::vector<std::uint64_t> to_start;
  bool all_prior_done = true;
  for (Group& group : groups_) {
    if (!group.started && (!group.barrier || all_prior_done)) {
      to_start.push_back(group.seq);
      // Assume it completes only via events; treat as not-done for later barrier groups.
      all_prior_done = false;
      continue;
    }
    const bool done_now =
        group.finalized && group.started && group.done_count == group.expected_total;
    all_prior_done = all_prior_done && done_now;
  }
  for (std::uint64_t seq : to_start) {
    StartGroup(seq);
  }
}

void Worker::StartGroup(std::uint64_t seq) {
  Group* group = FindGroup(seq);
  if (group == nullptr || group->started) {
    return;
  }
  group->started = true;
  NIMBUS_TRACE_SPAN(trace::Lane::kWorker, TraceTrack(id_), "group_start");

  // Eligibility scan in executor chunks (DESIGN.md §9.3): the initial ready set is a pure
  // read of each command's dependency count, so chunks write disjoint slots of the
  // bitmap. Launches themselves stay serial — they drive the single-threaded simulation —
  // and a command that becomes ready only during those launches is launched by the
  // completion cascade (CompleteCommand -> TryLaunch), exactly as in the fused loop,
  // where TryLaunch on a not-yet-ready index was a no-op too.
  const std::size_t n = group->commands.size();
  // Scratch capacity is recycled across group starts, but the buffer is moved out while
  // in use: a launch below can cascade into a nested StartGroup (group completes ->
  // MaybeStartGroups), which must not clobber this scan (it just allocates its own).
  std::vector<std::uint8_t> ready = std::move(ready_scratch_);
  ready.assign(n, 0);
  if (n > 0) {
    const std::size_t chunks = ChunkCount(n);
    const std::vector<RuntimeCommand>& commands = group->commands;
    executor_->Run(chunks, [&](std::size_t job) {
      const std::size_t begin = job * n / chunks;
      const std::size_t end = (job + 1) * n / chunks;
      for (std::size_t i = begin; i < end; ++i) {
        const RuntimeCommand& rc = commands[i];
        ready[i] = !rc.launched && !rc.done && rc.remaining_before == 0 ? 1 : 0;
      }
    });
    ++materialize_counters_.launch_scans;
  }

  // Launching one command can synchronously complete others (copy sends, no-ops) and even
  // finish + prune the group, so re-find it on every step.
  for (std::size_t i = 0; i < n; ++i) {
    if (ready[i] == 0) {
      continue;
    }
    group = FindGroup(seq);
    if (group == nullptr) {
      break;
    }
    TryLaunch(*group, static_cast<std::int32_t>(i));
  }
  ready_scratch_ = std::move(ready);  // hand the capacity back for the next start
  FinishGroupIfDone(seq);
}

void Worker::TryLaunch(Group& group, std::int32_t index) {
  RuntimeCommand& rc = group.commands[static_cast<std::size_t>(index)];
  if (rc.launched || rc.done || rc.remaining_before > 0 || !group.started) {
    return;
  }
  rc.launched = true;
  Launch(group, index);
}

void Worker::Launch(Group& group, std::int32_t index) {
  RuntimeCommand& rc = group.commands[static_cast<std::size_t>(index)];
  switch (rc.cmd.type) {
    case CommandType::kTask:
      ExecuteTask(group, index);
      break;
    case CommandType::kCopySend:
      ExecuteCopySend(group, index);
      break;
    case CommandType::kCopyReceive:
      ExecuteCopyReceive(group, index);
      break;
    case CommandType::kDataCreate:
      CompleteCommand(group.seq, index);
      break;
    case CommandType::kDataDestroy:
      store_.Erase(rc.cmd.data_object);
      CompleteCommand(group.seq, index);
      break;
    case CommandType::kFileSave: {
      const sim::Duration cost = costs_->CheckpointWriteTime(
          rc.cmd.copy_bytes > 0 ? rc.cmd.copy_bytes
                                : store_.Get(rc.cmd.data_object)->ByteSize());
      cores_.Submit(cost, [this, key = LaunchKey(group.seq, index)]() {
        control_phase_.Assert();  // deferred onto the serial control phase
        const std::uint64_t seq = LaunchSeq(key);
        const std::int32_t slot = LaunchIndex(key);
        Group* g = FindGroup(seq);
        if (g == nullptr) {
          return;
        }
        RuntimeCommand& cmd = g->commands[static_cast<std::size_t>(slot)];
        if (store_.Has(cmd.cmd.data_object)) {
          durable_->Write(cmd.cmd.data_object, cmd.cmd.copy_version,
                          *store_.Get(cmd.cmd.data_object));
        }
        CompleteCommand(seq, slot);
      });
      break;
    }
    case CommandType::kFileLoad: {
      NIMBUS_CHECK(durable_->Has(rc.cmd.data_object))
          << "recovery: object " << rc.cmd.data_object << " missing from durable store";
      const DurableStore::Entry& entry = durable_->Read(rc.cmd.data_object);
      const sim::Duration cost = costs_->CheckpointWriteTime(entry.payload->ByteSize());
      cores_.Submit(cost, [this, key = LaunchKey(group.seq, index)]() {
        control_phase_.Assert();  // deferred onto the serial control phase
        const std::uint64_t seq = LaunchSeq(key);
        const std::int32_t slot = LaunchIndex(key);
        Group* g = FindGroup(seq);
        if (g == nullptr) {
          return;
        }
        RuntimeCommand& cmd = g->commands[static_cast<std::size_t>(slot)];
        const DurableStore::Entry& e = durable_->Read(cmd.cmd.data_object);
        store_.Put(cmd.cmd.data_object, e.version, e.payload->Clone());
        CompleteCommand(seq, slot);
      });
      break;
    }
  }
}

void Worker::ExecuteTask(Group& group, std::int32_t index) {
  RuntimeCommand& rc = group.commands[static_cast<std::size_t>(index)];
  const sim::Duration total = rc.cmd.duration + costs_->worker_dispatch_per_task;
  cores_.Submit(total, [this, key = LaunchKey(group.seq, index)]() {
    control_phase_.Assert();  // deferred onto the serial control phase
    const std::uint64_t seq = LaunchSeq(key);
    const std::int32_t slot = LaunchIndex(key);
    Group* g = FindGroup(seq);
    if (g == nullptr || failed_) {
      return;
    }
    RuntimeCommand& cmd = g->commands[static_cast<std::size_t>(slot)];
    TaskContext ctx(&store_, &cmd.reads_dense, &cmd.writes_dense, &cmd.cmd.params);
    functions_->Get(cmd.cmd.function)(ctx);
    ++tasks_executed_;
    // Bump local versions of written objects (informative; global truth is controller-side).
    for (DenseIndex o : cmd.writes_dense) {
      if (store_.HasDense(o)) {
        store_.BumpVersionDense(o, store_.VersionDense(o) + 1);
      }
    }
    if (cmd.cmd.returns_scalar) {
      NIMBUS_CHECK(ctx.has_scalar())
          << "function " << functions_->Name(cmd.cmd.function)
          << " was marked returns_scalar but did not call ReturnScalar";
      g->scalars.push_back(ScalarResult{cmd.cmd.task_id, ctx.scalar()});
    }
    CompleteCommand(seq, slot);
  });
}

void Worker::ExecuteCopySend(Group& group, std::int32_t index) {
  RuntimeCommand& rc = group.commands[static_cast<std::size_t>(index)];
  NIMBUS_CHECK(store_.HasDense(rc.object_dense))
      << "worker " << id_ << ": copy-send of non-resident object " << rc.cmd.copy_object;
  const net::NodeAddress peer = net::NodeAddress::ForWorker(rc.cmd.peer);
  // The transfer occupies this worker's NIC for its serialization time and is delivered one
  // latency later; the send command itself completes immediately (asynchronous I/O, §3.4).
  // A failed peer is unreachable: skip the send (the controller reschedules via recovery).
  if (transport_->Reachable(peer)) {
    wire::DataCopyEnvelope e;
    e.copy = rc.cmd.copy_id;
    e.object = rc.cmd.copy_object;
    e.version = store_.VersionDense(rc.object_dense);
    e.payload = store_.GetDense(rc.object_dense)->Clone();
    transport_->Send(address(), peer, MessageKind::kData, wire::EncodeDataCopyEnvelope(e),
                     /*cost_bytes=*/rc.cmd.copy_bytes);
  }
  CompleteCommand(group.seq, index);
}

void Worker::ExecuteCopyReceive(Group& group, std::int32_t index) {
  RuntimeCommand& rc = group.commands[static_cast<std::size_t>(index)];
  const std::int32_t ci = CopyLocalIndex(rc.cmd.copy_id);
  NIMBUS_CHECK_LT(static_cast<std::size_t>(ci), group.copy_slots.size())
      << "no copy slot for " << rc.cmd.copy_id;
  CopySlot& slot = group.copy_slots[static_cast<std::size_t>(ci)];
  NIMBUS_CHECK_EQ(slot.command, index) << "receive slot mismatch for copy " << rc.cmd.copy_id;
  if (!slot.has_data) {
    return;  // completes when the data message arrives
  }
  store_.PutDense(store_.Intern(slot.object), slot.version, std::move(slot.payload));
  slot.has_data = false;
  CompleteCommand(group.seq, index);
}

void Worker::OnDataMessage(CopyId copy, LogicalObjectId object, Version version,
                           std::unique_ptr<Payload> payload) {
  control_phase_.Assert();
  if (failed_) {
    return;
  }
  const std::uint64_t seq = CopyGroupSeq(copy);
  if (seq <= stale_seq_floor_) {
    return;  // the copy's group already finished or was halted: stale duplicate, drop
  }
  Group* g = FindGroup(seq);
  if (g == nullptr) {
    // The group does not exist yet (data raced ahead of the control plane): buffer until
    // its receive command arrives.
    for (EarlyData& e : early_data_) {
      if (e.copy == copy) {
        e.object = object;
        e.version = version;
        e.payload = std::move(payload);
        return;
      }
    }
    early_data_.push_back(EarlyData{copy, object, version, std::move(payload)});
    return;
  }
  CopySlot& slot = EnsureCopySlot(*g, CopyLocalIndex(copy));
  if (slot.command >= 0) {
    RuntimeCommand& rc = g->commands[static_cast<std::size_t>(slot.command)];
    if (rc.launched && !rc.done) {
      store_.PutDense(store_.Intern(object), version, std::move(payload));
      CompleteCommand(seq, slot.command);
      return;
    }
  }
  slot.has_data = true;
  slot.object = object;
  slot.version = version;
  slot.payload = std::move(payload);
}

void Worker::CompleteCommand(std::uint64_t group_seq, std::int32_t index) {
  Group* group = FindGroup(group_seq);
  if (group == nullptr) {
    return;
  }
  RuntimeCommand& rc = group->commands[static_cast<std::size_t>(index)];
  NIMBUS_CHECK(!rc.done);
  rc.done = true;
  ++group->done_count;
  if (group->streaming) {
    group->done_ids.insert(rc.cmd.id);  // late edges may still reference this id
  }
  // Walk the waiter list by index, re-finding the group after every launch: a launch can
  // cascade into completing the whole group, which prunes it and hands its table back to
  // the template, so neither `rc` nor the group may be held across one. The list itself
  // cannot change meanwhile — new edges only attach to commands that are not done.
  for (std::size_t k = 0;; ++k) {
    group = FindGroup(group_seq);
    if (group == nullptr) {
      return;
    }
    const std::vector<std::int32_t>& waiters =
        group->commands[static_cast<std::size_t>(index)].waiters;
    if (k == waiters.size()) {
      break;
    }
    const std::int32_t waiter = waiters[k];
    RuntimeCommand& w = group->commands[static_cast<std::size_t>(waiter)];
    NIMBUS_CHECK_GT(w.remaining_before, 0);
    if (--w.remaining_before == 0) {
      TryLaunch(*group, waiter);
    }
  }
  FinishGroupIfDone(group_seq);
}

void Worker::FinishGroupIfDone(std::uint64_t seq) {
  Group* group = FindGroup(seq);
  if (group == nullptr || !group->finalized || !group->started ||
      group->done_count != group->expected_total) {
    return;
  }
  NIMBUS_CHECK_EQ(group->done_count, group->commands.size());

  if (!group->reported) {
    group->reported = true;
    // Report completion (with any scalar results) to the controller.
    wire::GroupCompleteEnvelope e;
    e.worker = id_;
    e.group_seq = seq;
    e.scalars = std::move(group->scalars);
    const std::int64_t bytes = 64 + static_cast<std::int64_t>(e.scalars.size()) * 16;
    transport_->Send(address(), net::NodeAddress::Controller(), MessageKind::kControl,
                     wire::EncodeGroupCompleteEnvelope(e), /*cost_bytes=*/bytes);
  }

  // Prune completed groups from the front and unblock any waiting barrier group. Buffered
  // copy data dies with its group; any early data addressed below the retired floor can
  // never be claimed and is dropped too. A materialized group's command table goes back
  // to its template as the spare the next instantiation refills.
  bool pruned = false;
  while (!groups_.empty()) {
    Group& front = groups_.front();
    if (front.finalized && front.started && front.reported &&
        front.done_count == front.expected_total) {
      stale_seq_floor_ = std::max(stale_seq_floor_, front.seq);
      if (front.template_index != kInvalidDenseIndex) {
        templates_[front.template_index].spare_table = std::move(front.commands);
      }
      groups_.pop_front();
      pruned = true;
    } else {
      break;
    }
  }
  if (pruned && !early_data_.empty()) {
    early_data_.erase(std::remove_if(early_data_.begin(), early_data_.end(),
                                     [this](const EarlyData& e) {
                                       return CopyGroupSeq(e.copy) <= stale_seq_floor_;
                                     }),
                      early_data_.end());
  }
  MaybeStartGroups();
}

Worker::Group* Worker::FindGroup(std::uint64_t seq) {
  for (Group& g : groups_) {
    if (g.seq == seq) {
      return &g;
    }
  }
  return nullptr;
}

}  // namespace nimbus
