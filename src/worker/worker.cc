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
  // The command's four vectors are parked here too rather than through
  // Command::ResetKeepingCapacity, which would default-construct a second Command per slot:
  // this runs once per entry on every instantiation.
  std::vector<std::int32_t> kept_waiters = std::move(waiters);
  std::vector<DenseIndex> kept_reads = std::move(reads_dense);
  std::vector<DenseIndex> kept_writes = std::move(writes_dense);
  std::vector<LogicalObjectId> kept_read_set = std::move(cmd.read_set);
  std::vector<LogicalObjectId> kept_write_set = std::move(cmd.write_set);
  std::vector<CommandId> kept_before = std::move(cmd.before);
  ParameterBlob kept_params = std::move(cmd.params);
  *this = RuntimeCommand{};
  kept_waiters.clear();
  kept_reads.clear();
  kept_writes.clear();
  kept_read_set.clear();
  kept_write_set.clear();
  kept_before.clear();
  kept_params.clear();
  waiters = std::move(kept_waiters);
  reads_dense = std::move(kept_reads);
  writes_dense = std::move(kept_writes);
  cmd.read_set = std::move(kept_read_set);
  cmd.write_set = std::move(kept_write_set);
  cmd.before = std::move(kept_before);
  cmd.params = std::move(kept_params);
}

void Worker::Group::ResetKeepingCapacity() {
  // Same park-and-reset pattern as RuntimeCommand: the tables survive, emptied.
  std::vector<RuntimeCommand> kept_commands = std::move(commands);
  std::vector<CopySlot> kept_copy_slots = std::move(copy_slots);
  std::vector<std::int32_t> kept_id_slots = std::move(id_slots);
  std::vector<std::pair<std::uint32_t, std::int32_t>> kept_parked = std::move(parked_edges);
  *this = Group{};
  kept_commands.clear();
  kept_copy_slots.clear();
  kept_id_slots.clear();
  kept_parked.clear();
  commands = std::move(kept_commands);
  copy_slots = std::move(kept_copy_slots);
  id_slots = std::move(kept_id_slots);
  parked_edges = std::move(kept_parked);
}

Worker::Worker(WorkerId id, sim::WorkMeter meter, net::Transport* transport,
               const FunctionRegistry* functions, DurableStore* durable,
               net::TimerQueue* timers)
    : id_(id),
      transport_(transport),
      timers_(timers),
      functions_(functions),
      durable_(durable),
      meter_(std::move(meter)) {}

void Worker::OnEnvelope(net::NodeAddress src, MessageKind kind, ParameterBlob bytes) {
  static_cast<void>(src);
  static_cast<void>(kind);
  if (failed_) {
    return;  // a dead worker processes nothing — in-flight deliveries fall on the floor
  }
  switch (wire::PeekEnvelopeType(bytes)) {
    // The central path's group envelopes decode into the worker's scratch (keeping its
    // capacity) and are ingested from it by reference: no per-command allocation.
    case wire::EnvelopeType::kCommands: {
      control_phase_.Assert();
      const wire::ScratchGuard guard(&scratch_live_);
      wire::DecodeCommandsEnvelope(bytes, &commands_scratch_);
      const wire::CommandsEnvelope& e = commands_scratch_;
      OnCommands(e.group_seq, e.commands, static_cast<std::size_t>(e.expected_total));
      break;
    }
    case wire::EnvelopeType::kSerializedBatch: {
      // The envelope scratch is read only until DecodeBatch has run, which
      // OnSerializedCommands does under the scratch guard.
      control_phase_.Assert();
      wire::DecodeSerializedBatchEnvelope(bytes, &batch_envelope_scratch_);
      const wire::SerializedBatchEnvelope& e = batch_envelope_scratch_;
      OnSerializedCommands(e.group_seq, e.batch, static_cast<std::size_t>(e.expected_total));
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
    case wire::EnvelopeType::kHeartbeatAck:
      // The controller's echo of a beat (failure detection armed): counted only.
      wire::DecodeHeartbeatAckEnvelope(bytes);
      ++failure_counters_.heartbeat_acks;
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
  if (failed_) {
    return;  // a dead worker falls silent
  }
  wire::HeartbeatEnvelope beat;
  beat.worker = id_;
  beat.seq = ++heartbeat_seq_;
  transport_->Send(address(), net::NodeAddress::Controller(), MessageKind::kControl,
                   wire::EncodeHeartbeatEnvelope(beat), /*cost_bytes=*/16);
  ++failure_counters_.heartbeats_sent;
  timers_->Schedule(period, [this, period]() { StartHeartbeats(period); });
}

Worker::Group& Worker::GetOrCreateGroup(std::uint64_t seq) {
  for (Group& g : groups_) {
    if (g.seq == seq) {
      return g;
    }
  }
  NIMBUS_CHECK_GT(seq, stale_seq_floor_) << "group " << seq << " already finished or halted";
  if (spare_groups_.empty()) {
    groups_.emplace_back();
  } else {
    groups_.push_back(std::move(spare_groups_.back()));  // reset when it was recycled
    spare_groups_.pop_back();
  }
  Group& g = groups_.back();
  g.seq = seq;
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

void Worker::OnCommands(std::uint64_t group_seq, const std::vector<Command>& commands,
                        std::size_t expected_total) {
  // Message handlers run serially (simulator delivery): assert the control-phase role so
  // the group machinery's REQUIRES contract is satisfied from here down (DESIGN.md §11).
  control_phase_.Assert();
  if (failed_) {
    return;
  }
  if (group_seq <= stale_seq_floor_) {
    return;  // in-flight leftovers of a group that finished or was halted: drop
  }
  meter_.Charge(sim::Work::kReceiveTask, commands.size());
  IngestCommands(group_seq, commands, expected_total);
}

void Worker::OnSerializedCommands(std::uint64_t group_seq, const ParameterBlob& bytes,
                                  std::size_t expected_total) {
  control_phase_.Assert();
  if (failed_) {
    return;
  }
  if (group_seq <= stale_seq_floor_) {
    return;
  }
  // The decode span covers DecodeBatch alone: ingest, group start and any task the ingest
  // runs inline have spans of their own.
  const wire::ScratchGuard guard(&scratch_live_);
  wire::DecodedBatch& batch = batch_scratch_;
  {
    NIMBUS_TRACE_SPAN_V(trace::Lane::kWorker, TraceTrack(id_), "decode",
                        static_cast<std::int64_t>(bytes.size()));
    wire::DecodeBatch(bytes, &batch);
  }
  NIMBUS_CHECK_EQ(batch.header.group_seq, group_seq)
      << "serialized batch addressed to a different group";
  meter_.Charge(sim::Work::kDecodeCommand, batch.commands.size());
  IngestCommands(group_seq, batch.commands, expected_total);
}

void Worker::IngestCommands(std::uint64_t group_seq, const std::vector<Command>& commands,
                            std::size_t expected_total) {
  if (command_log_enabled_) {
    command_log_.insert(command_log_.end(), commands.begin(), commands.end());
  }

  // The group's first frame sets its total; every later frame must repeat it.
  NIMBUS_CHECK_GT(expected_total, 0u) << "group " << group_seq << " frame names no total";
  Group& group = GetOrCreateGroup(group_seq);
  if (group.expected_total == 0) {
    group.expected_total = expected_total;
  }
  NIMBUS_CHECK_EQ(group.expected_total, expected_total)
      << "group " << group_seq << " frame disagrees with its first frame's total";
  // A batch fills an empty group's table with at most one allocation (none once a recycled
  // table is big enough). Sized from what was decoded, never from the sender's
  // expected_total; per-task frames (one command each) grow the table geometrically.
  if (group.commands.empty()) {
    group.commands.reserve(commands.size());
  }
  for (const Command& cmd : commands) {
    AddCommandToGroup(group, cmd);
  }
  MaybeStartGroups();
  FinishGroupIfDone(group_seq);
}

void Worker::OnInstallTemplate(core::WorkerHalf half, WorkerTemplateId id) {
  control_phase_.Assert();
  if (failed_) {
    return;
  }
  meter_.Charge(sim::Work::kInstallHalf, half.entries.size());
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

  // Materialize the cached table into a runnable group after the control-thread charge.
  // A halt between the charge and the materialization discards the instantiation: its
  // group belongs to the abandoned pre-halt schedule (halt_epoch_ tracks this).
  const std::uint64_t epoch = halt_epoch_;
  meter_.Submit(sim::Work::kMaterialize, cached.half.entries.size(),
                [this, tmpl_index, epoch, msg = std::move(msg)]() {
    // Deferred back onto the serial control phase by the simulator; the analysis sees
    // lambda bodies as separate functions, so the role is re-asserted here.
    control_phase_.Assert();
    if (failed_ || epoch != halt_epoch_) {
      return;
    }
    MaterializeInstantiation(tmpl_index, msg);
  });
}

void Worker::MaterializeInstantiation(DenseIndex tmpl_index, const InstantiateMsg& msg) {
  NIMBUS_TRACE_SPAN(trace::Lane::kWorker, TraceTrack(id_), "materialize");
  CachedTemplate& cached = templates_[tmpl_index];
  const std::vector<core::WtEntry>& entries = cached.half.entries;
  cached.dense.resize(entries.size());

  Group& group = GetOrCreateGroup(msg.group_seq);
  NIMBUS_CHECK(group.commands.empty())
      << "group " << msg.group_seq << " materialized over existing commands";

  // Recycled command table (DESIGN.md §9.3): take the template's spare table, the one its
  // last pruned group handed back. A second live group of this template finds the spare
  // gone and starts from an empty table, so live groups never share storage.
  group.commands.swap(cached.spare_table);
  group.template_index = tmpl_index;

  // Sorted view of the sparse per-entry parameters: lookup below is a binary search, not a
  // hash probe (steady state does no hashing per task).
  std::vector<std::pair<std::int32_t, const ParameterBlob*>> params;
  params.reserve(msg.params.size());
  for (const auto& [slot, blob] : msg.params) {
    params.emplace_back(slot, &blob);
  }
  std::sort(params.begin(), params.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // One pass in entry order: entry i becomes command slot i. Its objects resolve to
  // store-dense indices on first touch (or after an edit replaced the slot), so every
  // later instantiation of this template skips the interning; a receive binds its copy
  // slot as soon as it is built. Every slot is reset before it is filled: a recycled slot
  // may hold a different entry type from before an edit, and its vectors refill within
  // their kept capacity.
  group.commands.resize(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const core::WtEntry& e = entries[i];
    CachedTemplate::DenseSets& ds = cached.dense[i];
    if (!ds.valid && !e.dead) {
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
        if (e.type == CommandType::kCopyReceive) {
          BindReceiveSlot(group, static_cast<std::int32_t>(i));
        }
        break;
      }
      default:
        rc.cmd.data_object = e.object;
        break;
    }
  }
  ++materialize_counters_.groups;
  materialize_counters_.entries += entries.size();

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

  group.expected_total = entries.size();
  MaybeStartGroups();
  FinishGroupIfDone(msg.group_seq);
}

void Worker::OnHalt() {
  control_phase_.Assert();
  for (const Group& g : groups_) {
    stale_seq_floor_ = std::max(stale_seq_floor_, g.seq);
  }
  for (Group& g : groups_) {
    RecycleGroup(g);
  }
  groups_.clear();
  early_data_.clear();
  ++halt_epoch_;  // voids instantiations still queued behind their control-thread charge
}

std::uint32_t Worker::IdOffset(Group& group, CommandId id) {
  constexpr std::uint64_t kBudget = std::uint64_t{1} << kCopyIndexBits;
  if (!group.command_base.valid()) {
    group.command_base = id;  // the first id seen; ids below it rebase the table
  }
  const std::uint64_t base = group.command_base.value();
  const std::uint64_t size = group.id_slots.size();
  if (id.value() >= base) {
    const std::uint64_t offset = id.value() - base;
    NIMBUS_CHECK_LT(offset, kBudget)
        << "command id " << id << " lies outside group " << group.seq
        << "'s 2^24 command-index budget (base " << group.command_base << ")";
    if (offset >= size) {
      group.id_slots.resize(offset + 1, -1);
    }
    return static_cast<std::uint32_t>(offset);
  }
  const std::uint64_t shift = base - id.value();
  NIMBUS_CHECK(shift < kBudget && shift + size <= kBudget)
      << "command id " << id << " lies outside group " << group.seq
      << "'s 2^24 command-index budget (base " << group.command_base << ")";
  group.id_slots.insert(group.id_slots.begin(), shift, -1);
  for (auto& parked : group.parked_edges) {
    parked.first += static_cast<std::uint32_t>(shift);
  }
  group.command_base = id;
  return 0;
}

void Worker::AddCommandToGroup(Group& group, const Command& cmd) {
  const auto index = static_cast<std::int32_t>(group.commands.size());
  // Refill a recycled slot when there is one: its vectors keep their capacity, so copying
  // the decoded command in allocates nothing.
  if (spare_commands_.empty()) {
    group.commands.emplace_back();
  } else {
    group.commands.push_back(std::move(spare_commands_.back()));
    spare_commands_.pop_back();
  }
  RuntimeCommand& rc = group.commands.back();
  rc.ResetKeepingCapacity();
  rc.cmd = cmd;
  for (CommandId b : rc.cmd.before) {
    const std::uint32_t offset = IdOffset(group, b);
    const std::int32_t provider = group.id_slots[offset];
    if (provider < 0) {
      group.parked_edges.emplace_back(offset, index);  // not arrived yet (forward edge)
    } else if (group.commands[static_cast<std::size_t>(provider)].done) {
      continue;  // dependency already completed
    } else {
      group.commands[static_cast<std::size_t>(provider)].waiters.push_back(index);
    }
    ++rc.remaining_before;
  }

  ResolveTaskObjects(rc);
  // The slot is registered after the edges, so a self-edge parks and resolves to a
  // self-wait below. A duplicate id keeps the first arrival's slot.
  const std::uint32_t own = IdOffset(group, rc.cmd.id);
  if (group.id_slots[own] < 0) {
    group.id_slots[own] = index;
  }
  if (rc.cmd.type == CommandType::kCopyReceive) {
    BindReceiveSlot(group, index);
  }

  // Resolve edges from commands that named this id before it arrived, in parking order.
  if (!group.parked_edges.empty()) {
    std::size_t kept = 0;
    for (const auto& [offset, waiter] : group.parked_edges) {
      if (offset == own) {
        group.commands[static_cast<std::size_t>(index)].waiters.push_back(waiter);
      } else {
        group.parked_edges[kept++] = {offset, waiter};
      }
    }
    group.parked_edges.resize(kept);
  }

  if (group.started) {
    TryLaunch(group, index);
  }
}

void Worker::MaybeStartGroups() {
  // Groups run in arrival order: the first unstarted group starts once every earlier one
  // is done. Starting it can run commands synchronously and prune groups, so the scan
  // stops there instead of iterating a deque that may have changed.
  for (const Group& group : groups_) {
    if (!group.started) {
      StartGroup(group.seq);
      return;
    }
    if (group.done_count != group.expected_total) {
      return;
    }
  }
}

void Worker::StartGroup(std::uint64_t seq) {
  Group* group = FindGroup(seq);
  if (group == nullptr || group->started) {
    return;
  }
  group->started = true;
  NIMBUS_TRACE_SPAN(trace::Lane::kWorker, TraceTrack(id_), "group_start");

  // Launch in index order; TryLaunch skips a command that is not ready or already
  // launched. Launching one command can synchronously complete others (copy sends, no-ops),
  // whose cascade launches whatever they make ready, and can even finish + prune the group,
  // so re-find it on every step.
  const std::size_t n = group->commands.size();
  for (std::size_t i = 0; i < n; ++i) {
    group = FindGroup(seq);
    if (group == nullptr) {
      break;
    }
    TryLaunch(*group, static_cast<std::int32_t>(i));
  }
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
      const std::int64_t bytes = rc.cmd.copy_bytes > 0
                                     ? rc.cmd.copy_bytes
                                     : store_.Get(rc.cmd.data_object)->ByteSize();
      meter_.RunOnCore(sim::Work::kCheckpointSave, bytes,
                       [this, key = LaunchKey(group.seq, index)]() {
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
      meter_.RunOnCore(sim::Work::kCheckpointLoad, entry.payload->ByteSize(),
                       [this, key = LaunchKey(group.seq, index)]() {
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
  meter_.RunTask(rc.cmd.duration, [this, key = LaunchKey(group.seq, index)]() {
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
  if (group == nullptr || !group->started || group->done_count != group->expected_total) {
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

  // Prune completed groups from the front and unblock the next waiting group. Buffered
  // copy data dies with its group; any early data addressed below the retired floor can
  // never be claimed and is dropped too. The group's storage is recycled for the next one.
  bool pruned = false;
  while (!groups_.empty()) {
    Group& front = groups_.front();
    if (front.started && front.reported && front.done_count == front.expected_total) {
      stale_seq_floor_ = std::max(stale_seq_floor_, front.seq);
      RecycleGroup(front);
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

void Worker::RecycleGroup(Group& group) {
  if (group.template_index != kInvalidDenseIndex) {
    // The materialized table goes back to its template as the spare the next
    // instantiation refills.
    templates_[group.template_index].spare_table = std::move(group.commands);
  } else {
    // Pushed last-to-first, so the next group's command i pops this group's slot i and a
    // same-shaped block refills every slot within its own kept capacity.
    for (auto it = group.commands.rbegin(); it != group.commands.rend(); ++it) {
      spare_commands_.push_back(std::move(*it));
    }
  }
  group.ResetKeepingCapacity();
  spare_groups_.push_back(std::move(group));
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
