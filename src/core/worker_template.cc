#include "src/core/worker_template.h"

#include <algorithm>

namespace nimbus::core {

Assignment Assignment::RoundRobin(int partitions, const std::vector<WorkerId>& workers) {
  NIMBUS_CHECK(!workers.empty());
  std::vector<WorkerId> map(static_cast<std::size_t>(partitions));
  for (int p = 0; p < partitions; ++p) {
    map[static_cast<std::size_t>(p)] = workers[static_cast<std::size_t>(p) % workers.size()];
  }
  return Assignment(std::move(map));
}

std::vector<WorkerId> Assignment::Workers() const {
  std::vector<WorkerId> out = partition_to_worker_;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::uint64_t Assignment::Signature() const {
  // FNV-1a over the worker ids.
  std::uint64_t h = 1469598103934665603ull;
  for (WorkerId w : partition_to_worker_) {
    h ^= w.value() + 1;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

// Per-(worker, object) bookkeeping during projection.
struct LocalObjState {
  // Local index of the command that produced this worker's current value (-1: block input).
  std::int32_t provider = -1;
  // Local indexes that read the current value since `provider` (WAR ordering).
  std::vector<std::int32_t> readers_since;
};

// Per-object global bookkeeping during projection, in one contiguous array indexed by dense
// object id. Residency lives in the builder's flat bitset (one bit per (object, worker));
// `resident_list` mirrors the set bits in insertion order — after a write, the writer first
// — because the write delta's final_holders order is meaningful (front = primary holder).
struct GlobalObjState {
  bool written = false;
  std::uint32_t write_count = 0;
  std::int32_t last_writer_entry = -1;
  DenseIndex last_writer_worker = kInvalidDenseIndex;
  std::vector<DenseIndex> resident_list;
  // Per-worker local state; objects are touched by a handful of workers, so a flat scan
  // beats any map.
  std::vector<std::pair<DenseIndex, LocalObjState>> locals;
};

struct Builder {
  WorkerTemplateSet* set = nullptr;
  const ObjectBytesFn* object_bytes = nullptr;
  Interner<WorkerId> workers;        // dense worker id == position of the worker's half
  Interner<LogicalObjectId> objects;
  std::vector<GlobalObjState> global;  // by dense object id
  IndexBitset resident;                // bit (object * worker_stride + worker)
  std::size_t worker_stride = 0;       // distinct workers in the assignment

  // Dense worker id, creating the worker's half on first sight. The invariant `dense
  // worker id == half position` is what makes Half() a plain array index; it would desync
  // silently if anything else added halves mid-projection, so check it loudly.
  DenseIndex WorkerIndex(WorkerId w) {
    const DenseIndex index = workers.Intern(w);
    if (index == set->halves().size()) {
      set->AddHalf(w);
    }
    NIMBUS_CHECK_EQ(workers.size(), set->halves().size());
    return index;
  }

  WorkerHalf& Half(DenseIndex w) { return set->mutable_halves()[w]; }

  // Dense object id, allocating its state slot (and residency bitset row) on first sight.
  DenseIndex ObjectIndex(LogicalObjectId o) {
    const DenseIndex index = objects.Intern(o);
    if (index == global.size()) {
      global.emplace_back();
      resident.EnsureSize((index + 1) * worker_stride);
    }
    return index;
  }

  bool IsResident(DenseIndex obj, DenseIndex w) const {
    return resident.Test(obj * worker_stride + w);
  }

  void AddResident(DenseIndex obj, DenseIndex w) {
    if (!resident.Test(obj * worker_stride + w)) {
      resident.Set(obj * worker_stride + w);
      global[obj].resident_list.push_back(w);
    }
  }

  void ClearResidents(DenseIndex obj) {
    for (DenseIndex w : global[obj].resident_list) {
      resident.Reset(obj * worker_stride + w);
    }
    global[obj].resident_list.clear();
  }

  LocalObjState& Local(DenseIndex w, DenseIndex obj) {
    auto& locals = global[obj].locals;
    for (auto& [worker, state] : locals) {
      if (worker == w) {
        return state;
      }
    }
    locals.emplace_back(w, LocalObjState{});
    return locals.back().second;
  }

  std::int64_t BytesOf(LogicalObjectId o) {
    const std::int64_t b = (*object_bytes)(o);
    set->SetObjectBytes(o, b);
    return b;
  }

  // Emits a copy pair moving `o`'s current value from `src` to `dst`. Returns the local
  // index of the receive on `dst`.
  std::int32_t EmitCopy(LogicalObjectId o, DenseIndex obj, DenseIndex src, DenseIndex dst) {
    const std::int32_t copy_index = set->NextCopyIndex();
    const std::int64_t bytes = BytesOf(o);

    WorkerHalf& src_half = Half(src);
    WtEntry send;
    send.type = CommandType::kCopySend;
    send.copy_index = copy_index;
    send.peer = workers.Resolve(dst);
    send.object = o;
    send.bytes = bytes;
    send.reads = {o};
    LocalObjState& src_state = Local(src, obj);
    if (src_state.provider >= 0) {
      send.before.push_back(src_state.provider);
    }
    const auto send_index = static_cast<std::int32_t>(src_half.entries.size());
    src_half.entries.push_back(std::move(send));
    src_state.readers_since.push_back(send_index);

    WorkerHalf& dst_half = Half(dst);
    WtEntry recv;
    recv.type = CommandType::kCopyReceive;
    recv.copy_index = copy_index;
    recv.peer = workers.Resolve(src);
    recv.object = o;
    recv.bytes = bytes;
    recv.writes = {o};
    // WAR on the destination: the receive overwrites the local instance, so it must wait
    // for local readers of the previous value.
    LocalObjState& dst_state = Local(dst, obj);
    if (dst_state.provider >= 0) {
      recv.before.push_back(dst_state.provider);
    }
    for (std::int32_t r : dst_state.readers_since) {
      recv.before.push_back(r);
    }
    const auto recv_index = static_cast<std::int32_t>(dst_half.entries.size());
    dst_half.entries.push_back(std::move(recv));
    dst_state.provider = recv_index;
    dst_state.readers_since.clear();

    return recv_index;
  }
};

void SortUnique(std::vector<std::int32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

WorkerTemplateSet ProjectBlock(const ControllerTemplate& block, const Assignment& assignment,
                               WorkerTemplateId set_id, const ObjectBytesFn& object_bytes) {
  NIMBUS_CHECK(block.finished()) << "projecting an unfinished template";

  WorkerTemplateSet set(set_id, block.id(), assignment);
  Builder b;
  b.set = &set;
  b.object_bytes = &object_bytes;
  b.worker_stride = assignment.Workers().size();

  auto& meta = set.mutable_entry_meta();
  meta.resize(block.entries().size());

  std::vector<DenseIndex> read_objs;  // dense ids of the current entry's reads, reused
  for (std::size_t g = 0; g < block.entries().size(); ++g) {
    const TemplateEntry& entry = block.entries()[g];
    NIMBUS_CHECK_GE(entry.placement_partition, 0)
        << "entry " << g << " has no placement partition";
    const WorkerId w = assignment.WorkerFor(entry.placement_partition);
    const DenseIndex wi = b.WorkerIndex(w);

    WtEntry task;
    task.type = CommandType::kTask;
    task.function = entry.function;
    task.global_entry = static_cast<std::int32_t>(g);
    task.duration = entry.duration;
    task.returns_scalar = entry.returns_scalar;
    task.reads = entry.reads;
    task.writes = entry.writes;
    task.cached_params = entry.cached_params;

    EntryMeta& em = meta[g];
    em.worker = w;
    em.read_providers.reserve(entry.reads.size());

    // --- Reads: RAW edges, copy insertion, precondition discovery ---
    read_objs.clear();
    for (LogicalObjectId r : entry.reads) {
      const DenseIndex obj = b.ObjectIndex(r);
      read_objs.push_back(obj);
      GlobalObjState& os = b.global[obj];
      if (os.written) {
        em.read_providers.push_back(os.last_writer_entry);
        meta[static_cast<std::size_t>(os.last_writer_entry)].consumers.push_back(
            static_cast<std::int32_t>(g));
        if (!b.IsResident(obj, wi)) {
          // Cross-worker read: move the value here with a copy pair.
          const std::int32_t recv_index = b.EmitCopy(r, obj, os.last_writer_worker, wi);
          b.AddResident(obj, wi);
          task.before.push_back(recv_index);
        } else {
          const LocalObjState& ls = b.Local(wi, obj);
          if (ls.provider >= 0) {
            task.before.push_back(ls.provider);
          }
        }
      } else {
        // Block input: worker must hold the latest version at entry (precondition). The
        // patching machinery enforces it at instantiation time if it does not hold.
        em.read_providers.push_back(-1);
        b.AddResident(obj, wi);
        set.AddPrecondition(r, w);
        const LocalObjState& ls = b.Local(wi, obj);
        if (ls.provider >= 0) {
          task.before.push_back(ls.provider);
        }
      }
    }

    const auto task_index_placeholder = static_cast<std::int32_t>(b.Half(wi).entries.size());

    // Record this entry as a reader for WAR tracking (dense ids cached by the loop above).
    for (DenseIndex obj : read_objs) {
      b.Local(wi, obj).readers_since.push_back(task_index_placeholder);
    }

    // --- Writes: WAW/WAR edges, residency reset ---
    for (LogicalObjectId o : entry.writes) {
      const DenseIndex obj = b.ObjectIndex(o);
      GlobalObjState& os = b.global[obj];
      LocalObjState& ls = b.Local(wi, obj);
      if (ls.provider >= 0) {
        task.before.push_back(ls.provider);
      }
      for (std::int32_t r : ls.readers_since) {
        if (r != task_index_placeholder) {
          task.before.push_back(r);
        }
      }
      // Note: other workers' LocalObjState entries are intentionally preserved. Their
      // provider/readers describe commands touching the *previous* version; if a copy of
      // the new version later lands there, the receive needs WAR edges against exactly
      // those commands (otherwise it can overwrite the instance while an old-version
      // reader is still pending). Residency is tracked separately in the builder's bitset.
      os.written = true;
      ++os.write_count;
      os.last_writer_entry = static_cast<std::int32_t>(g);
      os.last_writer_worker = wi;
      b.ClearResidents(obj);
      b.AddResident(obj, wi);
      ls.provider = task_index_placeholder;
      ls.readers_since.clear();
    }

    SortUnique(&task.before);
    em.local_index = task_index_placeholder;
    b.Half(wi).entries.push_back(std::move(task));
  }

  // --- Self-validation pass (paper §4.2): make the postcondition imply the precondition,
  // so that back-to-back instantiations of this template skip validation entirely. For each
  // precondition (o, w) where the block's final value of `o` ended up elsewhere, append an
  // end-of-block copy to w (cf. Fig 5b: "adds a data copy of object 1 to worker 2 at the
  // end of the template"). Preconditions iterate in (object, worker) order, so the appended
  // copies are deterministic.
  for (const auto& [pre, refcount] : set.preconditions()) {
    const DenseIndex obj = b.objects.Find(pre.object);
    NIMBUS_CHECK(obj != kInvalidDenseIndex);
    GlobalObjState& os = b.global[obj];
    if (os.written) {
      const DenseIndex wi = b.workers.Find(pre.worker);
      NIMBUS_CHECK(wi != kInvalidDenseIndex);
      if (!b.IsResident(obj, wi)) {
        b.EmitCopy(pre.object, obj, os.last_writer_worker, wi);
        b.AddResident(obj, wi);
      }
    }
  }
  set.SetSelfValidating(true);

  // --- Per-object edit index (program-order writer/toucher lists) ---
  {
    auto& index = set.mutable_object_index();
    for (std::size_t g = 0; g < block.entries().size(); ++g) {
      const TemplateEntry& entry = block.entries()[g];
      for (LogicalObjectId r : entry.reads) {
        index[r].touchers.push_back(static_cast<std::int32_t>(g));
      }
      for (LogicalObjectId o : entry.writes) {
        ObjectIndex& oi = index[o];
        oi.writers.push_back(static_cast<std::int32_t>(g));
        if (oi.touchers.empty() || oi.touchers.back() != static_cast<std::int32_t>(g)) {
          oi.touchers.push_back(static_cast<std::int32_t>(g));
        }
      }
    }
  }

  // --- Version-map delta ---
  for (DenseIndex obj = 0; obj < b.global.size(); ++obj) {
    const GlobalObjState& os = b.global[obj];
    if (os.written) {
      WriteDelta delta;
      delta.object = b.objects.Resolve(obj);
      delta.write_count = os.write_count;
      delta.final_holders.reserve(os.resident_list.size());
      for (DenseIndex w : os.resident_list) {
        delta.final_holders.push_back(b.workers.Resolve(w));
      }
      set.mutable_write_deltas().push_back(std::move(delta));
    }
  }
  // Sorted by object id: Validate's compiled sweep and the projection-determinism test
  // rely on this order.
  std::sort(set.mutable_write_deltas().begin(), set.mutable_write_deltas().end(),
            [](const WriteDelta& a, const WriteDelta& d) { return a.object < d.object; });

  return set;
}

const CompiledInstantiation& WorkerTemplateSet::CompiledFor(const VersionMap& versions) const {
  if (compiled_.map_uid == versions.uid() && compiled_.set_generation == generation_) {
    return compiled_;
  }
  compiled_.map_uid = versions.uid();
  compiled_.set_generation = generation_;
  compiled_.preconditions.clear();
  compiled_.write_deltas.clear();
  compiled_.preconditions.reserve(preconditions_.size());
  compiled_.write_deltas.reserve(write_deltas_.size());
  // Interning here assigns dense ids for objects the map has not seen yet (their slots read
  // as nonexistent until the block creates them); ids are never reused, so the compiled
  // plan stays valid until the set itself is edited.
  for (const auto& [pre, refcount] : preconditions_) {
    CompiledInstantiation::CompiledPrecondition cp;
    cp.object = versions.InternObject(pre.object);
    cp.worker = versions.InternWorker(pre.worker);
    cp.sparse_object = pre.object;
    cp.sparse_worker = pre.worker;
    cp.bytes = ObjectBytes(pre.object);
    compiled_.preconditions.push_back(cp);
  }
  for (const WriteDelta& delta : write_deltas_) {
    NIMBUS_CHECK(!delta.final_holders.empty());
    CompiledInstantiation::CompiledDelta cd;
    cd.object = versions.InternObject(delta.object);
    cd.write_count = delta.write_count;
    cd.primary_holder = versions.InternWorker(delta.final_holders.front());
    cd.extra_holders.reserve(delta.final_holders.size() - 1);
    for (std::size_t i = 1; i < delta.final_holders.size(); ++i) {
      cd.extra_holders.push_back(versions.InternWorker(delta.final_holders[i]));
    }
    compiled_.write_deltas.push_back(std::move(cd));
  }
  return compiled_;
}

void ApplyWorkerEditOps(WorkerHalf* half, const std::vector<WorkerEditOp>& ops) {
  for (const WorkerEditOp& op : ops) {
    switch (op.kind) {
      case WorkerEditOp::Kind::kAppendEntry:
        half->entries.push_back(op.entry);
        break;
      case WorkerEditOp::Kind::kAddBeforeEdge: {
        NIMBUS_CHECK_GE(op.index, 0);
        NIMBUS_CHECK_LT(static_cast<std::size_t>(op.index), half->entries.size());
        half->entries[static_cast<std::size_t>(op.index)].before.push_back(op.edge);
        break;
      }
      case WorkerEditOp::Kind::kTombstone: {
        NIMBUS_CHECK_GE(op.index, 0);
        NIMBUS_CHECK_LT(static_cast<std::size_t>(op.index), half->entries.size());
        half->entries[static_cast<std::size_t>(op.index)].dead = true;
        break;
      }
      case WorkerEditOp::Kind::kReplaceWithReceive: {
        NIMBUS_CHECK_GE(op.index, 0);
        NIMBUS_CHECK_LT(static_cast<std::size_t>(op.index), half->entries.size());
        WtEntry& slot = half->entries[static_cast<std::size_t>(op.index)];
        std::vector<std::int32_t> old_before = std::move(slot.before);
        slot = op.entry;
        slot.before = std::move(old_before);
        break;
      }
    }
  }
}

void CommandFromEntry(const WtEntry& entry, std::size_t index, CommandId command_base,
                      TaskId task_base, std::uint64_t group_seq,
                      const ParameterBlob* override_params, Command* out) {
  Command& cmd = *out;
  cmd.ResetKeepingCapacity();
  cmd.id = CommandId(command_base.value() + index);
  for (std::int32_t bidx : entry.before) {
    cmd.before.push_back(CommandId(command_base.value() + static_cast<std::uint64_t>(bidx)));
  }
  cmd.type = entry.type;
  switch (entry.type) {
    case CommandType::kTask:
      cmd.function = entry.function;
      cmd.task_id =
          TaskId(task_base.value() + static_cast<std::uint64_t>(entry.global_entry));
      cmd.duration = entry.duration;
      cmd.returns_scalar = entry.returns_scalar;
      // Copy-assignment reuses the kept capacity when it suffices.
      cmd.read_set = entry.reads;
      cmd.write_set = entry.writes;
      cmd.params = override_params != nullptr ? *override_params : entry.cached_params;
      break;
    case CommandType::kCopySend:
    case CommandType::kCopyReceive:
      cmd.copy_id = MakeCopyId(group_seq, entry.copy_index);
      cmd.peer = entry.peer;
      cmd.copy_object = entry.object;
      cmd.copy_bytes = entry.bytes;
      break;
    default:
      cmd.data_object = entry.object;
      break;
  }
}

Command CommandFromEntry(const WtEntry& entry, std::size_t index, CommandId command_base,
                         TaskId task_base, std::uint64_t group_seq,
                         const ParameterBlob* override_params) {
  Command cmd;
  CommandFromEntry(entry, index, command_base, task_base, group_seq, override_params, &cmd);
  return cmd;
}

}  // namespace nimbus::core
