#include "src/core/template_manager.h"

#include <algorithm>

namespace nimbus::core {

// ---------------------------------------------------------------------------------------
// Capture
// ---------------------------------------------------------------------------------------

TemplateId TemplateManager::BeginCapture(const std::string& name) {
  NIMBUS_CHECK(capturing_ == nullptr) << "nested template capture";
  const TemplateId id = template_ids_.Next();
  auto tmpl = std::make_unique<ControllerTemplate>(id, name);
  capturing_ = tmpl.get();
  // Ids are allocated contiguously from 0: the new slot is always the back.
  NIMBUS_CHECK_EQ(id.value(), templates_.size());
  templates_.push_back(TemplateSlot{std::move(tmpl), {}});
  by_name_[name] = id;
  return id;
}

std::int32_t TemplateManager::CaptureTask(FunctionId function,
                                          std::vector<LogicalObjectId> reads,
                                          std::vector<LogicalObjectId> writes,
                                          int placement_partition, sim::Duration duration,
                                          bool returns_scalar, ParameterBlob params) {
  NIMBUS_CHECK(capturing_ != nullptr) << "CaptureTask outside template capture";
  TemplateEntry entry;
  entry.function = function;
  entry.reads = std::move(reads);
  entry.writes = std::move(writes);
  entry.placement_partition = placement_partition;
  entry.duration = duration;
  entry.returns_scalar = returns_scalar;
  entry.param_slot = capturing_->AllocateParamSlot();
  entry.cached_params = std::move(params);
  capturing_->AppendEntry(std::move(entry));
  return capturing_->param_slot_count() - 1;
}

ControllerTemplate* TemplateManager::FinishCapture() {
  NIMBUS_CHECK(capturing_ != nullptr) << "FinishCapture without BeginCapture";
  ControllerTemplate* done = capturing_;
  done->MarkFinished();
  capturing_ = nullptr;
  return done;
}

ControllerTemplate* TemplateManager::Find(TemplateId id) {
  if (!id.valid() || id.value() >= templates_.size()) {
    return nullptr;
  }
  return templates_[static_cast<std::size_t>(id.value())].controller_template.get();
}

const ControllerTemplate* TemplateManager::Find(TemplateId id) const {
  if (!id.valid() || id.value() >= templates_.size()) {
    return nullptr;
  }
  return templates_[static_cast<std::size_t>(id.value())].controller_template.get();
}

TemplateId TemplateManager::FindByName(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? TemplateId::Invalid() : it->second;
}

// ---------------------------------------------------------------------------------------
// Projection cache
// ---------------------------------------------------------------------------------------

WorkerTemplateSet* TemplateManager::GetOrProject(TemplateId id, const Assignment& assignment,
                                                 const ObjectBytesFn& object_bytes,
                                                 bool* newly_projected) {
  if (WorkerTemplateSet* found = FindProjection(id, assignment)) {
    if (newly_projected != nullptr) {
      *newly_projected = false;
    }
    return found;
  }
  ControllerTemplate* tmpl = Find(id);
  NIMBUS_CHECK(tmpl != nullptr) << "unknown template " << id;
  const WorkerTemplateId wtid = worker_template_ids_.Next();
  auto set = std::make_unique<WorkerTemplateSet>(
      ProjectBlock(*tmpl, assignment, wtid, object_bytes));
  WorkerTemplateSet* out = set.get();
  // Worker-template ids are allocated contiguously from 0: the id value is the index.
  NIMBUS_CHECK_EQ(wtid.value(), projections_.size());
  projections_.push_back(std::move(set));
  templates_[static_cast<std::size_t>(id.value())].projections.emplace_back(
      assignment.Signature(), static_cast<DenseIndex>(wtid.value()));
  if (newly_projected != nullptr) {
    *newly_projected = true;
  }
  return out;
}

WorkerTemplateSet* TemplateManager::FindProjection(TemplateId id,
                                                   const Assignment& assignment) {
  if (!id.valid() || id.value() >= templates_.size()) {
    return nullptr;
  }
  // A template has a handful of cached schedules: a linear scan of its (signature ->
  // worker-template id) list beats any hash, and the pair key cannot alias.
  const std::uint64_t signature = assignment.Signature();
  const TemplateSlot& slot = templates_[static_cast<std::size_t>(id.value())];
  for (const auto& [sig, index] : slot.projections) {
    if (sig == signature) {
      return projections_[index].get();
    }
  }
  return nullptr;
}

WorkerTemplateSet* TemplateManager::GetOrBuildStagePlan(
    std::uint64_t signature, const Assignment& assignment,
    const std::function<ControllerTemplate()>& build, const ObjectBytesFn& object_bytes,
    std::size_t expected_tasks, bool* newly_built) {
  auto it = std::lower_bound(
      stage_plans_.begin(), stage_plans_.end(), signature,
      [](const std::pair<std::uint64_t, DenseIndex>& e, std::uint64_t s) {
        return e.first < s;
      });
  if (it != stage_plans_.end() && it->first == signature) {
    WorkerTemplateSet* found = projections_[it->second].get();
    // The signature is a content hash; a collision would dispatch the wrong plan, so the
    // cheap structural invariant is checked on every hit.
    NIMBUS_CHECK_EQ(found->entry_meta().size(), expected_tasks)
        << "stage-plan signature collision";
    ++stage_plan_counters_.hits;
    if (newly_built != nullptr) {
      *newly_built = false;
    }
    return found;
  }
  ++stage_plan_counters_.misses;
  const ControllerTemplate adhoc = build();
  NIMBUS_CHECK_EQ(adhoc.task_count(), expected_tasks);
  const WorkerTemplateId wtid = worker_template_ids_.Next();
  auto set = std::make_unique<WorkerTemplateSet>(
      ProjectBlock(adhoc, assignment, wtid, object_bytes));
  WorkerTemplateSet* out = set.get();
  // Stage plans share the projection table (and its contiguous id space) with template
  // projections, so downstream per-set state (pipeline set plans, controller SetState)
  // indexes both uniformly.
  NIMBUS_CHECK_EQ(wtid.value(), projections_.size());
  projections_.push_back(std::move(set));
  stage_plans_.insert(
      std::lower_bound(stage_plans_.begin(), stage_plans_.end(), signature,
                       [](const std::pair<std::uint64_t, DenseIndex>& e, std::uint64_t s) {
                         return e.first < s;
                       }),
      {signature, static_cast<DenseIndex>(wtid.value())});
  if (newly_built != nullptr) {
    *newly_built = true;
  }
  return out;
}

// ---------------------------------------------------------------------------------------
// Patching
// ---------------------------------------------------------------------------------------

Patch TemplateManager::ResolvePatch(const WorkerTemplateSet& set,
                                    std::uint64_t prev_executed, const VersionMap& versions,
                                    std::vector<PatchDirective> required, bool* cache_hit) {
  if (cache_hit != nullptr) {
    *cache_hit = false;
  }
  if (required.empty()) {
    return Patch{};
  }
  // Reuse is confirmed entirely in dense id space: epoch/generation stamps plus
  // O(directives) coverage and source probes.
  const Patch* cached =
      patch_cache_.Reusable(prev_executed, set.id(), required, set.generation(), versions);
  if (cached != nullptr) {
    patch_cache_.RecordHit();
    if (cache_hit != nullptr) {
      *cache_hit = true;
    }
    return *cached;
  }
  patch_cache_.RecordMiss();
  Patch fresh;
  fresh.directives = std::move(required);
  patch_cache_.Store(prev_executed, set.id(), fresh, set.generation(), versions);
  return fresh;
}

// ---------------------------------------------------------------------------------------
// Edits (paper §4.3, Fig 6)
// ---------------------------------------------------------------------------------------

namespace {

// Appends `entry` to `half` both in the controller's cached copy and in the edit plan.
std::int32_t AppendEntry(WorkerHalf* half, std::vector<WorkerEditOp>* ops, WtEntry entry) {
  const auto index = static_cast<std::int32_t>(half->entries.size());
  WorkerEditOp op;
  op.kind = WorkerEditOp::Kind::kAppendEntry;
  op.entry = entry;
  ops->push_back(op);
  half->entries.push_back(std::move(entry));
  return index;
}

void AddBeforeEdge(WorkerHalf* half, std::vector<WorkerEditOp>* ops, std::int32_t index,
                   std::int32_t edge) {
  WorkerEditOp op;
  op.kind = WorkerEditOp::Kind::kAddBeforeEdge;
  op.index = index;
  op.edge = edge;
  ops->push_back(op);
  half->entries[static_cast<std::size_t>(index)].before.push_back(edge);
}

void ReplaceWithReceive(WorkerHalf* half, std::vector<WorkerEditOp>* ops, std::int32_t index,
                        const WtEntry& receive) {
  WorkerEditOp op;
  op.kind = WorkerEditOp::Kind::kReplaceWithReceive;
  op.index = index;
  op.entry = receive;
  ops->push_back(op);
  // Keep the slot's before set: it is a superset of the WAR ordering the receive needs, and
  // keeping it means no other entry's edges have to change (the whole point of the trick).
  WtEntry& slot = half->entries[static_cast<std::size_t>(index)];
  std::vector<std::int32_t> old_before = std::move(slot.before);
  slot = receive;
  slot.before = std::move(old_before);
}

// Plans one copy of `object` from `src` to `dst` under the set's next copy index: appends
// the send to `src`'s half, after its entry `after`, and returns the matching receive for
// the caller to place on `dst`.
WtEntry AppendCopySend(WorkerTemplateSet* set, EditPlan* plan, WorkerId src, WorkerId dst,
                       LogicalObjectId object, std::int32_t after) {
  WtEntry send;
  send.type = CommandType::kCopySend;
  send.copy_index = set->NextCopyIndex();
  send.peer = dst;
  send.object = object;
  send.bytes = set->ObjectBytes(object);
  send.reads = {object};
  send.before = {after};
  AppendEntry(set->HalfFor(src), plan->OpsFor(src), send);

  WtEntry recv;
  recv.type = CommandType::kCopyReceive;
  recv.copy_index = send.copy_index;
  recv.peer = src;
  recv.object = object;
  recv.bytes = send.bytes;
  recv.writes = {object};
  return recv;
}

// AppendCopySend with the receive appended to `dst`'s half; returns the receive's index.
std::int32_t AppendCopyPair(WorkerTemplateSet* set, EditPlan* plan, WorkerId src,
                            WorkerId dst, LogicalObjectId object, std::int32_t after) {
  WtEntry recv = AppendCopySend(set, plan, src, dst, object, after);
  return AppendEntry(set->HalfFor(dst), plan->OpsFor(dst), std::move(recv));
}

// Adds `holder` to the final holders of `object`'s write delta. Returns the delta, or null
// when the block does not write `object`.
WriteDelta* AddFinalHolder(WorkerTemplateSet* set, LogicalObjectId object, WorkerId holder) {
  for (WriteDelta& delta : set->mutable_write_deltas()) {
    if (delta.object == object) {
      if (std::find(delta.final_holders.begin(), delta.final_holders.end(), holder) ==
          delta.final_holders.end()) {
        delta.final_holders.push_back(holder);
      }
      return &delta;
    }
  }
  return nullptr;
}

}  // namespace

EditPlan TemplateManager::PlanMigration(WorkerTemplateSet* set, std::int32_t global_entry,
                                        WorkerId to) {
  EditPlan plan;
  auto& meta = set->mutable_entry_meta();
  NIMBUS_CHECK_GE(global_entry, 0);
  NIMBUS_CHECK_LT(static_cast<std::size_t>(global_entry), meta.size());
  EntryMeta& em = meta[static_cast<std::size_t>(global_entry)];
  const WorkerId from = em.worker;
  if (from == to) {
    return plan;
  }

  const ControllerTemplate* tmpl = Find(set->parent());
  NIMBUS_CHECK(tmpl != nullptr);
  const auto& entries = tmpl->entries();
  const TemplateEntry& src_entry = entries[static_cast<std::size_t>(global_entry)];

  // AddHalf can reallocate the halves vector, so create `to`'s half before taking any half
  // pointers.
  if (set->HalfFor(to) == nullptr) {
    set->AddHalf(to);
  }
  WorkerHalf* from_half = set->HalfFor(from);
  NIMBUS_CHECK(from_half != nullptr);

  const WtEntry original = from_half->entries[static_cast<std::size_t>(em.local_index)];
  NIMBUS_CHECK(original.type == CommandType::kTask);
  NIMBUS_CHECK(!original.dead);

  auto* from_ops = plan.OpsFor(from);
  auto* to_ops = plan.OpsFor(to);

  // ---- Rebuild the task on `to` ----
  WtEntry moved = original;
  moved.before.clear();

  // Reads: in-block providers become copy pairs (provider worker -> to); block inputs move
  // their precondition from `from` to `to` (the patcher supplies the data at instantiation).
  for (std::size_t i = 0; i < src_entry.reads.size(); ++i) {
    const LogicalObjectId r = src_entry.reads[i];
    const std::int32_t provider = em.read_providers[i];
    if (provider >= 0) {
      const EntryMeta& pm = meta[static_cast<std::size_t>(provider)];
      if (pm.worker == to) {
        moved.before.push_back(pm.local_index);
        continue;
      }
      // Copy pair provider-worker -> to.
      WorkerHalf* prov_half = set->HalfFor(pm.worker);
      NIMBUS_CHECK(prov_half != nullptr);
      const auto send_index = static_cast<std::int32_t>(prov_half->entries.size());
      moved.before.push_back(AppendCopyPair(set, &plan, pm.worker, to, r, pm.local_index));

      // WAR fix: a later in-block writer of `r` on the provider worker must wait for the
      // appended send. O(writers-of-r) via the object index.
      if (const core::ObjectIndex* oi = set->FindObjectIndex(r)) {
        for (std::int32_t h : oi->writers) {
          if (h > provider && meta[static_cast<std::size_t>(h)].worker == pm.worker) {
            AddBeforeEdge(prov_half, plan.OpsFor(pm.worker),
                          meta[static_cast<std::size_t>(h)].local_index, send_index);
            break;
          }
        }
      }
    } else {
      // Block input: move the precondition. The template stops being locally satisfied on
      // `to` until the next patch runs; a restored end-of-block copy (below) keeps it
      // self-validating afterwards.
      set->ReleasePrecondition(r, from);
      set->AddPrecondition(r, to);

      // WAR fix: an in-block writer of `r` on `to` must now wait for the moved reader.
      // (Edge added after the task is appended; collected first.)
    }
  }

  const std::int32_t moved_index =
      static_cast<std::int32_t>(set->HalfFor(to)->entries.size());

  // WAR edges for block-input reads: writers of those objects placed on `to` must run after
  // the moved task.
  std::vector<std::int32_t> writers_needing_edge;
  for (std::size_t i = 0; i < src_entry.reads.size(); ++i) {
    if (em.read_providers[i] >= 0) {
      continue;
    }
    const core::ObjectIndex* oi = set->FindObjectIndex(src_entry.reads[i]);
    if (oi == nullptr) {
      continue;
    }
    for (std::int32_t h : oi->writers) {
      if (h != global_entry && meta[static_cast<std::size_t>(h)].worker == to) {
        writers_needing_edge.push_back(meta[static_cast<std::size_t>(h)].local_index);
      }
    }
  }
  // Ordering for the moved task's own writes: readers/writers of those objects already on
  // `to` earlier in program order must precede it.
  for (const LogicalObjectId o : src_entry.writes) {
    const core::ObjectIndex* oi = set->FindObjectIndex(o);
    if (oi == nullptr) {
      continue;
    }
    for (std::int32_t h : oi->touchers) {
      if (h >= global_entry) {
        break;  // touchers are in program order
      }
      if (meta[static_cast<std::size_t>(h)].worker == to) {
        moved.before.push_back(meta[static_cast<std::size_t>(h)].local_index);
      }
    }
  }

  std::sort(moved.before.begin(), moved.before.end());
  moved.before.erase(std::unique(moved.before.begin(), moved.before.end()),
                     moved.before.end());
  const std::int32_t task_index = AppendEntry(set->HalfFor(to), to_ops, moved);
  NIMBUS_CHECK_EQ(task_index, moved_index);
  for (std::int32_t writer_index : writers_needing_edge) {
    AddBeforeEdge(set->HalfFor(to), to_ops, writer_index, task_index);
  }

  // ---- Route the outputs back: the old slot on `from` becomes a copy-receive fed by a
  // send on `to` (Fig 6: same index, so downstream edges on `from` are untouched). ----
  bool first_write = true;
  for (const LogicalObjectId o : src_entry.writes) {
    const WtEntry recv = AppendCopySend(set, &plan, to, from, o, task_index);
    if (first_write) {
      ReplaceWithReceive(from_half, from_ops, em.local_index, recv);
      first_write = false;
    } else {
      const std::int32_t extra_index = AppendEntry(from_half, from_ops, recv);
      // Consumers of this extra object on `from` must also wait for the appended receive.
      for (std::int32_t consumer : em.consumers) {
        const EntryMeta& cm = meta[static_cast<std::size_t>(consumer)];
        const auto& centry = entries[static_cast<std::size_t>(consumer)];
        if (cm.worker == from &&
            std::find(centry.reads.begin(), centry.reads.end(), o) != centry.reads.end()) {
          AddBeforeEdge(from_half, from_ops, cm.local_index, extra_index);
        }
      }
    }

    // The write's final holders now include `to` (the task runs there first).
    AddFinalHolder(set, o, to);
  }

  // ---- Restore self-validation for moved block-input reads of objects that the block
  // itself rewrites (e.g. model coefficients): append an end-of-block copy from the last
  // in-block writer to `to`, mirroring what projection does (§4.2). ----
  for (std::size_t i = 0; i < src_entry.reads.size(); ++i) {
    if (em.read_providers[i] >= 0) {
      continue;
    }
    const LogicalObjectId r = src_entry.reads[i];
    const core::ObjectIndex* oi = set->FindObjectIndex(r);
    const std::int32_t last_writer =
        (oi != nullptr && !oi->writers.empty()) ? oi->writers.back() : -1;
    if (last_writer < 0 || last_writer == global_entry) {
      continue;  // never rewritten in-block: precondition persists by induction
    }
    const EntryMeta& wm = meta[static_cast<std::size_t>(last_writer)];
    if (wm.worker == to) {
      continue;  // final value already lands on `to`
    }
    // Skip if an end-of-block copy to `to` already exists for r.
    bool covered = false;
    for (const WriteDelta& delta : set->write_deltas()) {
      if (delta.object == r &&
          std::find(delta.final_holders.begin(), delta.final_holders.end(), to) !=
              delta.final_holders.end()) {
        covered = true;
        break;
      }
    }
    if (covered) {
      continue;
    }
    AppendCopyPair(set, &plan, wm.worker, to, r, wm.local_index);
    AddFinalHolder(set, r, to);
  }

  em.worker = to;
  em.local_index = task_index;
  plan.tasks_touched += 2;  // one remove + one add (paper: a migration is two edits)
  return plan;
}

EditPlan TemplateManager::PlanRemoveTask(WorkerTemplateSet* set, std::int32_t global_entry) {
  EditPlan plan;
  auto& meta = set->mutable_entry_meta();
  NIMBUS_CHECK_GE(global_entry, 0);
  NIMBUS_CHECK_LT(static_cast<std::size_t>(global_entry), meta.size());
  EntryMeta& em = meta[static_cast<std::size_t>(global_entry)];
  if (!em.consumers.empty()) {
    return plan;  // downstream tasks read its outputs; removal would dangle them
  }
  WorkerHalf* half = set->HalfFor(em.worker);
  NIMBUS_CHECK(half != nullptr);
  WtEntry& slot = half->entries[static_cast<std::size_t>(em.local_index)];
  if (slot.dead || slot.type != CommandType::kTask) {
    return plan;
  }

  const ControllerTemplate* tmpl = Find(set->parent());
  NIMBUS_CHECK(tmpl != nullptr);
  const TemplateEntry& entry = tmpl->entries()[static_cast<std::size_t>(global_entry)];

  // Release the preconditions its block-input reads held.
  for (std::size_t i = 0; i < entry.reads.size(); ++i) {
    if (em.read_providers[i] < 0) {
      set->ReleasePrecondition(entry.reads[i], em.worker);
    }
  }
  // Shrink the write deltas: one fewer write of each output.
  for (LogicalObjectId o : entry.writes) {
    auto& deltas = set->mutable_write_deltas();
    for (auto it = deltas.begin(); it != deltas.end(); ++it) {
      if (it->object == o) {
        if (--it->write_count == 0) {
          deltas.erase(it);
        }
        break;
      }
    }
  }

  WorkerEditOp op;
  op.kind = WorkerEditOp::Kind::kTombstone;
  op.index = em.local_index;
  plan.OpsFor(em.worker)->push_back(op);
  slot.dead = true;
  plan.tasks_touched += 1;  // one remove = one edit
  return plan;
}

EditPlan TemplateManager::PlanAddTask(WorkerTemplateSet* set, WorkerId worker,
                                      FunctionId function,
                                      std::vector<LogicalObjectId> reads,
                                      std::vector<LogicalObjectId> writes,
                                      sim::Duration duration) {
  EditPlan plan;
  auto& meta = set->mutable_entry_meta();
  if (set->HalfFor(worker) == nullptr) {
    set->AddHalf(worker);
  }

  WtEntry task;
  task.type = CommandType::kTask;
  task.function = function;
  task.global_entry = static_cast<std::int32_t>(meta.size());
  task.duration = duration;
  task.reads = reads;
  task.writes = writes;

  EntryMeta em;
  em.worker = worker;

  // Reads: in-block-produced values flow via provider edges or copy pairs; block inputs
  // become preconditions satisfied by the next patch.
  for (LogicalObjectId r : reads) {
    const ObjectIndex* oi = set->FindObjectIndex(r);
    const std::int32_t provider =
        (oi != nullptr && !oi->writers.empty()) ? oi->writers.back() : -1;
    em.read_providers.push_back(provider);
    if (provider < 0) {
      set->AddPrecondition(r, worker);
      continue;
    }
    const EntryMeta& pm = meta[static_cast<std::size_t>(provider)];
    if (pm.worker == worker) {
      task.before.push_back(pm.local_index);
      continue;
    }
    task.before.push_back(AppendCopyPair(set, &plan, pm.worker, worker, r, pm.local_index));
  }

  // Writes: order after existing touchers on this worker; extend the deltas.
  for (LogicalObjectId o : writes) {
    if (const ObjectIndex* oi = set->FindObjectIndex(o)) {
      for (std::int32_t h : oi->touchers) {
        if (meta[static_cast<std::size_t>(h)].worker == worker) {
          task.before.push_back(meta[static_cast<std::size_t>(h)].local_index);
        }
      }
    }
    if (WriteDelta* delta = AddFinalHolder(set, o, worker)) {
      ++delta->write_count;
    } else {
      set->mutable_write_deltas().push_back(WriteDelta{o, 1, {worker}});
    }
  }
  std::sort(task.before.begin(), task.before.end());
  task.before.erase(std::unique(task.before.begin(), task.before.end()), task.before.end());

  em.local_index = AppendEntry(set->HalfFor(worker), plan.OpsFor(worker), std::move(task));
  meta.push_back(std::move(em));

  plan.tasks_touched += 1;  // one add = one edit
  return plan;
}

}  // namespace nimbus::core
