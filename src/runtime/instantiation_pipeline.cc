#include "src/runtime/instantiation_pipeline.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/tracing.h"

namespace nimbus::runtime {

// -----------------------------------------------------------------------------------------
// Set plans
// -----------------------------------------------------------------------------------------

InstantiationPipeline::SetPlan& InstantiationPipeline::PlanFor(
    const core::WorkerTemplateSet& set, const core::CompiledInstantiation& compiled) {
  // Every set the pipeline sees carries a real id (template projections and cached stage
  // plans alike); an id-less set here is a programmer error.
  NIMBUS_CHECK(set.id().valid());
  // Worker-template ids are allocated contiguously from 0 (see TemplateManager), so the
  // id value doubles as the dense index, like the controller's set_states_.
  const auto index = static_cast<DenseIndex>(set.id().value());
  plans_.EnsureSize(index + 1);
  SetPlan* plan = &plans_[index];
  if (!plan->built || plan->map_uid != compiled.map_uid ||
      plan->set_generation != compiled.set_generation) {
    // A rebuild can cover objects the old plan never swept (edits add write deltas, ad-hoc
    // plans serve unrelated sets): the existence memo must not survive it.
    *plan = SetPlan{compiled.map_uid, compiled.set_generation, /*built=*/true};
    ++shard_counters_.plan_builds;
  } else {
    ++shard_counters_.plan_reuses;
  }
  return *plan;
}

// -----------------------------------------------------------------------------------------
// Validate
// -----------------------------------------------------------------------------------------

std::vector<core::PatchDirective> InstantiationPipeline::Validate(
    const core::WorkerTemplateSet& set, const VersionMap& versions) {
  const core::CompiledInstantiation& compiled = set.CompiledFor(versions);
  PlanFor(set, compiled);
  std::vector<core::PatchDirective> out;
  {
    NIMBUS_TRACE_SPAN(trace::Lane::kPipeline, 0, "validate_job");
    for (const auto& pre : compiled.preconditions) {
      if (!versions.ExistsDense(pre.object)) {
        continue;  // not created yet: the block itself creates it on first write
      }
      if (!versions.WorkerHasLatestDense(pre.object, pre.worker)) {
        const WorkerId src = versions.AnyLatestHolderDense(pre.object);
        NIMBUS_CHECK(src.valid()) << "no live replica of object " << pre.sparse_object
                                  << " (unrecoverable data loss outside checkpoint path)";
        out.push_back(
            core::PatchDirective{pre.sparse_object, src, pre.sparse_worker, pre.bytes});
      }
    }
  }
  shard_counters_.preconditions_checked += compiled.preconditions.size();
  shard_counters_.validation_failures += out.size();
  ++shard_counters_.validate_batches;
  return out;
}

// -----------------------------------------------------------------------------------------
// Apply
// -----------------------------------------------------------------------------------------

void InstantiationPipeline::EnsureObjectsExistPlanned(
    SetPlan* plan, const core::CompiledInstantiation& compiled, VersionMap* versions) {
  if (plan->all_objects_exist && plan->exist_checked_epoch == versions->churn_epoch()) {
    return;  // nothing destroyed since the last full sweep: every delta object still exists
  }
  for (const auto& delta : compiled.write_deltas) {
    if (!versions->ExistsDense(delta.object)) {
      versions->CreateObjectDense(delta.object, delta.primary_holder);
    }
  }
  plan->all_objects_exist = true;
  plan->exist_checked_epoch = versions->churn_epoch();
}

void InstantiationPipeline::ApplyEffects(const core::WorkerTemplateSet& set,
                                         const core::Patch& patch, VersionMap* versions) {
  ++map_writes_;
  const core::CompiledInstantiation& compiled = set.CompiledFor(*versions);
  EnsureObjectsExistPlanned(&PlanFor(set, compiled), compiled, versions);

  NIMBUS_TRACE_SPAN(trace::Lane::kPipeline, 0, "apply_job");
  // Patch copies land before the block's own writes.
  for (const core::PatchDirective& d : patch.directives) {
    versions->RecordCopyToLatest(d.object, d.dst);
  }
  for (const auto& delta : compiled.write_deltas) {
    versions->AdvanceVersionsDense(delta.object, delta.primary_holder, delta.write_count);
    for (DenseIndex holder : delta.extra_holders) {
      versions->RecordCopyToLatestDense(delta.object, holder);
    }
  }
  shard_counters_.deltas_applied += compiled.write_deltas.size();
  ++shard_counters_.apply_batches;
}

void InstantiationPipeline::EnsureObjectsExist(const core::WorkerTemplateSet& set,
                                               VersionMap* versions) {
  ++map_writes_;
  const core::CompiledInstantiation& compiled = set.CompiledFor(*versions);
  EnsureObjectsExistPlanned(&PlanFor(set, compiled), compiled, versions);
}

// -----------------------------------------------------------------------------------------
// Assemble
// -----------------------------------------------------------------------------------------

std::vector<WorkerMessage> InstantiationPipeline::AssembleMessages(
    const core::WorkerTemplateSet& set, const ParamList& params,
    const core::EditPlan* edits) {
  NIMBUS_TRACE_SPAN(trace::Lane::kPipeline, 0, "assemble_job");
  const auto& meta = set.entry_meta();
  std::vector<WorkerMessage> out;
  out.reserve(set.halves().size());
  for (std::size_t h = 0; h < set.halves().size(); ++h) {
    const core::WorkerHalf& half = set.halves()[h];
    if (half.entries.empty()) {
      continue;  // the dispatcher skips workers with no commands
    }
    WorkerMessage& msg = out.emplace_back();
    msg.worker = half.worker;
    msg.half_index = static_cast<std::uint32_t>(h);
    msg.entry_count = half.entries.size();
    std::int64_t wire = 64;
    for (const auto& [slot, blob] : params) {
      // Route each parameter to the worker owning its entry (workers used to receive the
      // full list and discard foreign slots).
      if (slot >= 0 && static_cast<std::size_t>(slot) < meta.size() &&
          meta[static_cast<std::size_t>(slot)].worker == half.worker) {
        msg.params.emplace_back(slot, blob);
        wire += 8 + static_cast<std::int64_t>(blob.size());
      }
    }
    if (edits != nullptr) {
      auto it = edits->per_worker.find(half.worker);
      if (it != edits->per_worker.end() && !it->second.empty()) {
        msg.edits = &it->second;
        for (const core::WorkerEditOp& op : it->second) {
          wire += op.WireSize();
        }
      }
    }
    msg.wire_size = wire;
  }
  ++shard_counters_.assemble_jobs;
  return out;
}

// -----------------------------------------------------------------------------------------
// Serialized batches: cached wire encodings patched per instantiation (DESIGN.md §10)
// -----------------------------------------------------------------------------------------

std::vector<SerializedBatch> InstantiationPipeline::AssembleSerializedBatches(
    const core::WorkerTemplateSet& set, const ParamList& params, std::uint64_t group_seq,
    TaskId task_base, const std::vector<CommandId>& half_bases) {
  NIMBUS_CHECK(set.id().valid());
  const auto& halves = set.halves();
  NIMBUS_CHECK_EQ(half_bases.size(), halves.size());

  // Sparse params sorted once by slot, as wire::ApplyParamOverrides requires.
  ParamList sorted_params = params;
  std::stable_sort(sorted_params.begin(), sorted_params.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  // The stamp is the set's edit generation alone: unlike set plans, the encoded bytes read
  // nothing from the version map, so neither the map uid nor the churn epoch can make them
  // stale.
  const auto index = static_cast<DenseIndex>(set.id().value());
  serialized_plans_.EnsureSize(index + 1);
  SerializedPlan* plan = &serialized_plans_[index];
  const bool rebuild = !plan->built || plan->set_generation != set.generation();
  if (rebuild) {
    plan->halves.assign(halves.size(), HalfTemplate{});
    plan->set_generation = set.generation();
    plan->built = true;
  }

  NIMBUS_TRACE_SPAN(trace::Lane::kPipeline, 0, "assemble_serialized_job");
  std::vector<SerializedBatch> out;
  out.reserve(halves.size());
  for (std::size_t h = 0; h < halves.size(); ++h) {
    if (halves[h].entries.empty()) {
      continue;  // the dispatcher skips workers with no commands
    }
    NIMBUS_CHECK(half_bases[h].valid());
    HalfTemplate& tmpl = plan->halves[h];
    if (rebuild) {
      // Cold path: build the half's commands against zero bases (cached parameters baked
      // in, no overrides) through core::CommandFromEntry — the per-task dispatcher's
      // builder, so the two wire forms carry one command stream by construction — and
      // encode them once. The bytes are instantiation-invariant from here on.
      const std::vector<core::WtEntry>& entries = halves[h].entries;
      std::vector<Command> cold;
      cold.reserve(entries.size());
      for (std::size_t i = 0; i < entries.size(); ++i) {
        tmpl.task_count += entries[i].type == CommandType::kTask ? 1 : 0;
        cold.push_back(core::CommandFromEntry(entries[i], i, CommandId(0), TaskId(0),
                                              /*group_seq=*/0, nullptr));
      }
      tmpl.bytes = wire::EncodeBatch(/*group_seq=*/0, CommandId(0), TaskId(0), cold,
                                     &tmpl.slots);
      tmpl.command_count = static_cast<std::uint32_t>(cold.size());
      ++serialized_counters_.half_encodes;
      serialized_counters_.bytes_encoded += tmpl.bytes.size();
      shard_counters_.commands_assembled += tmpl.command_count;
    } else {
      ++serialized_counters_.half_reuses;
    }
    SerializedBatch& batch = out.emplace_back();
    batch.worker = halves[h].worker;
    batch.half_index = static_cast<std::uint32_t>(h);
    wire::PatchStats stats;
    batch.bytes = wire::ApplyParamOverrides(tmpl.bytes, tmpl.slots, sorted_params, &stats);
    wire::PatchHeader(&batch.bytes, group_seq, half_bases[h], task_base);
    batch.task_count = tmpl.task_count;
    batch.command_count = tmpl.command_count;
    batch.wire_size = static_cast<std::int64_t>(batch.bytes.size());
    batch.reused = !rebuild;
    batch.params_patched = stats.params_patched;
    batch.spliced = stats.spliced;
    ++serialized_counters_.batches;
    serialized_counters_.commands += batch.command_count;
    serialized_counters_.params_patched += batch.params_patched;
    serialized_counters_.splices += batch.spliced ? 1 : 0;
    serialized_counters_.bytes_shipped += batch.bytes.size();
  }
  ++shard_counters_.assemble_jobs;
  return out;
}

}  // namespace nimbus::runtime
