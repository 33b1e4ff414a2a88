#include "src/runtime/instantiation_pipeline.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/tracing.h"
#include "src/runtime/shard_audit.h"

namespace nimbus::runtime {

InstantiationPipeline::InstantiationPipeline(Executor* executor, std::uint32_t shard_count)
    : executor_(executor), shard_count_(shard_count) {
  serial_phase_.Assert();
  NIMBUS_CHECK(IsPowerOfTwo(shard_count))
      << "shard count must be a power of two, got " << shard_count;
  shard_counters_.EnsureShards(shard_count_);
}

void InstantiationPipeline::Configure(Executor* executor, std::uint32_t shard_count) {
  serial_phase_.Assert();
  NIMBUS_CHECK(IsPowerOfTwo(shard_count))
      << "shard count must be a power of two, got " << shard_count;
  executor_ = executor;
  shard_count_ = shard_count;
  plans_ = DenseMap<ShardPlan>{};
  serialized_plans_ = DenseMap<SerializedPlan>{};
  shard_counters_.Clear();
  shard_counters_.EnsureShards(shard_count_);
  serialized_counters_.Clear();
}

// -----------------------------------------------------------------------------------------
// Shard plans
// -----------------------------------------------------------------------------------------

void InstantiationPipeline::BuildPlan(const core::CompiledInstantiation& compiled,
                                      std::uint32_t shard_count, ShardPlan* plan) {
  plan->map_uid = compiled.map_uid;
  plan->set_generation = compiled.set_generation;
  plan->shard_count = shard_count;
  plan->built = true;
  // A rebuild can cover objects the old plan never swept (edits add write deltas, ad-hoc
  // plans serve unrelated sets): the existence memo must not survive it.
  plan->all_objects_exist = false;
  plan->exist_checked_epoch = 0;
  plan->pre_by_shard.assign(shard_count, {});
  plan->delta_by_shard.assign(shard_count, {});
  for (std::uint32_t i = 0; i < compiled.preconditions.size(); ++i) {
    const auto& pre = compiled.preconditions[i];
    plan->pre_by_shard[ShardOfIndex(pre.object, shard_count)].push_back(
        PlannedPrecondition{pre, i});
  }
  for (const auto& delta : compiled.write_deltas) {
    plan->delta_by_shard[ShardOfIndex(delta.object, shard_count)].push_back(delta);
  }
}

InstantiationPipeline::ShardPlan& InstantiationPipeline::PlanFor(
    const core::WorkerTemplateSet& set, const core::CompiledInstantiation& compiled) {
  // Every set the engine sees carries a real id (template projections and cached stage
  // plans alike); an id-less set here is a programmer error.
  NIMBUS_CHECK(set.id().valid());
  // Worker-template ids are allocated contiguously from 0 (see TemplateManager), so the
  // id value doubles as the dense index, like the controller's set_states_.
  const auto index = static_cast<DenseIndex>(set.id().value());
  plans_.EnsureSize(index + 1);
  ShardPlan* plan = &plans_[index];
  if (!plan->built || plan->map_uid != compiled.map_uid ||
      plan->set_generation != compiled.set_generation ||
      plan->shard_count != shard_count_) {
    BuildPlan(compiled, shard_count_, plan);
    ++shard_counters_.plan_builds;
  } else {
    ++shard_counters_.plan_reuses;
  }
  return *plan;
}

// -----------------------------------------------------------------------------------------
// Validate
// -----------------------------------------------------------------------------------------

std::uint32_t InstantiationPipeline::ValidateSubchunks() const {
  return std::min(shard_count_, 4u);
}

std::size_t InstantiationPipeline::ValidateJobCount() const {
  return static_cast<std::size_t>(shard_count_) * ValidateSubchunks();
}

void InstantiationPipeline::ValidateJob(const ShardPlan& plan, const VersionMap& versions,
                                        std::size_t job, std::vector<TaggedFailure>* out,
                                        std::uint64_t* checked) {
  const std::uint32_t subs = ValidateSubchunks();
  const auto s = static_cast<std::uint32_t>(job / subs);
  const std::size_t sub = job % subs;
  NIMBUS_TRACE_SPAN(trace::Lane::kPipeline, s, "validate_job");
  const auto& planned_pres = plan.pre_by_shard[s];
  const std::size_t begin = sub * planned_pres.size() / subs;
  const std::size_t end = (sub + 1) * planned_pres.size() / subs;
  // The shard view is how this sweep promises to stay inside its dense-index range; the
  // underlying probes are the same flat-array accesses the 1-shard sweep does. The read
  // window is the ownership transfer the clang analysis and the shard auditor check:
  // validation jobs may read their shard, never write it.
  ShardedVersionMap sharded(const_cast<VersionMap*>(&versions), shard_count_);
  ShardedVersionMap::Shard shard = sharded.shard(s);
  ShardReadScope window(&shard, audit::JobKind::kValidate, job);
  for (std::size_t i = begin; i < end; ++i) {
    const auto& pre = planned_pres[i].pre;
    ++*checked;
    if (!shard.ExistsDense(pre.object)) {
      // Not created yet: the block itself creates it on first write.
      continue;
    }
    if (!shard.WorkerHasLatestDense(pre.object, pre.worker)) {
      const WorkerId src = shard.AnyLatestHolderDense(pre.object);
      NIMBUS_CHECK(src.valid()) << "no live replica of object " << pre.sparse_object
                                << " (unrecoverable data loss outside checkpoint path)";
      out->push_back(TaggedFailure{
          planned_pres[i].compiled_index,
          core::PatchDirective{pre.sparse_object, src, pre.sparse_worker, pre.bytes}});
    }
  }
}

void InstantiationPipeline::FoldValidateCounters(
    const std::vector<std::vector<TaggedFailure>>& failures,
    const std::vector<std::uint64_t>& checked) {
  const std::uint32_t subs = ValidateSubchunks();
  for (std::size_t job = 0; job < failures.size(); ++job) {
    const auto s = static_cast<std::uint32_t>(job / subs);
    shard_counters_.preconditions_checked[s] += checked[job];
    shard_counters_.validation_failures[s] += failures[job].size();
  }
  ++shard_counters_.validate_batches;
}

std::vector<core::PatchDirective> InstantiationPipeline::MergeFailures(
    std::vector<std::vector<TaggedFailure>> failures) {
  std::vector<TaggedFailure> all;
  std::size_t total = 0;
  for (const auto& f : failures) {
    total += f.size();
  }
  all.reserve(total);
  for (auto& f : failures) {
    all.insert(all.end(), std::make_move_iterator(f.begin()),
               std::make_move_iterator(f.end()));
  }
  // Restore compiled order (compiled preconditions are (object, dst)-sorted, and
  // downstream consumers — the patch cache's reuse check — rely on it).
  std::sort(all.begin(), all.end(), [](const TaggedFailure& a, const TaggedFailure& b) {
    return a.compiled_index < b.compiled_index;
  });
  std::vector<core::PatchDirective> out;
  out.reserve(all.size());
  for (TaggedFailure& f : all) {
    out.push_back(std::move(f.directive));
  }
  return out;
}

// The precondition sweep over one shard's planned range, appending directly in compiled
// order.
namespace {
template <typename PlannedRange>
std::uint64_t SweepPreconditions(const PlannedRange& range, const VersionMap& versions,
                                 std::vector<core::PatchDirective>* out) {
  std::uint64_t checked = 0;
  for (const auto& entry : range) {
    const auto& pre = entry.pre;
    ++checked;
    if (!versions.ExistsDense(pre.object)) {
      continue;  // not created yet: the block itself creates it on first write
    }
    if (!versions.WorkerHasLatestDense(pre.object, pre.worker)) {
      const WorkerId src = versions.AnyLatestHolderDense(pre.object);
      NIMBUS_CHECK(src.valid()) << "no live replica of object " << pre.sparse_object
                                << " (unrecoverable data loss outside checkpoint path)";
      out->push_back(
          core::PatchDirective{pre.sparse_object, src, pre.sparse_worker, pre.bytes});
    }
  }
  return checked;
}
}  // namespace

std::vector<core::PatchDirective> InstantiationPipeline::Validate(
    const core::WorkerTemplateSet& set, const VersionMap& versions) {
  serial_phase_.Assert();
  // Compiling (and plan building) intern through hash maps: strictly before the batch.
  const ShardPlan& plan = PlanFor(set, set.CompiledFor(versions));
  const std::size_t jobs = ValidateJobCount();
  if (jobs == 1) {
    // The controller's shipped configuration (1 shard): one contiguous sweep appending in
    // compiled order — no tagging, no merge, no sort.
    std::vector<core::PatchDirective> out;
    std::uint64_t checked = 0;
    executor_->Run(1, [&](std::size_t) {
      NIMBUS_TRACE_SPAN(trace::Lane::kPipeline, 0, "validate_job");
      checked = SweepPreconditions(plan.pre_by_shard[0], versions, &out);
    });
    shard_counters_.preconditions_checked[0] += checked;
    shard_counters_.validation_failures[0] += out.size();
    ++shard_counters_.validate_batches;
    return out;
  }
  std::vector<std::vector<TaggedFailure>> failures(jobs);
  std::vector<std::uint64_t> checked(jobs, 0);
  audit::BeginBatch();
  executor_->Run(jobs, [&](std::size_t job) {
    ValidateJob(plan, versions, job, &failures[job], &checked[job]);
  });
  audit::EndBatch();
  FoldValidateCounters(failures, checked);
  return MergeFailures(std::move(failures));
}

// -----------------------------------------------------------------------------------------
// Apply
// -----------------------------------------------------------------------------------------

void InstantiationPipeline::EnsureObjectsExistPlanned(
    ShardPlan* plan, const core::CompiledInstantiation& compiled, VersionMap* versions) {
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
  serial_phase_.Assert();
  // Every apply mutates the version map outside any prior block's ownership window: any
  // stamped cache filled before this call (the controller's lookahead rides its own
  // invalidation sites; this bump backstops them) is stale from here on.
  audit::BumpStamp();
  const core::CompiledInstantiation& compiled = set.CompiledFor(*versions);
  ShardPlan& plan = PlanFor(set, compiled);

  // Serial prologue: interning mutates the id-space hash maps, and object creation bumps
  // map-global counters — both stay off the shard batch.
  struct DenseCopy {
    DenseIndex object;
    DenseIndex dst;
  };
  std::vector<std::vector<DenseCopy>> copies_by_shard(shard_count_);
  for (const core::PatchDirective& d : patch.directives) {
    const DenseIndex object = versions->InternObject(d.object);
    copies_by_shard[ShardOfIndex(object, shard_count_)].push_back(
        DenseCopy{object, versions->InternWorker(d.dst)});
  }
  EnsureObjectsExistPlanned(&plan, compiled, versions);

  // Job lambdas receive the plan through captured locals: the plan caches themselves are
  // serial-phase state the jobs must not (and, on the clang leg, cannot) touch.
  const auto& delta_by_shard = plan.delta_by_shard;
  ShardedVersionMap sharded(versions, shard_count_);
  audit::BeginBatch();
  executor_->Run(shard_count_, [&](std::size_t job) {
    const auto s = static_cast<std::uint32_t>(job);
    NIMBUS_TRACE_SPAN(trace::Lane::kPipeline, s, "apply_job");
    ShardedVersionMap::Shard shard = sharded.shard(s);
    // The single-writer ownership transfer: this job is the only writer of shard s for
    // the duration of the batch. Checked by clang (REQUIRES on the accessors), by the
    // shard auditor (write window), and by the per-access ownership CHECKs.
    ShardWriteScope window(&shard, audit::JobKind::kApply, job);
    // Patch copies land before the block's own writes; per object both live in the same
    // shard, so the relative order is preserved at any shard count.
    for (const DenseCopy& c : copies_by_shard[s]) {
      shard.RecordCopyToLatestDense(c.object, c.dst);
    }
    for (const auto& delta : delta_by_shard[s]) {
      shard.AdvanceVersionsDense(delta.object, delta.primary_holder, delta.write_count);
      for (DenseIndex holder : delta.extra_holders) {
        shard.RecordCopyToLatestDense(delta.object, holder);
      }
    }
  });
  audit::EndBatch();
  // Per-shard delta counts are knowable without running the jobs: fold them serially so
  // the batch writes nothing but version-map state.
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    shard_counters_.deltas_applied[s] += delta_by_shard[s].size();
  }
  ++shard_counters_.apply_batches;
}

void InstantiationPipeline::EnsureObjectsExist(const core::WorkerTemplateSet& set,
                                               VersionMap* versions) {
  serial_phase_.Assert();
  audit::BumpStamp();  // object creation is an out-of-window mutation
  const core::CompiledInstantiation& compiled = set.CompiledFor(*versions);
  EnsureObjectsExistPlanned(&PlanFor(set, compiled), compiled, versions);
}

// -----------------------------------------------------------------------------------------
// Assemble (+ overlapped next-block validation)
// -----------------------------------------------------------------------------------------

void InstantiationPipeline::AssembleChunk(const core::WorkerTemplateSet& set,
                                          const ParamList& params,
                                          const core::EditPlan* edits, std::size_t begin,
                                          std::size_t end,
                                          std::vector<WorkerMessage>* messages) {
  const auto& halves = set.halves();
  const auto& meta = set.entry_meta();
  for (std::size_t h = begin; h < end; ++h) {
    const core::WorkerHalf& half = halves[h];
    WorkerMessage& msg = (*messages)[h];
    msg.worker = half.worker;
    msg.half_index = static_cast<std::uint32_t>(h);
    if (half.entries.empty()) {
      continue;  // dropped by the caller; the dispatcher skips workers with no commands
    }
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
}

std::vector<WorkerMessage> InstantiationPipeline::AssembleMessages(
    const core::WorkerTemplateSet& set, const ParamList& params, const core::EditPlan* edits,
    const core::WorkerTemplateSet* next_set, const VersionMap* versions,
    std::vector<core::PatchDirective>* next_required) {
  serial_phase_.Assert();
  const auto& halves = set.halves();
  std::vector<WorkerMessage> messages(halves.size());

  const ShardPlan* next_plan = nullptr;
  const std::size_t next_jobs = next_set != nullptr ? ValidateJobCount() : 0;
  std::vector<std::vector<TaggedFailure>> next_failures(next_jobs);
  std::vector<std::uint64_t> next_checked(next_jobs, 0);
  if (next_set != nullptr) {
    NIMBUS_CHECK(versions != nullptr && next_required != nullptr);
    next_plan = &PlanFor(*next_set, next_set->CompiledFor(*versions));  // serial: interns
  }

  // The engine's parallelism degree is the shard count across every stage: assembly runs
  // as shard_count contiguous chunks of halves, not one job per half (per-worker jobs are
  // too fine for the executor's per-job overhead, and would make a 1-shard engine
  // implicitly parallel).
  const std::size_t chunks = shard_count_;
  const std::size_t total_jobs = chunks + next_jobs;
  audit::BeginBatch();
  executor_->Run(total_jobs, [&](std::size_t job) {
    if (job >= chunks) {
      // Block N+1's validation riding the same batch: it only reads the version map, which
      // no assembly job touches.
      const std::size_t vjob = job - chunks;
      ValidateJob(*next_plan, *versions, vjob, &next_failures[vjob], &next_checked[vjob]);
      return;
    }
    NIMBUS_TRACE_SPAN(trace::Lane::kPipeline, static_cast<std::uint32_t>(job),
                      "assemble_job");
    const std::size_t begin = job * halves.size() / chunks;
    const std::size_t end = (job + 1) * halves.size() / chunks;
    AssembleChunk(set, params, edits, begin, end, &messages);
  });
  audit::EndBatch();

  shard_counters_.assemble_jobs += chunks;
  if (next_set != nullptr) {
    FoldValidateCounters(next_failures, next_checked);
    *next_required = MergeFailures(std::move(next_failures));
  }

  // Compact out empty halves, preserving half order (the dispatch order).
  std::vector<WorkerMessage> out;
  out.reserve(messages.size());
  for (WorkerMessage& m : messages) {
    if (!halves[m.half_index].entries.empty()) {
      out.push_back(std::move(m));
    }
  }
  return out;
}

// -----------------------------------------------------------------------------------------
// Serialized batches: cached wire encodings patched per instantiation (DESIGN.md §10)
// -----------------------------------------------------------------------------------------

std::vector<SerializedBatch> InstantiationPipeline::AssembleSerializedBatches(
    const core::WorkerTemplateSet& set, const ParamList& params, std::uint64_t group_seq,
    TaskId task_base, const std::vector<CommandId>& half_bases) {
  serial_phase_.Assert();
  NIMBUS_CHECK(set.id().valid());
  const auto& halves = set.halves();
  NIMBUS_CHECK_EQ(half_bases.size(), halves.size());

  // Sparse params sorted once by slot, as wire::ApplyParamOverrides requires.
  ParamList sorted_params = params;
  std::stable_sort(sorted_params.begin(), sorted_params.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  // Resolve the cached plan serially (DenseMap growth is not job-safe); jobs then touch
  // disjoint half slots only. The stamp is the set's edit generation alone: unlike shard
  // plans, the encoded bytes read nothing from the version map, so neither the map uid nor
  // the churn epoch can make them stale.
  const auto index = static_cast<DenseIndex>(set.id().value());
  serialized_plans_.EnsureSize(index + 1);
  SerializedPlan* plan = &serialized_plans_[index];
  const bool rebuild = !plan->built || plan->set_generation != set.generation();
  if (rebuild) {
    plan->halves.assign(halves.size(), HalfTemplate{});
    plan->set_generation = set.generation();
    plan->built = true;
  }

  std::vector<SerializedBatch> batches(halves.size());
  // Same chunking as message assembly: the engine's parallelism degree is the shard count
  // across every stage, and chunks write disjoint batch slots.
  const std::size_t chunks = shard_count_;
  executor_->Run(chunks, [&](std::size_t job) {
    NIMBUS_TRACE_SPAN(trace::Lane::kPipeline, static_cast<std::uint32_t>(job),
                      "assemble_serialized_job");
    const std::size_t begin = job * halves.size() / chunks;
    const std::size_t end = (job + 1) * halves.size() / chunks;
    for (std::size_t h = begin; h < end; ++h) {
      SerializedBatch& batch = batches[h];
      batch.worker = halves[h].worker;
      batch.half_index = static_cast<std::uint32_t>(h);
      if (halves[h].entries.empty()) {
        continue;  // compacted out below; the dispatcher skips workers with no commands
      }
      NIMBUS_CHECK(half_bases[h].valid());
      HalfTemplate& tmpl = plan->halves[h];
      if (rebuild) {
        // Cold path: build the half's commands against zero bases (cached parameters
        // baked in, no overrides) through core::CommandFromEntry — the per-task
        // dispatcher's builder, so the two wire forms carry one command stream by
        // construction — and encode them once. The bytes are instantiation-invariant from
        // here on.
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
      }
      wire::PatchStats stats;
      batch.bytes = wire::ApplyParamOverrides(tmpl.bytes, tmpl.slots, sorted_params, &stats);
      wire::PatchHeader(&batch.bytes, group_seq, half_bases[h], task_base);
      batch.task_count = tmpl.task_count;
      batch.command_count = tmpl.command_count;
      batch.wire_size = static_cast<std::int64_t>(batch.bytes.size());
      batch.reused = !rebuild;
      batch.params_patched = stats.params_patched;
      batch.spliced = stats.spliced;
    }
  });
  shard_counters_.assemble_jobs += chunks;

  // Compact out empty halves and fold the counters serially (jobs never touch them).
  std::vector<SerializedBatch> out;
  out.reserve(batches.size());
  for (SerializedBatch& b : batches) {
    if (halves[b.half_index].entries.empty()) {
      continue;
    }
    if (b.reused) {
      ++serialized_counters_.half_reuses;
    } else {
      ++serialized_counters_.half_encodes;
      serialized_counters_.bytes_encoded += plan->halves[b.half_index].bytes.size();
      shard_counters_.commands_assembled += b.command_count;
    }
    ++serialized_counters_.batches;
    serialized_counters_.commands += b.command_count;
    serialized_counters_.params_patched += b.params_patched;
    serialized_counters_.splices += b.spliced ? 1 : 0;
    serialized_counters_.bytes_shipped += b.bytes.size();
    out.push_back(std::move(b));
  }
  return out;
}

}  // namespace nimbus::runtime
