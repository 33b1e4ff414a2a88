// The sharded instantiation engine (DESIGN.md §7).
//
// The one instantiation path (paper §4.2): validate the set's preconditions, patch the ones
// that fail (TemplateManager::ResolvePatch consults the patch cache), apply the block's
// effects to the version map, assemble the worker messages. The controller calls these
// stages directly, since cost accounting and dispatch interleave with them. Each stage
// splits into independent jobs an Executor can run in parallel, deterministically:
//
//  * validate     — one job per shard, sweeping the shard's slice of the compiled
//                   precondition array against its dense-index range of the version map;
//  * apply-delta  — one job per shard, applying the shard's patch-copy effects and compiled
//                   write deltas (shard-disjoint writes, order-independent by construction);
//  * assemble     — one job per worker half, routing instantiation parameters and pending
//                   edit ops to the worker they address and sizing the wire message.
//
// The assemble batch can additionally carry the *next* block's validate jobs: message
// assembly never touches the version map, so once block N's deltas are applied, validating
// block N+1 overlaps with assembling block N's messages (the ROADMAP's pipelined controller
// loop). Results are executor- and shard-count-invariant; with the InlineExecutor the same
// batches run sequentially in index order, which is why the simulator keeps it.
//
// Shard plans (which compiled-array entries each shard owns) are cached per worker-template
// set and revalidated by (map uid, set edit generation, shard count), exactly like compiled
// instantiations (§6.3).

#ifndef NIMBUS_SRC_RUNTIME_INSTANTIATION_PIPELINE_H_
#define NIMBUS_SRC_RUNTIME_INSTANTIATION_PIPELINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/dense_id.h"
#include "src/common/ids.h"
#include "src/common/serialize.h"
#include "src/common/stats.h"
#include "src/common/thread_annotations.h"
#include "src/core/patch.h"
#include "src/core/template_manager.h"
#include "src/core/worker_template.h"
#include "src/data/version_map.h"
#include "src/runtime/executor.h"
#include "src/runtime/sharded_version_map.h"
#include "src/task/wire.h"

namespace nimbus::runtime {

// Sparse per-entry instantiation parameters: (global entry index, blob).
using ParamList = std::vector<std::pair<std::int32_t, ParameterBlob>>;

// One worker's assembled share of an instantiation: everything the controller needs to
// build the wire message, with parameters already routed to the worker that owns the entry
// (workers used to receive the full parameter list and discard foreign slots; routing here
// shrinks the wire and parallelizes the routing work).
struct WorkerMessage {
  WorkerId worker;
  std::uint32_t half_index = 0;  // index into set.halves()
  std::size_t entry_count = 0;   // table size incl. tombstones (O(1); live_count is O(n))
  ParamList params;  // only slots whose entry lives on this worker
  const std::vector<core::WorkerEditOp>* edits = nullptr;  // borrowed from the EditPlan
  // Modeled message size: 64 B, plus 8 B + the blob per parameter, plus
  // WorkerEditOp::WireSize() per edit.
  std::int64_t wire_size = 0;
};

// One worker's share of a serialized central dispatch as a ready-to-ship wire buffer
// (DESIGN.md §10): the pre-encoded template bytes memcpy'd, header-patched, and
// parameter-patched for this instantiation. Decoding `bytes` yields exactly the command
// stream the per-task dispatcher would send for the same half, one command at a time.
struct SerializedBatch {
  WorkerId worker;
  std::uint32_t half_index = 0;       // index into set.halves()
  ParameterBlob bytes;                // ready to ship; wire_size == bytes.size()
  std::uint64_t task_count = 0;       // kTask commands in the batch
  std::uint32_t command_count = 0;
  std::int64_t wire_size = 0;
  bool reused = false;                // template bytes came from the cache
  std::uint64_t params_patched = 0;   // in-place parameter overwrites for this batch
  bool spliced = false;               // a size-changing override forced a rebuild
};

class InstantiationPipeline {
 public:
  // The pipeline borrows the executor. `shard_count` must be a power of two.
  InstantiationPipeline(Executor* executor, std::uint32_t shard_count);

  // Swaps the executor and/or shard count (drops cached shard plans and counters). The
  // simulator stays on (InlineExecutor, any shard count) — results are identical; real
  // parallelism is for the bench/test harnesses.
  void Configure(Executor* executor, std::uint32_t shard_count);

  std::uint32_t shard_count() const { return shard_count_; }
  Executor* executor() { return executor_; }

  // Returns the copy directives required to make all preconditions of `set` hold, sorted
  // by (object, dst) — the compiled precondition array's order, at any shard count. Empty
  // means the set validates as-is. A precondition on an object that does not exist yet is
  // skipped: the block creates it on first write.
  std::vector<core::PatchDirective> Validate(const core::WorkerTemplateSet& set,
                                             const VersionMap& versions);

  // Applies the patch's copy effects and the set's compiled write deltas (write counts and
  // final holders) — what executing the block does to global state. Object creation
  // (map-global state) runs serially before the shard batch.
  void ApplyEffects(const core::WorkerTemplateSet& set, const core::Patch& patch,
                    VersionMap* versions);

  // First write creates an object on its in-block home (the controller's pre-dispatch
  // sweep; serial — creation mutates map-global counters).
  void EnsureObjectsExist(const core::WorkerTemplateSet& set, VersionMap* versions);

  // Per-worker message assembly. Halves with no entries produce no message. When
  // `next_set` is non-null its validation jobs ride in the same executor batch
  // (assembly reads no version-map state, so this is the block-overlap point);
  // the result lands in `next_required`, ordered like Validate().
  std::vector<WorkerMessage> AssembleMessages(
      const core::WorkerTemplateSet& set, const ParamList& params,
      const core::EditPlan* edits, const core::WorkerTemplateSet* next_set = nullptr,
      const VersionMap* versions = nullptr,
      std::vector<core::PatchDirective>* next_required = nullptr);

  // Serialized central dispatch (DESIGN.md §10): per worker half, the pre-encoded wire
  // buffer of the half's full explicit command list — exactly the commands the per-task
  // dispatcher would emit (core::CommandFromEntry), in the same order, with the same ids.
  // Produced from a cached template encoding by buffer copy + three header patches +
  // in-place parameter overwrites — zero per-task allocation in steady state. `half_bases[h]`
  // is the command-id base pre-allocated for half h (invalid for empty halves, which
  // produce no batch); task ids are task_base + global entry; copy ids embed `group_seq`.
  // The cache is keyed like shard plans (by set id) and stamped by the set's edit
  // generation alone: the encoded bytes never read the version map, so map uid / churn
  // epoch cannot invalidate them. Assembly runs as shard_count contiguous chunks of halves,
  // like AssembleMessages.
  std::vector<SerializedBatch> AssembleSerializedBatches(
      const core::WorkerTemplateSet& set, const ParamList& params, std::uint64_t group_seq,
      TaskId task_base, const std::vector<CommandId>& half_bases);

  const ShardCounters& shard_counters() const {
    serial_phase_.Assert();
    return shard_counters_;
  }
  const SerializedBatchCounters& serialized_counters() const {
    serial_phase_.Assert();
    return serialized_counters_;
  }
  void ClearCounters() {
    serial_phase_.Assert();
    shard_counters_.Clear();
    shard_counters_.EnsureShards(shard_count_);
    serialized_counters_.Clear();
  }

 private:
  // A compiled precondition tagged with its index in the compiled array (merging per-shard
  // failures back into compiled order needs it).
  struct PlannedPrecondition {
    core::CompiledInstantiation::CompiledPrecondition pre;
    std::uint32_t compiled_index = 0;
  };

  // Each shard's slice of the compiled arrays, cached per set and revalidated by (map uid,
  // set generation, shard count). Entries are *materialized* per shard, not indexed: a
  // shard's sweep must be a contiguous scan like the 1-shard sweep, or the hash partition
  // turns every probe into a cache miss.
  struct ShardPlan {
    std::uint64_t map_uid = 0;
    std::uint64_t set_generation = ~std::uint64_t{0};
    std::uint32_t shard_count = 0;
    bool built = false;
    std::vector<std::vector<PlannedPrecondition>> pre_by_shard;
    std::vector<std::vector<core::CompiledInstantiation::CompiledDelta>> delta_by_shard;
    // Existence-sweep memo: once every delta object exists, it stays existing until the
    // map's churn epoch moves (creation doesn't bump the epoch; destruction/restore does),
    // so the O(deltas) create-missing sweep is skipped in steady state.
    bool all_objects_exist = false;
    std::uint64_t exist_checked_epoch = 0;
  };

  // One worker half's cached wire encoding: the batch bytes encoded against zero bases
  // with the template's cached parameters baked in, plus the parameter slot table. Per
  // instantiation the bytes are copied, the three header slots patched, and overridden
  // parameters overwritten in place (wire.h).
  struct HalfTemplate {
    ParameterBlob bytes;
    std::vector<wire::ParamSlot> slots;
    std::uint64_t task_count = 0;
    std::uint32_t command_count = 0;
  };

  // Cached serialized encodings of one set's halves. Stamped by set generation only — see
  // AssembleSerializedBatches. Rebuilds are plan-wide: an edit regenerates every half.
  struct SerializedPlan {
    std::uint64_t set_generation = ~std::uint64_t{0};
    bool built = false;
    std::vector<HalfTemplate> halves;
  };

  // A validation failure tagged with its index in the compiled precondition array, so
  // per-shard results merge back into compiled order.
  struct TaggedFailure {
    std::uint32_t compiled_index = 0;
    core::PatchDirective directive;
  };

  ShardPlan& PlanFor(const core::WorkerTemplateSet& set,
                     const core::CompiledInstantiation& compiled)
      NIMBUS_REQUIRES(serial_phase_);
  static void BuildPlan(const core::CompiledInstantiation& compiled,
                        std::uint32_t shard_count, ShardPlan* plan);

  // The create-missing sweep behind EnsureObjectsExist/ApplyEffects, memoized on `plan`.
  void EnsureObjectsExistPlanned(ShardPlan* plan,
                                 const core::CompiledInstantiation& compiled,
                                 VersionMap* versions);

  // Validation decomposes finer than shards: the sweep only READS the version map, so a
  // shard's slice can be scheduled as several sub-ranges (shorter critical path on an
  // uneven batch) without touching the single-writer invariant — which only binds the
  // apply stage. A 1-shard engine still gets exactly one job: sub-chunking scales with the
  // shard count, never past it.
  std::uint32_t ValidateSubchunks() const;
  std::size_t ValidateJobCount() const;

  // Runs validation job `job` (shard job/subs, sub-range job%subs) into `out[job]`,
  // counting probes into `checked[job]`. Called from executor jobs; each job writes only
  // its own slots.
  void ValidateJob(const ShardPlan& plan, const VersionMap& versions, std::size_t job,
                   std::vector<TaggedFailure>* out, std::uint64_t* checked);

  // Serially folds per-job probe/failure counts into the per-shard counters after a batch.
  void FoldValidateCounters(const std::vector<std::vector<TaggedFailure>>& failures,
                            const std::vector<std::uint64_t>& checked)
      NIMBUS_REQUIRES(serial_phase_);

  // Assembles messages for halves [begin, end) into their slots of `messages`. Called from
  // executor jobs; chunks write disjoint slots.
  void AssembleChunk(const core::WorkerTemplateSet& set, const ParamList& params,
                     const core::EditPlan* edits, std::size_t begin, std::size_t end,
                     std::vector<WorkerMessage>* messages);

  static std::vector<core::PatchDirective> MergeFailures(
      std::vector<std::vector<TaggedFailure>> failures);

  Executor* executor_;
  std::uint32_t shard_count_;

  // The serial between-batch phase (DESIGN.md §11). Plan caches and counters may only be
  // touched between executor batches: the public stage methods assert the role at entry
  // (they run on the single control thread by construction), and executor-job lambdas —
  // analyzed without it — cannot reach any of the guarded state below without a compile
  // error on the clang leg. Jobs receive plan state through captured locals instead.
  RoleCapability serial_phase_;
  // Cached per-set shard plans, by worker-template-set id value (contiguous from 0).
  DenseMap<ShardPlan> plans_ NIMBUS_GUARDED_BY(serial_phase_);
  // Cached per-set serialized encodings; same keying as plans_.
  DenseMap<SerializedPlan> serialized_plans_ NIMBUS_GUARDED_BY(serial_phase_);
  ShardCounters shard_counters_ NIMBUS_GUARDED_BY(serial_phase_);
  SerializedBatchCounters serialized_counters_ NIMBUS_GUARDED_BY(serial_phase_);
};

}  // namespace nimbus::runtime

#endif  // NIMBUS_SRC_RUNTIME_INSTANTIATION_PIPELINE_H_
