// The instantiation pipeline (DESIGN.md §7).
//
// The one instantiation path (paper §4.2): validate the set's preconditions, patch the ones
// that fail (TemplateManager::ResolvePatch consults the patch cache), apply the block's
// effects to the version map, assemble the worker messages. The controller calls these
// stages directly, since cost accounting and dispatch interleave with them. Every stage is
// one serial sweep over the set's compiled arrays (§6.3):
//
//  * validate     — the compiled preconditions, in compiled order, against the version map;
//  * apply        — the patch's copy effects, then the compiled write deltas;
//  * assemble     — one loop over the worker halves, routing instantiation parameters and
//                   pending edit ops to the worker they address and sizing the message.
//
// A per-set plan record, revalidated by (map uid, set edit generation) exactly like
// compiled instantiations, carries the existence memo that lets the steady state skip the
// create-missing sweep.

#ifndef NIMBUS_SRC_RUNTIME_INSTANTIATION_PIPELINE_H_
#define NIMBUS_SRC_RUNTIME_INSTANTIATION_PIPELINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/dense_id.h"
#include "src/common/ids.h"
#include "src/common/serialize.h"
#include "src/common/stats.h"
#include "src/core/patch.h"
#include "src/core/template_manager.h"
#include "src/core/worker_template.h"
#include "src/data/version_map.h"
#include "src/task/wire.h"

namespace nimbus::runtime {

// Sparse per-entry instantiation parameters: (global entry index, blob).
using ParamList = std::vector<std::pair<std::int32_t, ParameterBlob>>;

// One worker's assembled share of an instantiation: everything the controller needs to
// build the wire message, with parameters already routed to the worker that owns the entry
// (workers used to receive the full parameter list and discard foreign slots; routing here
// shrinks the wire).
struct WorkerMessage {
  WorkerId worker;
  std::uint32_t half_index = 0;  // index into set.halves()
  std::size_t entry_count = 0;   // table size incl. tombstones
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
  // Returns the copy directives required to make all preconditions of `set` hold, sorted
  // by (object, dst) — the compiled precondition array's order. Empty means the set
  // validates as-is. A precondition on an object that does not exist yet is skipped: the
  // block creates it on first write.
  std::vector<core::PatchDirective> Validate(const core::WorkerTemplateSet& set,
                                             const VersionMap& versions);

  // Applies the patch's copy effects and the set's compiled write deltas (write counts and
  // final holders) — what executing the block does to global state. Missing objects are
  // created first.
  void ApplyEffects(const core::WorkerTemplateSet& set, const core::Patch& patch,
                    VersionMap* versions);

  // First write creates an object on its in-block home (the controller's pre-dispatch
  // sweep).
  void EnsureObjectsExist(const core::WorkerTemplateSet& set, VersionMap* versions);

  // Per-worker message assembly. Halves with no entries produce no message. Reads no
  // version-map state.
  std::vector<WorkerMessage> AssembleMessages(const core::WorkerTemplateSet& set,
                                              const ParamList& params,
                                              const core::EditPlan* edits);

  // Serialized central dispatch (DESIGN.md §10): per worker half, the pre-encoded wire
  // buffer of the half's full explicit command list — exactly the commands the per-task
  // dispatcher would emit (core::CommandFromEntry), in the same order, with the same ids.
  // Produced from a cached template encoding by buffer copy + three header patches +
  // in-place parameter overwrites — zero per-task allocation in steady state. `half_bases[h]`
  // is the command-id base pre-allocated for half h (invalid for empty halves, which
  // produce no batch); task ids are task_base + global entry; copy ids embed `group_seq`.
  // The cache is keyed like set plans (by set id) and stamped by the set's edit
  // generation alone: the encoded bytes never read the version map, so map uid / churn
  // epoch cannot invalidate them.
  std::vector<SerializedBatch> AssembleSerializedBatches(
      const core::WorkerTemplateSet& set, const ParamList& params, std::uint64_t group_seq,
      TaskId task_base, const std::vector<CommandId>& half_bases);

  // How many times a stage that may write the version map ran (ApplyEffects and
  // EnsureObjectsExist; never Validate or assembly). A cache filled from a sweep of the map
  // records this and is stale once it moves (the controller's lookahead, DESIGN.md §9.2).
  std::uint64_t map_writes() const { return map_writes_; }

  const ShardCounters& shard_counters() const { return shard_counters_; }
  const SerializedBatchCounters& serialized_counters() const { return serialized_counters_; }

 private:
  // Per-set plan record, revalidated by (map uid, set generation) like compiled
  // instantiations.
  struct SetPlan {
    std::uint64_t map_uid = 0;
    std::uint64_t set_generation = ~std::uint64_t{0};
    bool built = false;
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

  SetPlan& PlanFor(const core::WorkerTemplateSet& set,
                   const core::CompiledInstantiation& compiled);

  // The create-missing sweep behind EnsureObjectsExist/ApplyEffects, memoized on `plan`.
  void EnsureObjectsExistPlanned(SetPlan* plan, const core::CompiledInstantiation& compiled,
                                 VersionMap* versions);

  // Cached per-set plans, by worker-template set id value (contiguous from 0).
  DenseMap<SetPlan> plans_;
  // Cached per-set serialized encodings; same keying as plans_.
  DenseMap<SerializedPlan> serialized_plans_;
  std::uint64_t map_writes_ = 0;
  ShardCounters shard_counters_;
  SerializedBatchCounters serialized_counters_;
};

}  // namespace nimbus::runtime

#endif  // NIMBUS_SRC_RUNTIME_INSTANTIATION_PIPELINE_H_
