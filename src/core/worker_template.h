// Worker templates: the controller-worker half of the execution-template abstraction.
//
// A worker template is the projection of a controller template onto one concrete schedule
// (a partition -> worker assignment). It has two halves (paper §4.1):
//
//  * The controller half (`WorkerTemplateSet`) caches, for the whole block, how tasks are
//    distributed across workers, the inter-worker copy structure, the preconditions that
//    must hold at block entry, and the version-map delta the block applies. This is what
//    lets the controller instantiate a block in O(tasks) trivial work instead of re-running
//    dependency analysis.
//
//  * The worker half (`WorkerHalf`, installed per worker) caches that worker's local command
//    table: an index-linked, table-based structure ("pointers are turned into indexes for
//    fast lookups into arrays of values", §4.1) the worker schedules locally.
//
// Projection performs the complete dependency analysis once: worker-local before edges
// (RAW, WAR, WAW), copy-pair insertion for cross-worker reads, precondition discovery for
// objects read before any in-block write, and the self-validation pass that appends
// end-of-block copies so the template's postcondition implies its own precondition (§4.2).

#ifndef NIMBUS_SRC_CORE_WORKER_TEMPLATE_H_
#define NIMBUS_SRC_CORE_WORKER_TEMPLATE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/dense_id.h"
#include "src/common/ids.h"
#include "src/common/logging.h"
#include "src/core/controller_template.h"
#include "src/data/version_map.h"
#include "src/sim/virtual_time.h"
#include "src/task/command.h"

namespace nimbus::core {

// A concrete schedule: which worker owns each data partition (and therefore the tasks whose
// placement affinity names that partition).
class Assignment {
 public:
  Assignment() = default;
  explicit Assignment(std::vector<WorkerId> partition_to_worker)
      : partition_to_worker_(std::move(partition_to_worker)) {}

  // Round-robin assignment of `partitions` over `workers`.
  static Assignment RoundRobin(int partitions, const std::vector<WorkerId>& workers);

  WorkerId WorkerFor(int partition) const {
    NIMBUS_CHECK_GE(partition, 0);
    NIMBUS_CHECK_LT(static_cast<std::size_t>(partition), partition_to_worker_.size());
    return partition_to_worker_[static_cast<std::size_t>(partition)];
  }

  // Distinct workers appearing in the assignment.
  std::vector<WorkerId> Workers() const;

  // Stable content hash used to look up the cached worker-template set for this schedule.
  std::uint64_t Signature() const;

  const std::vector<WorkerId>& raw() const { return partition_to_worker_; }

 private:
  std::vector<WorkerId> partition_to_worker_;
};

// One entry of a worker-local command table. `before` holds *local indexes* into the same
// table; cross-worker dependencies never appear here (they are copy pairs).
struct WtEntry {
  CommandType type = CommandType::kTask;

  // kTask fields.
  FunctionId function;
  std::int32_t global_entry = -1;  // index into the controller template (param/task-id slot)
  sim::Duration duration = 0;
  bool returns_scalar = false;
  std::vector<LogicalObjectId> reads;
  std::vector<LogicalObjectId> writes;

  // Parameters baked into the block at capture; an instantiation-supplied parameter for
  // the same slot overrides them (paper: templates cache structure, instantiation passes
  // fresh parameters -- constants can stay cached).
  ParameterBlob cached_params;

  // Copy fields.
  std::int32_t copy_index = -1;  // block-local copy sequence number (pairs send & receive)
  WorkerId peer;
  LogicalObjectId object;
  std::int64_t bytes = 0;

  // Local dependency edges (indexes into this worker's table).
  std::vector<std::int32_t> before;

  // Tombstone left by an edit that removed/replaced this slot without renumbering.
  bool dead = false;
};

struct WorkerHalf {
  WorkerId worker;
  std::vector<WtEntry> entries;
};

// "Data object X must hold its latest version on worker W when the block starts."
struct Precondition {
  LogicalObjectId object;
  WorkerId worker;

  friend bool operator==(const Precondition& a, const Precondition& b) {
    return a.object == b.object && a.worker == b.worker;
  }
};

// The set of preconditions of one worker-template set, as a refcounted flat array kept
// sorted by (object, worker). Projection appends thousands of (mostly duplicate) grants, so
// additions go to a staging buffer that is sorted and merged on first lookup; after that,
// iteration is a linear sweep in validation order and edits pay one binary search.
class PreconditionSet {
 public:
  struct Entry {
    Precondition pre;
    std::int32_t refcount = 0;
  };

  using const_iterator = std::vector<Entry>::const_iterator;
  const_iterator begin() const {
    Normalize();
    return entries_.begin();
  }
  const_iterator end() const {
    Normalize();
    return entries_.end();
  }

  std::size_t size() const {
    Normalize();
    return entries_.size();
  }

  // 1 if the precondition is present (any refcount), 0 otherwise — set semantics, matching
  // the unordered_map<Precondition, refcount> this replaced.
  std::size_t count(const Precondition& pre) const {
    Normalize();
    const auto it = LowerBound(pre);
    return it != entries_.end() && it->pre == pre ? 1u : 0u;
  }

  void Add(Precondition pre) { staged_.push_back({pre, +1}); }

  // Decrements the refcount; the precondition disappears once no entry needs it any more.
  // Staged like Add (a -1 delta), so edit planning's release/add churn stays O(1) per call
  // instead of rebuilding the sorted array every time.
  void Release(const Precondition& pre) { staged_.push_back({pre, -1}); }

 private:
  static bool Less(const Precondition& a, const Precondition& b) {
    if (a.object != b.object) {
      return a.object < b.object;
    }
    return a.worker < b.worker;
  }

  const_iterator LowerBound(const Precondition& pre) const {
    return std::lower_bound(entries_.begin(), entries_.end(), pre,
                            [](const Entry& e, const Precondition& p) {
                              return Less(e.pre, p);
                            });
  }

  void Normalize() const {
    if (staged_.empty()) {
      return;
    }
    // Stable sort: deltas for the same precondition must apply in call order, because a
    // release clamps at zero (releasing an absent precondition is a no-op) while an add
    // always counts.
    std::stable_sort(staged_.begin(), staged_.end(),
                     [](const StagedDelta& a, const StagedDelta& b) {
                       return Less(a.first, b.first);
                     });
    std::vector<Entry> merged;
    merged.reserve(entries_.size() + staged_.size());
    auto have = entries_.begin();
    auto delta = staged_.begin();
    while (have != entries_.end() || delta != staged_.end()) {
      if (delta == staged_.end() ||
          (have != entries_.end() && Less(have->pre, delta->first))) {
        merged.push_back(*have++);
        continue;
      }
      const Precondition key = delta->first;
      std::int32_t refcount = 0;
      if (have != entries_.end() && have->pre == key) {
        refcount = have->refcount;
        ++have;
      }
      for (; delta != staged_.end() && delta->first == key; ++delta) {
        refcount = std::max(0, refcount + delta->second);
      }
      if (refcount > 0) {
        merged.push_back(Entry{key, refcount});
      }
    }
    entries_ = std::move(merged);
    staged_.clear();
  }

  using StagedDelta = std::pair<Precondition, std::int32_t>;  // +1 add / -1 release

  mutable std::vector<Entry> entries_;       // sorted by (object, worker)
  mutable std::vector<StagedDelta> staged_;  // in call order, pending merge
};

// The instantiation plan of a worker-template set compiled against one VersionMap's dense
// id space (paper §4.1: "pointers are turned into indexes for fast lookups into arrays of
// values"). The instantiation pipeline's validate stage walks `preconditions` with O(1) array
// probes and its apply stage walks `write_deltas` (runtime::InstantiationPipeline) — no
// hashing and no allocation on either sweep. The cache is rebuilt only when the set is
// edited or used against a different version map.
struct CompiledInstantiation {
  struct CompiledPrecondition {
    DenseIndex object = kInvalidDenseIndex;  // dense ids in the compiled-against map
    DenseIndex worker = kInvalidDenseIndex;
    LogicalObjectId sparse_object;  // carried so the failure path builds directives
    WorkerId sparse_worker;         // without resolving through the interner
    std::int64_t bytes = 0;
  };

  struct CompiledDelta {
    DenseIndex object = kInvalidDenseIndex;
    std::uint32_t write_count = 0;
    DenseIndex primary_holder = kInvalidDenseIndex;  // the in-block final writer
    std::vector<DenseIndex> extra_holders;           // end-of-block copy recipients
  };

  std::uint64_t map_uid = 0;                     // VersionMap::uid() compiled against
  std::uint64_t set_generation = ~std::uint64_t{0};  // WorkerTemplateSet edit generation
  std::vector<CompiledPrecondition> preconditions;  // (object, worker)-sorted, like the set
  std::vector<CompiledDelta> write_deltas;
};

// The version-map effect of executing the block once: each object's latest version advances
// by `write_count` and ends resident on `final_holders`.
struct WriteDelta {
  LogicalObjectId object;
  std::uint32_t write_count = 0;
  std::vector<WorkerId> final_holders;
};

// Per-object index kept for dynamic edits: which entries write/touch each object, in
// program order. Lets an edit find providers, consumers and WAR hazards in O(degree)
// instead of scanning the whole template (the paper's requirement that edit cost scales
// with the size of the change, §4.3).
struct ObjectIndex {
  std::vector<std::int32_t> writers;   // global entry indexes writing the object
  std::vector<std::int32_t> touchers;  // global entry indexes reading or writing it
};

// Per-global-entry metadata kept for dynamic edits (paper §4.3).
struct EntryMeta {
  WorkerId worker;            // current placement
  std::int32_t local_index = -1;
  // For each read: the global entry that produced it in-block, or -1 if it is block input.
  std::vector<std::int32_t> read_providers;
  // Global entries that consume this entry's outputs.
  std::vector<std::int32_t> consumers;
};

// An in-place mutation shipped to a worker half alongside an instantiation message
// (paper §4.3: "edits are included as metadata in a worker template instantiation message").
struct WorkerEditOp {
  enum class Kind : std::uint8_t {
    kReplaceWithReceive,  // turn slot `index` into a copy-receive (keeps the index stable)
    kAppendEntry,         // append `entry` at the end of the table
    kAddBeforeEdge,       // entries[index].before += edge
    kTombstone,           // mark slot `index` dead (removed task; index stays allocated)
  };

  Kind kind = Kind::kAppendEntry;
  std::int32_t index = -1;
  std::int32_t edge = -1;
  WtEntry entry;

  std::int64_t WireSize() const { return 64; }
};

class WorkerTemplateSet {
 public:
  WorkerTemplateSet(WorkerTemplateId id, TemplateId parent, Assignment assignment)
      : id_(id), parent_(parent), assignment_(std::move(assignment)) {}

  WorkerTemplateId id() const { return id_; }
  TemplateId parent() const { return parent_; }
  const Assignment& assignment() const { return assignment_; }

  const std::vector<WorkerHalf>& halves() const { return halves_; }
  std::vector<WorkerHalf>& mutable_halves() { return halves_; }

  WorkerHalf* HalfFor(WorkerId worker) {
    const auto it = HalfIndexFor(worker);
    if (it == half_index_.end() || it->first != worker) {
      return nullptr;
    }
    return &halves_[it->second];
  }

  const PreconditionSet& preconditions() const { return preconditions_; }

  const std::vector<WriteDelta>& write_deltas() const { return write_deltas_; }
  std::vector<WriteDelta>& mutable_write_deltas() {
    ++generation_;
    return write_deltas_;
  }

  const std::vector<EntryMeta>& entry_meta() const { return entry_meta_; }
  std::vector<EntryMeta>& mutable_entry_meta() { return entry_meta_; }

  const ObjectIndex* FindObjectIndex(LogicalObjectId object) const {
    auto it = object_index_.find(object);
    return it == object_index_.end() ? nullptr : &it->second;
  }
  // lint:allow(hot-map) -- edit-time accessor; steady-state instantiation reads the
  // compiled plan, never this index
  std::unordered_map<LogicalObjectId, ObjectIndex>& mutable_object_index() {
    return object_index_;
  }

  std::int32_t copy_count() const { return copy_count_; }
  bool self_validating() const { return self_validating_; }

  // Edit generation: bumped by every mutation that can change preconditions, write deltas,
  // or object bytes. Keys the compiled plan below and the patch cache (DESIGN.md §6.7).
  std::uint64_t generation() const { return generation_; }

  // Object virtual sizes for the network model (captured at projection).
  std::int64_t ObjectBytes(LogicalObjectId object) const {
    auto it = object_bytes_.find(object);
    return it == object_bytes_.end() ? 0 : it->second;
  }

  // The instantiation plan in `versions`' dense id space; compiled on first use and cached
  // until the set is edited or a different map is supplied (see CompiledInstantiation).
  const CompiledInstantiation& CompiledFor(const VersionMap& versions) const;

  // --- Mutation API used by projection and by edits ---

  WorkerHalf& AddHalf(WorkerId worker) {
    const std::uint32_t position = static_cast<std::uint32_t>(halves_.size());
    halves_.push_back(WorkerHalf{worker, {}});
    half_index_.insert(HalfIndexFor(worker), {worker, position});
    return halves_.back();
  }

  void AddPrecondition(LogicalObjectId object, WorkerId worker) {
    ++generation_;
    preconditions_.Add(Precondition{object, worker});
  }

  // Decrements the refcount; removes the precondition when no entry needs it any more.
  void ReleasePrecondition(LogicalObjectId object, WorkerId worker) {
    ++generation_;
    preconditions_.Release(Precondition{object, worker});
  }

  void SetSelfValidating(bool v) { self_validating_ = v; }
  std::int32_t NextCopyIndex() { return copy_count_++; }
  void SetObjectBytes(LogicalObjectId object, std::int64_t bytes) {
    ++generation_;
    object_bytes_[object] = bytes;
  }

 private:
  std::vector<std::pair<WorkerId, std::uint32_t>>::iterator HalfIndexFor(WorkerId worker) {
    return std::lower_bound(
        half_index_.begin(), half_index_.end(), worker,
        [](const std::pair<WorkerId, std::uint32_t>& e, WorkerId w) { return e.first < w; });
  }

  WorkerTemplateId id_;
  TemplateId parent_;
  Assignment assignment_;
  std::vector<WorkerHalf> halves_;
  // Sorted (worker -> position in halves_) index; halves_ itself stays in creation order.
  std::vector<std::pair<WorkerId, std::uint32_t>> half_index_;
  PreconditionSet preconditions_;
  std::vector<WriteDelta> write_deltas_;
  std::vector<EntryMeta> entry_meta_;
  // lint:allow(hot-map) -- consulted only when applying add/remove edits
  std::unordered_map<LogicalObjectId, ObjectIndex> object_index_;
  // lint:allow(hot-map) -- probed at projection and edit time; the compiled plan caches
  // the per-entry byte counts the steady-state path reads
  std::unordered_map<LogicalObjectId, std::int64_t> object_bytes_;
  std::int32_t copy_count_ = 0;
  bool self_validating_ = false;
  // Bumped by every mutation that can change preconditions, write deltas, or object bytes;
  // invalidates the compiled plan below.
  std::uint64_t generation_ = 0;
  mutable CompiledInstantiation compiled_;
};

// Resolves an object's virtual byte size during projection (supplied by the controller's
// object directory).
using ObjectBytesFn = std::function<std::int64_t(LogicalObjectId)>;

// Projects `block` (a finished controller template) onto `assignment`, producing the
// controller half of the worker templates. This runs the full dependency analysis described
// in the header comment. `set_id` names the resulting worker-template set.
WorkerTemplateSet ProjectBlock(const ControllerTemplate& block, const Assignment& assignment,
                               WorkerTemplateId set_id, const ObjectBytesFn& object_bytes);

// Applies edit ops to a worker half in place. The controller applies them to its cached
// copy when planning; the worker applies the same ops when they arrive piggybacked on an
// instantiation message, keeping both halves structurally identical.
void ApplyWorkerEditOps(WorkerHalf* half, const std::vector<WorkerEditOp>& ops);

// Materializes entry `index` of a worker half as an explicit command. This is THE command
// builder for central dispatch: the per-task dispatcher refills one command per entry and
// the pipeline's serialized cold encode builds one per entry of a half (DESIGN.md §8,
// §10) — one implementation, so the two wire forms cannot drift apart on the
// bit-identical-streams contract. `override_params` (nullable) replaces the entry's cached
// params; ids derive from the caller's bases.
//
// The out-param form resets `*out` and refills it within the capacity its lists kept, so
// a caller that reuses one command allocates nothing once it is warm. The value form
// wraps it.
void CommandFromEntry(const WtEntry& entry, std::size_t index, CommandId command_base,
                      TaskId task_base, std::uint64_t group_seq,
                      const ParameterBlob* override_params, Command* out);
Command CommandFromEntry(const WtEntry& entry, std::size_t index, CommandId command_base,
                         TaskId task_base, std::uint64_t group_seq,
                         const ParameterBlob* override_params);

}  // namespace nimbus::core

#endif  // NIMBUS_SRC_CORE_WORKER_TEMPLATE_H_
