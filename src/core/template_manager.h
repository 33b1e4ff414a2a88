// TemplateManager: the controller-side brain of the execution-template machinery.
//
// Pure control-plane logic with no simulator dependencies, so it can be exercised directly
// by unit tests and measured directly by the Table 1-3 microbenchmarks. The Controller
// wraps each operation with cost accounting and message traffic.
//
// Responsibilities:
//  * capture: record the task stream between template-start and template-finish markers and
//    post-process it into a ControllerTemplate (paper §4.1);
//  * projection cache: one WorkerTemplateSet per (template, assignment signature) — workers
//    cache multiple worker templates, so moving between schedules is a lookup (§2.3);
//  * patching: resolve a validation result against the patch cache (§4.2);
//  * edits: in-place task migration between workers (§4.3, Fig 6).
//
// Validating a set's preconditions and applying its cached version-map delta are the
// instantiation pipeline's stages (runtime::InstantiationPipeline, DESIGN.md §7).

#ifndef NIMBUS_SRC_CORE_TEMPLATE_MANAGER_H_
#define NIMBUS_SRC_CORE_TEMPLATE_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/dense_id.h"
#include "src/common/ids.h"
#include "src/common/stats.h"
#include "src/core/controller_template.h"
#include "src/core/patch.h"
#include "src/core/worker_template.h"
#include "src/data/version_map.h"

namespace nimbus::core {

// The per-worker mutations produced by planning an edit, to be shipped with the next
// instantiation message and applied to the cached controller-half in place.
struct EditPlan {
  // Keyed container: references into it stay valid while new workers are added.
  std::map<WorkerId, std::vector<WorkerEditOp>> per_worker;
  int tasks_touched = 0;

  std::vector<WorkerEditOp>* OpsFor(WorkerId w) { return &per_worker[w]; }
};

class TemplateManager {
 public:
  TemplateManager() = default;

  // --- Capture (driver-controller interface) ---

  // Starts recording a basic block. Returns the new template's id.
  TemplateId BeginCapture(const std::string& name);

  bool capturing() const { return capturing_ != nullptr; }

  // Appends one task to the block being captured. Reads/writes are already resolved to
  // logical objects. Returns the entry's param slot.
  std::int32_t CaptureTask(FunctionId function, std::vector<LogicalObjectId> reads,
                           std::vector<LogicalObjectId> writes, int placement_partition,
                           sim::Duration duration, bool returns_scalar,
                           ParameterBlob params);

  // Ends recording; post-processes and returns the finished template.
  ControllerTemplate* FinishCapture();

  ControllerTemplate* Find(TemplateId id);
  const ControllerTemplate* Find(TemplateId id) const;
  TemplateId FindByName(const std::string& name) const;

  // --- Projection cache ---

  // Returns the worker-template set for (template, assignment), projecting on first use.
  // `newly_projected` (optional out) reports whether installation work happened.
  WorkerTemplateSet* GetOrProject(TemplateId id, const Assignment& assignment,
                                  const ObjectBytesFn& object_bytes,
                                  bool* newly_projected = nullptr);

  // Looks up a cached projection without building one.
  WorkerTemplateSet* FindProjection(TemplateId id, const Assignment& assignment);

  // --- Ad-hoc stage plans (batched central dispatch, DESIGN.md §8) ---

  // Returns the cached stage plan for `signature` (a content hash of stage identity +
  // schedule computed by the caller), projecting one from `build()`'s throwaway template on
  // first use. Stage plans are ordinary worker-template sets with a real id — so the
  // instantiation pipeline caches and revalidates set plans for them by (map uid, set
  // generation) exactly like template projections — but have no parent template and are
  // never installed on workers: the controller dispatches their commands explicitly.
  // `expected_tasks` guards against signature collisions (entry-count mismatch aborts).
  WorkerTemplateSet* GetOrBuildStagePlan(std::uint64_t signature, const Assignment& assignment,
                                         const std::function<ControllerTemplate()>& build,
                                         const ObjectBytesFn& object_bytes,
                                         std::size_t expected_tasks,
                                         bool* newly_built = nullptr);
  const CacheCounters& stage_plan_counters() const { return stage_plan_counters_; }

  // --- Patching ---

  // Resolves the patch for instantiating `set` given what executed before and the
  // pipeline's validation result `required` (runtime::InstantiationPipeline::Validate).
  // Reuses the cached patch when it is provably still correct; `cache_hit` (optional out)
  // reports whether it was.
  Patch ResolvePatch(const WorkerTemplateSet& set, std::uint64_t prev_executed,
                     const VersionMap& versions, std::vector<PatchDirective> required,
                     bool* cache_hit = nullptr);

  // --- Edits (paper §4.3) ---

  // Plans moving the task at `global_entry` from its current worker to `to`, mutating the
  // controller half of `set` in place and returning the per-worker ops for worker halves.
  EditPlan PlanMigration(WorkerTemplateSet* set, std::int32_t global_entry, WorkerId to);

  // Plans removing the task at `global_entry` ("an edit can remove and add tasks", §4.3).
  // Its slot becomes a tombstone, preserving every other entry's index. Only legal for
  // tasks with no in-block consumers (otherwise downstream reads would dangle); returns an
  // empty plan and leaves the set untouched if that does not hold.
  EditPlan PlanRemoveTask(WorkerTemplateSet* set, std::int32_t global_entry);

  // Plans appending a fresh task at the end of `worker`'s table. In-block-produced reads
  // get copy pairs / provider edges; block-input reads become preconditions; writes join
  // the set's deltas. Returns the plan (one add = one edit).
  EditPlan PlanAddTask(WorkerTemplateSet* set, WorkerId worker, FunctionId function,
                       std::vector<LogicalObjectId> reads,
                       std::vector<LogicalObjectId> writes, sim::Duration duration);

  const PatchCache& patch_cache() const { return patch_cache_; }
  PatchCache& mutable_patch_cache() { return patch_cache_; }
  std::size_t template_count() const { return templates_.size(); }
  std::size_t projection_count() const { return projections_.size(); }
  IdAllocator<WorkerTemplateId>& worker_template_ids() { return worker_template_ids_; }

 private:
  // Dense layout (DESIGN.md §6.6): TemplateId and WorkerTemplateId are allocated
  // contiguously from 0 by this class, so the id value doubles as the index into flat
  // arrays. A cached projection is found via its parent template's small (signature ->
  // worker-template id) list — templates have a handful of schedules, so a linear scan
  // beats hashing and keeps the full (template, signature) pair as the identity (folding
  // the two into one uint64 key could silently alias two distinct projections). The only
  // hash map left is the name lookup: the string intern boundary.
  struct TemplateSlot {
    std::unique_ptr<ControllerTemplate> controller_template;
    // Projections of this template: (assignment signature, index into projections_).
    std::vector<std::pair<std::uint64_t, DenseIndex>> projections;
  };

  IdAllocator<TemplateId> template_ids_;
  IdAllocator<WorkerTemplateId> worker_template_ids_;
  std::vector<TemplateSlot> templates_;  // by TemplateId value
  std::vector<std::unique_ptr<WorkerTemplateSet>> projections_;  // by WorkerTemplateId value
  // lint:allow(hot-map) -- string intern boundary, touched once per driver-side name lookup
  std::unordered_map<std::string, TemplateId> by_name_;  // cold, driver-facing
  // Stage plans by content signature, sorted for binary search. Entries persist for the
  // job's lifetime: a driver submits a handful of distinct stage shapes, and a superseded
  // schedule's plans simply stop being hit (the signature covers the assignment).
  std::vector<std::pair<std::uint64_t, DenseIndex>> stage_plans_;
  CacheCounters stage_plan_counters_;
  ControllerTemplate* capturing_ = nullptr;
  PatchCache patch_cache_;
};

}  // namespace nimbus::core

#endif  // NIMBUS_SRC_CORE_TEMPLATE_MANAGER_H_
