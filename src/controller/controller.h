// The Nimbus controller (paper §3.2, §4).
//
// A centralized controller that receives stages from a driver program, transforms them into
// an execution plan (placement, dependency analysis, copy insertion), and dispatches
// commands to workers. With templates enabled it caches that work: repeated basic blocks are
// captured into controller templates, projected into worker templates per schedule,
// validated/patched at instantiation, and edited in place for small scheduling changes.
//
// The same class also runs in two degraded modes used by the evaluation:
//  * kCentralOnly  — "Nimbus w/o templates": every task is centrally scheduled every time.
//  * kStaticDataflow — Naiad-style: the block's dataflow is installed once (expensive) and
//    instantiated with no per-iteration control work, but *any* scheduling change forces a
//    full reinstall (paper Table 3 / Fig 10).

#ifndef NIMBUS_SRC_CONTROLLER_CONTROLLER_H_
#define NIMBUS_SRC_CONTROLLER_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/dense_id.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/thread_annotations.h"
#include "src/core/template_manager.h"
#include "src/data/durable_store.h"
#include "src/data/object_directory.h"
#include "src/data/version_map.h"
#include "src/net/timer_queue.h"
#include "src/net/transport.h"
#include "src/runtime/instantiation_pipeline.h"
#include "src/sim/work_meter.h"
#include "src/task/command.h"
#include "src/task/messages.h"
#include "src/task/wire.h"

namespace nimbus {

enum class ControlMode {
  kTemplates,       // full Nimbus: execution templates
  kCentralOnly,     // Nimbus with templates disabled
  kStaticDataflow,  // Naiad-style static dataflow graphs
};

// Scalars collected from one block execution, delivered to the driver.
using BlockDone = std::function<void(std::vector<ScalarResult>)>;

// Construction-time controller switches; fixed for the controller's lifetime
// (ClusterOptions carries them).
struct ControllerSwitches {
  // Central dispatch wire form (DESIGN.md §8). Every central stage runs through a cached
  // stage plan (a worker-template set keyed by stage identity + schedule), validated and
  // applied through the instantiation pipeline. This switch picks how its commands reach the
  // workers: off (the paper's Fig 1/8 baseline) sends every command as its own message; on
  // ships each worker ONE pre-encoded wire buffer from the pipeline's serialized-template
  // cache (memcpy + header patch + in-place parameter patch, DESIGN.md §10). Workers decode
  // the bytes back into the identical command stream, so output (worker command streams,
  // version-map state, scalars) matches bit-for-bit; only cost accounting, message count
  // and wire bytes change.
  bool serialized_batching = false;
  // Ablations (DESIGN.md §5; see bench/ablation_templates). Forces the full precondition
  // sweep on every instantiation, disabling the auto-validation fast path of §4.2.
  bool force_full_validation = false;
  // Recomputes every patch from scratch, disabling the patch cache of §4.2.
  bool disable_patch_cache = false;
};

class NimbusController {
 public:
  // `meter` prices and books the controller's work (src/sim/work_meter.h); a real-time
  // meter runs submitted work inline in submission order (DESIGN.md §13.3).
  // `timers` is the clock the liveness protocol and the recovery delay run against
  // (DESIGN.md §14): heartbeat deadlines are scheduled and `last_heard` stamps taken from
  // it. The simulator cluster passes its one SimTimerQueue, the TCP cluster the node's
  // timerfd-backed queue, so detection uses real wall time there.
  NimbusController(sim::WorkMeter meter, net::Transport* transport, ObjectDirectory* directory,
                   DurableStore* durable, ControlMode mode, ControllerSwitches switches,
                   net::TimerQueue* timers);

  // ---- Transport-facing entry point ----

  // The controller's delivery handler: decodes one envelope (src/task/wire.h) and
  // dispatches to the matching entry point. Traffic from workers (heartbeats, completions)
  // feeds the callbacks below; driver requests (stages, instantiations, checkpoints) run
  // the driver-facing interface and answer with kBlockDone / kCheckpointDone envelopes
  // carrying the request id. Registered with the transport by the cluster.
  void OnEnvelope(net::NodeAddress src, MessageKind kind, ParameterBlob bytes);

  ControlMode mode() const { return mode_; }

  // ---- Cluster membership (resource manager interface, Fig 2) ----
  // The controller knows a worker only by id and reaches it at NodeAddress::ForWorker(id)
  // through the transport.
  void AttachWorker(WorkerId worker);
  // Gracefully revokes workers: they stop receiving tasks but can still source data copies.
  void RevokeWorkers(const std::vector<WorkerId>& workers);
  // Returns previously revoked workers to the allocation.
  void RestoreWorkers(const std::vector<WorkerId>& workers);
  std::vector<WorkerId> ActiveWorkers() const;

  void SetPartitions(int partitions);
  int partitions() const { return partitions_; }

  // ---- Driver-facing interface ----
  VariableId DefineVariable(const std::string& name, int variable_partitions,
                            std::int64_t virtual_bytes_per_partition);

  // Executes one block of stages via central scheduling (also feeds template capture).
  void SubmitStages(const std::vector<StageDescriptor>& stages, BlockDone done);

  // Template lifecycle markers (paper §4.1: the programmer marks basic blocks).
  TemplateId BeginTemplate(const std::string& name);
  void EndTemplate();
  bool HasTemplate(const std::string& name) const;

  // Instantiates a previously captured block. Handles the staged bring-up the paper's Fig 9
  // shows: first call projects the controller half (while dispatching centrally), second
  // call installs worker halves (while dispatching centrally), later calls run the fast
  // template path with validation/patching/edits.
  //
  // `next_name` is the driver's lookahead hint (DESIGN.md §9): the block it will
  // instantiate after this one. When that block's worker-template set is already past
  // bring-up, its precondition sweep runs right after this block's message assembly, and
  // the next InstantiateTemplate consumes that result instead of sweeping again. Purely
  // advisory: a wrong (or stale) hint falls back to the serial sweep via the stamp check,
  // never changing results.
  void InstantiateTemplate(const std::string& name,
                           std::vector<std::pair<std::int32_t, ParameterBlob>> params,
                           BlockDone done, const std::string& next_name = std::string());

  // --- Controller-loop lookahead (DESIGN.md §9) ---
  // Lookahead sweeps run after assembly / consumed at the next instantiation.
  // A driver that sends no hint gets no overlap; results are bit-identical either way (the
  // equality tests pin it) — only cost accounting changes.
  std::uint64_t lookaheads_scheduled() const { return lookaheads_scheduled_; }
  std::uint64_t lookahead_hits() const { return lookahead_hits_; }

  // ---- Scheduling changes ----
  // Plans migration of `count` randomly-chosen tasks of `name`'s current worker-template
  // set to random other active workers. With kTemplates this becomes edits attached to the
  // next instantiation; with kStaticDataflow it forces a full reinstall.
  void PlanRandomMigrations(const std::string& name, int count, Rng* rng);

  // Plans removing the task at `global_entry` of `name`'s current worker-template set;
  // the tombstone ships with the next instantiation. Returns false if the task has
  // in-block consumers (not removable).
  bool PlanRemoveTask(const std::string& name, std::int32_t global_entry);

  // Plans appending a fresh task to `name`'s current worker-template set on `worker`.
  void PlanAddTask(const std::string& name, WorkerId worker, FunctionId function,
                   std::vector<ObjRef> reads, std::vector<ObjRef> writes,
                   sim::Duration duration);

  // Recomputes the partition assignment over the active workers (after membership change).
  void Rebalance();

  // ---- Fault tolerance (paper §4.4) ----
  void TriggerCheckpoint(std::uint64_t driver_marker, std::function<void()> done);
  // Failure detection entry (driven by heartbeat timeout or injected by tests). A repeat
  // report for a worker already failed is ignored; a failure while a recovery runs
  // abandons that recovery and starts one over on the remaining workers.
  void OnWorkerFailed(WorkerId worker);
  // Arms the heartbeat sweep, once: each tracked worker must be heard from within
  // `timeout`; a worker `miss_threshold` timeouts silent is declared failed (the first
  // missed timeout only marks it suspect and notifies the driver). The sweep runs every
  // `heartbeat_period`, half a period after the workers' beats, so it sees a silence as
  // soon as it is long enough (DESIGN.md §14.2). The cluster calls this in the same step
  // that starts every worker's beats; a sweep without beats would fail every worker.
  void ArmHeartbeatSweep(sim::Duration heartbeat_period, sim::Duration timeout,
                         int miss_threshold);
  // Transport-level loss report (redial budget exhausted under TCP): feeds the same
  // failure path as a heartbeat timeout. Non-worker and already-failed peers are ignored.
  void OnPeerLost(net::NodeAddress peer);
  const FailureCounters& failure_counters() const { return failure_counters_; }
  // Scheduling and fault-tolerance events (reinstalls, migrations, checkpoints,
  // recoveries).
  const ControllerCounters& counters() const { return counters_; }

  // Test probe invoked at the start of each instantiation-pipeline phase ("validate",
  // "apply", "assemble", "dispatch") — lets fault tests align injected failures with a
  // precise phase boundary. Null (the default) costs one branch per phase.
  void set_phase_probe(std::function<void(const char*)> probe) {
    phase_probe_ = std::move(probe);
  }

  // ---- Callbacks for worker messages (invoked at message delivery) ----
  void OnGroupComplete(WorkerId worker, std::uint64_t seq, std::vector<ScalarResult> scalars);
  // `seq` is the worker's heartbeat sequence number, echoed back in the kHeartbeatAck
  // answered while failure detection is armed.
  void OnHeartbeat(WorkerId worker, std::uint64_t seq = 0);

  // Whether `worker` participates in heartbeat timeout accounting: detection is armed and
  // the worker is neither failed nor revoked (regression surface for stale-liveness bugs).
  bool HeartbeatTracked(WorkerId worker) const;

  // ---- Introspection ----
  const VersionMap& versions() const { return versions_; }
  core::TemplateManager& templates() { return templates_; }
  // The instantiation pipeline this controller drives instantiations through (DESIGN.md
  // §7).
  runtime::InstantiationPipeline& instantiation_pipeline() { return pipeline_; }
  sim::Duration control_busy() const { return meter_.control_busy(); }
  std::uint64_t tasks_dispatched() const { return tasks_dispatched_; }
  std::uint64_t tasks_via_templates() const { return tasks_via_templates_; }
  // Blocks accepted but not yet finished (or abandoned by a failure).
  std::size_t pending_block_count() const { return pending_blocks_.size(); }

 private:
  struct PendingBlock {
    // A block spans at most a handful of groups: a flat vector beats any hashed set.
    std::vector<std::uint64_t> outstanding_groups;
    std::vector<ScalarResult> scalars;
    BlockDone done;
  };

  struct SetState {
    bool installed_on_workers = false;
    // Edits planned since the last instantiation, to be attached to the next one.
    core::EditPlan pending_edits;
  };

  // Completion tracking for one dispatched group; lives in a SeqWindow addressed by the
  // monotonically increasing group sequence (no hashing on the completion path). A
  // value-initialized tracker marks a finished/untracked slot.
  struct GroupTracker {
    PendingBlock* block = nullptr;
    int remaining = 0;  // workers that still have to report completion

    friend bool operator==(const GroupTracker& a, const GroupTracker& b) {
      return a.block == b.block && a.remaining == b.remaining;
    }
  };

  // One attached worker's control-plane record, in a flat array by dense worker id
  // (worker_ids_ interns in attachment order).
  struct WorkerRecord {
    sim::TimePoint last_heard = 0;  // stamped from timers_->Now() (detection clock)
    bool revoked = false;           // temporarily out of the allocation
    bool failed = false;
    bool suspect = false;           // missed at least one timeout; cleared on contact
  };

  struct CheckpointState {
    std::uint64_t driver_marker = 0;
    VersionMap::SnapshotState version_snapshot;
    bool valid = false;
  };

  WorkerRecord* RecordFor(WorkerId id);
  const WorkerRecord* RecordFor(WorkerId id) const;
  SetState& StateFor(WorkerTemplateId id);
  // Appends a planned edit to the set's pending edits, which ride its next instantiation.
  void QueueEdits(WorkerTemplateId set_id, core::EditPlan plan);
  void RegisterGroup(std::uint64_t seq, PendingBlock* block, int participating);
  std::int64_t ObjectBytes(LogicalObjectId object) const;
  core::ObjectBytesFn BytesFn() const;

  // First write creates an object in the version map on its in-block home (paper: data
  // commands; we fold creation into dispatch).
  void EnsureObjectsExist(const core::WorkerTemplateSet& set);

  // Runs one block of stages through the central-scheduling path, optionally while a
  // template capture is recording: per stage, capture (if recording) -> cached stage plan
  // -> RunSetCentrallyWithPatches.
  void ExecuteStagesCentrally(const std::vector<StageDescriptor>& stages, PendingBlock* block);

  // Dispatches the commands of `set` individually (central path), charging per-task costs.
  void DispatchSetCentrally(const core::WorkerTemplateSet& set,
                            const std::vector<std::pair<std::int32_t, ParameterBlob>>& params,
                            PendingBlock* block);

  // --- Stage plans (DESIGN.md §8) ---
  // Content hash identifying one stage under the current schedule (excludes per-task
  // params, which ride each dispatch as instantiation parameters).
  std::uint64_t StageSignature(const StageDescriptor& stage) const;
  // Builds the single-stage template a stage plan projects from — the single home of the
  // read/write resolution and placement-fallback rules (stage plans and template capture
  // both consume its entries). With `include_params` the stage's current params are baked
  // as cached_params (capture); stage plans strip them (the plan caches structure,
  // dispatch supplies fresh parameters).
  core::ControllerTemplate CompileStageTemplate(const StageDescriptor& stage,
                                                bool include_params);
  // Dispatches `set` as one pre-encoded wire buffer per worker assembled by the pipeline,
  // charging per-batch + per-task costs (same command streams as DispatchSetCentrally).
  void DispatchCentralBlock(const core::WorkerTemplateSet& set,
                            const std::vector<std::pair<std::int32_t, ParameterBlob>>& params,
                            PendingBlock* block);

  // The one path for a group of explicit commands built on the controller (patches,
  // checkpoint saves, recovery reloads): gives each worker's commands one contiguous id
  // range, in ascending worker id, so the worker resolves ids and edges by offset from the
  // range's base (DESIGN.md §8); sends each worker one kCommands envelope through the
  // control thread, so the group keeps FIFO order behind per-task sends still queued
  // there (workers sequence groups by arrival); and registers group `seq` for `block`.
  // Every listed worker must have at least one command.
  void SendCommandGroups(std::uint64_t seq,
                         std::map<WorkerId, std::vector<Command>> per_worker,
                         PendingBlock* block);

  // Sends the patch as command groups (send half on src, receive half on dst).
  void DispatchPatch(const core::Patch& patch, PendingBlock* block);

  // The one central-dispatch body (every submitted stage and both template bring-up
  // iterations): create missing objects -> validate -> patch copies -> dispatch per task
  // or serialized -> apply. `set` must carry a real id.
  void RunSetCentrallyWithPatches(
      const core::WorkerTemplateSet& set,
      const std::vector<std::pair<std::int32_t, ParameterBlob>>& params, PendingBlock* block);

  // Template fast path. `next_set` (may be null) is the lookahead target whose
  // precondition sweep runs right after this instantiation's assembly (DESIGN.md §9).
  void InstantiateSet(core::WorkerTemplateSet* set, SetState* state,
                      std::vector<std::pair<std::int32_t, ParameterBlob>> params,
                      PendingBlock* block, const core::WorkerTemplateSet* next_set);

  // Resolves the driver's lookahead hint to a worker-template set that will take the
  // fast path on its next instantiation (projected, installed, and not a self-follow the
  // auto-validation of §4.2 already makes free). Null when the hint cannot pay off.
  const core::WorkerTemplateSet* ResolveLookaheadTarget(
      const std::string& next_name, const core::WorkerTemplateSet* current);

  // Every controller-side version-map mutation outside the lookahead-covered window runs
  // through a site that calls this: an overlapped validation result is only reusable if
  // the map state it swept is exactly the state the consuming instantiation would sweep.
  // scripts/lint_invariants.py rule map-invalidate enforces the pairing statically; the
  // pipeline's write count, checked on every lookahead hit, catches a pipeline write that
  // slipped past it at run time (DESIGN.md §9.2).
  void InvalidateLookahead() {
    control_plane_.Assert();
    lookahead_.valid = false;
  }

  std::uint64_t NewGroupSeq() { return next_group_seq_++; }
  PendingBlock* NewPendingBlock(BlockDone done);
  // The one completion path: once `block` has no outstanding group, erases it and then
  // runs its `done` with the collected scalars. A no-op while groups are outstanding.
  void FinishIfIdle(PendingBlock* block);

  void RunRecovery();
  void CheckHeartbeats();

  // Whether a driver request stamped with recovery epoch `epoch` may run (DESIGN.md §14.6).
  // A request from an older epoch does not run; it is answered with the recovery notice.
  bool RequestIsCurrent(std::uint64_t epoch);
  // Tells the driver that recovery `recovery_epoch_` completed and which checkpoint marker
  // the cluster reverted to.
  void SendRecoveryNotice();

  // Answers one driver request with a kBlockDone envelope carrying the block's scalars.
  void SendBlockDone(std::uint64_t request_id, std::vector<ScalarResult> scalars);

  net::Transport* transport_;
  // Liveness clock (see ctor comment): heartbeat deadlines, last_heard stamps and the
  // recovery delay all go through it.
  net::TimerQueue* timers_;
  ObjectDirectory* directory_;
  DurableStore* durable_;
  ControlMode mode_;
  const ControllerSwitches switches_;

  sim::WorkMeter meter_;
  core::TemplateManager templates_;
  VersionMap versions_;
  // Instantiation pipeline: validation, version-map effects, and per-worker message
  // assembly all route through it.
  runtime::InstantiationPipeline pipeline_;

  int partitions_ = 0;
  core::Assignment assignment_;
  // Dense worker table: liveness, revocation, and heartbeat state in one flat array.
  Interner<WorkerId> worker_ids_;
  DenseMap<WorkerRecord> worker_records_;

  std::uint64_t next_group_seq_ = 1;
  // In-flight group completion trackers, windowed by group seq.
  SeqWindow<GroupTracker> groups_;
  std::vector<std::unique_ptr<PendingBlock>> pending_blocks_;

  // Per-worker-template-set state, indexed by id value (allocated contiguously from 0 by
  // templates_.worker_template_ids()).
  DenseMap<SetState> set_states_;
  std::uint64_t prev_executed_ = core::PatchCache::kEntryFromOutside;

  // One in-flight overlapped validation result (DESIGN.md §9): block N+1's required
  // directives, swept while block N's messages assembled. Valid only while the stamps
  // match the consuming instantiation (same set, same map id space, same set generation)
  // AND no version-map mutation invalidated it in between — the directives are then
  // bit-identical to what the serial sweep would produce.
  struct LookaheadState {
    bool valid = false;
    std::uint64_t set_id_value = 0;
    std::uint64_t map_uid = 0;
    // Residency-churn stamp (like PatchCache entries, §6.7): makes the check
    // self-sufficient against future DropInstance/DestroyObject callers even if they
    // forget InvalidateLookahead().
    std::uint64_t map_churn_epoch = 0;
    std::uint64_t set_generation = 0;
    // The pipeline's map_writes() when the result was filled; a hit with any other value
    // means a pipeline write reached the map without InvalidateLookahead, and aborts.
    std::uint64_t map_writes = 0;
    std::vector<core::PatchDirective> required;
  };
  // The control plane is a role capability (DESIGN.md §11): the overlapped-validation
  // cache may only be read or filled from serial control-plane code that asserted the
  // role, which the clang leg machine-checks via GUARDED_BY below.
  RoleCapability control_plane_;
  LookaheadState lookahead_ NIMBUS_GUARDED_BY(control_plane_);
  std::uint64_t lookaheads_scheduled_ = 0;
  std::uint64_t lookahead_hits_ = 0;

  CheckpointState checkpoint_;
  bool recovery_scheduled_ = false;  // a RunRecovery is pending on the liveness clock
  // Recovery epochs (DESIGN.md §14.6): RunRecovery bumps recovery_epoch_; notified_epoch_
  // is the epoch of the last kRecoveryNotice sent, so they differ while a reload runs.
  std::uint64_t recovery_epoch_ = 0;
  std::uint64_t notified_epoch_ = 0;

  // Heartbeat-based failure detection (per-worker liveness lives in worker_records_).
  bool failure_detection_ = false;
  sim::Duration heartbeat_period_ = 0;
  sim::Duration heartbeat_timeout_ = 0;
  int miss_threshold_ = 1;
  FailureCounters failure_counters_;
  ControllerCounters counters_;
  std::function<void(const char*)> phase_probe_;

  std::uint64_t tasks_dispatched_ = 0;
  std::uint64_t tasks_via_templates_ = 0;

  IdAllocator<TaskId> task_ids_;
  IdAllocator<CommandId> command_ids_;

  // Decode scratch for kSubmitStages: a steady-state central block decodes its stage list
  // into this (keeping capacity) and submits it by reference; `submit_scratch_live_`
  // catches a nested delivery that would overwrite it mid-submit (wire::ScratchGuard).
  wire::SubmitStagesEnvelope submit_scratch_;
  bool submit_scratch_live_ = false;
  // Encode scratch for per-task dispatch (DispatchSetCentrally): one single-command
  // envelope refilled per entry, so a warm dispatch builds no command of its own. Each
  // entry is encoded before the next refill, so no nested call can see it half-written.
  wire::CommandsEnvelope dispatch_scratch_;
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_CONTROLLER_CONTROLLER_H_
