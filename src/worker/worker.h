// Worker runtime: local command queue, readiness resolution, template cache, execution.
//
// Workers satisfy the two control-plane requirements of §3.1: (1) they maintain a queue of
// commands and *locally* determine when each is runnable (before sets reference only local
// commands), and (2) they exchange data directly with peers (copy commands name the peer
// worker explicitly, so no controller lookup is on the data path).
//
// Commands arrive grouped: a *group* is either the materialization of one worker-template
// instantiation, one patch, or a batch of individually-dispatched commands (the no-template
// path). Groups marked `barrier` start only after every earlier group completes, which is
// how patch copies are ordered before the block that needs them.
//
// Hot-path layout (DESIGN.md §6.6): cached templates live in a flat array indexed by dense
// template id and carry per-entry read/write sets pre-resolved to store-dense indices, so
// materializing an instantiation and executing its tasks does no hashing. Copy routing is
// arithmetic on the structured copy id (command.h): the embedded group sequence finds the
// group, the embedded copy index addresses a per-group slot array. The id-keyed tables
// (`index_of`, `pending_edges`, `done_ids`) exist only for streaming command arrival — the
// central-dispatch slow path.

#ifndef NIMBUS_SRC_WORKER_WORKER_H_
#define NIMBUS_SRC_WORKER_WORKER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/dense_id.h"
#include "src/common/ids.h"
#include "src/common/stats.h"
#include "src/common/thread_annotations.h"
#include "src/core/worker_template.h"
#include "src/data/durable_store.h"
#include "src/data/object_store.h"
#include "src/net/timer_wheel.h"
#include "src/net/transport.h"
#include "src/runtime/executor.h"
#include "src/sim/cost_model.h"
#include "src/sim/simulation.h"
#include "src/task/command.h"
#include "src/task/messages.h"
#include "src/task/wire.h"
#include "src/worker/function_registry.h"

namespace nimbus {

class Worker {
 public:
  // `timers` is the clock heartbeats are scheduled against (DESIGN.md §14). Null means
  // "own a SimTimerQueue over `simulation`"; the TCP cluster passes the node's
  // timerfd-backed queue so beats keep flowing on real time between deliveries.
  Worker(WorkerId id, sim::Simulation* simulation, net::Transport* transport,
         const sim::CostModel* costs, const FunctionRegistry* functions,
         DurableStore* durable, net::TimerQueue* timers = nullptr);

  WorkerId id() const { return id_; }
  net::NodeAddress address() const { return net::NodeAddress::ForWorker(id_); }

  // ---- Transport-facing entry point ----

  // The worker's delivery handler: decodes one envelope (src/task/wire.h) and dispatches
  // to the matching entry point below. Registered with the transport by the cluster.
  void OnEnvelope(net::NodeAddress src, MessageKind kind, ParameterBlob bytes);

  // ---- Controller-facing entry points (invoked at message delivery) ----

  // Receives a batch of explicit commands forming group `group_seq`. `finalize` marks the
  // last batch of the group; `expected_total` is the group's full command count (0 while
  // streaming). `barrier` groups wait for all earlier groups.
  void OnCommands(std::uint64_t group_seq, std::vector<Command> commands,
                  std::size_t expected_total, bool finalize, bool barrier);

  // Receives a wire-encoded command batch (src/task/wire.h) forming group `group_seq`.
  // Decodes it and feeds the same ingestion path as OnCommands, so the observed command
  // stream (and the command log) is identical to a per-task send of the same group.
  void OnSerializedCommands(std::uint64_t group_seq, ParameterBlob bytes,
                            std::size_t expected_total, bool finalize, bool barrier);

  // Installs (caches) a worker template. Charged per entry.
  void OnInstallTemplate(core::WorkerHalf half, WorkerTemplateId id);

  // Instantiates a cached worker template as one barrier group.
  void OnInstantiate(InstantiateMsg msg);

  // Halts: terminate ongoing work, flush queues (paper §4.4 failure handling).
  void OnHalt();

  // Reloads `objects` from durable storage (recovery), as one barrier group.
  void OnLoadObjects(std::uint64_t group_seq, std::vector<LogicalObjectId> objects);

  // ---- Peer-facing ----
  void OnDataMessage(CopyId copy, LogicalObjectId object, Version version,
                     std::unique_ptr<Payload> payload);

  // ---- Failure injection ----
  void Fail() { failed_ = true; }
  bool failed() const { return failed_; }

  // ---- Introspection ----
  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }
  sim::CorePool& cores() { return cores_; }
  std::size_t cached_template_count() const;
  bool HasTemplate(WorkerTemplateId id) const;
  std::uint64_t tasks_executed() const { return tasks_executed_; }
  bool idle() const {
    control_phase_.Assert();
    return groups_.empty();
  }
  // Copy payloads buffered ahead of their receive command (in groups or pre-group).
  std::size_t buffered_copy_count() const;

  // Test hook: record every command this worker runs, in arrival order — explicit
  // commands as OnCommands accepts them, materialized instantiation groups as one
  // index-ordered burst. The log is the worker's observed command stream — the equality
  // tests compare it between per-task and batched central dispatch (DESIGN.md §8) and
  // between serial and lookahead/parallel-materialization runs (§9).
  void EnableCommandLog() { command_log_enabled_ = true; }
  const std::vector<Command>& command_log() const { return command_log_; }

  // ---- Parallel materialization (DESIGN.md §9.3) ----
  // Swaps the executor that materializes instantiation groups (per-entry command builds
  // and group-start eligibility scans run as chunked executor jobs). The worker does not
  // own it; nullptr restores the built-in InlineExecutor — the default, which runs every
  // batch sequentially in index order and is bit-identical to the pre-executor code path
  // (the simulator and all existing tests stay on it).
  void set_executor(runtime::Executor* executor) {
    executor_ = executor != nullptr ? executor : &inline_executor_;
  }
  runtime::Executor* executor() { return executor_; }
  const MaterializeCounters& materialize_counters() const { return materialize_counters_; }

  void StartHeartbeats(sim::Duration period);
  // Controller's echo of a heartbeat's sequence number (failure detection armed).
  void OnHeartbeatAck(std::uint64_t seq);
  // Highest heartbeat sequence the controller has acknowledged (0 before any ack).
  std::uint64_t last_acked_heartbeat() const { return last_acked_heartbeat_; }
  const FailureCounters& failure_counters() const { return failure_counters_; }

 private:
  struct RuntimeCommand {
    Command cmd;
    int remaining_before = 0;
    std::vector<std::int32_t> waiters;  // local indexes depending on this command
    bool done = false;
    bool launched = false;
    // Read/write sets resolved to store-dense indices at command build; task execution and
    // copy sends probe the store through these with no hashing.
    std::vector<DenseIndex> reads_dense;
    std::vector<DenseIndex> writes_dense;
    DenseIndex object_dense = kInvalidDenseIndex;  // copy-send object

    // Returns every field to its default but keeps the vectors' capacity: a recycled
    // command table (DESIGN.md §9.3) is refilled without allocating, and no field an
    // earlier instantiation set can reach the next one.
    void ResetKeepingCapacity();
  };

  // Per-group state of one copy pair's receiving half, addressed by the copy id's embedded
  // block-local index. Holds the payload if it arrives before the command is ready, and
  // dies with the group — buffered data cannot outlive its group.
  struct CopySlot {
    std::int32_t command = -1;  // local index of the receive command, -1 until it arrives
    bool has_data = false;
    LogicalObjectId object;
    Version version = 0;
    std::unique_ptr<Payload> payload;
  };

  struct Group {
    std::uint64_t seq = 0;
    bool barrier = false;
    bool finalized = false;
    bool started = false;
    bool reported = false;
    bool streaming = false;  // built command-by-command via OnCommands
    std::size_t expected_total = 0;
    std::size_t done_count = 0;
    std::vector<RuntimeCommand> commands;
    std::vector<CopySlot> copy_slots;  // by block-local copy index
    // Streaming-only id-keyed tables (template materialization never touches them).
    std::unordered_map<CommandId, std::int32_t> index_of;
    // before-ids referenced before their command arrived (streaming dispatch).
    std::unordered_map<CommandId, std::vector<std::int32_t>> pending_edges;
    std::unordered_set<CommandId> done_ids;
    std::vector<ScalarResult> scalars;
    // The cached template this group materializes; its command table goes back to that
    // template when the group is pruned. Invalid for streaming groups.
    DenseIndex template_index = kInvalidDenseIndex;
  };

  // A cached worker template plus its entries' read/write sets resolved to store-dense
  // indices. The dense sets are (re)built lazily per entry, so edits only invalidate the
  // slots they touch. `spare_table` is the command table of this template's last pruned
  // group, kept for the next instantiation to refill in place (DESIGN.md §9.3); a group
  // takes it while live, so two live groups of one template never share a table.
  struct CachedTemplate {
    bool installed = false;
    core::WorkerHalf half;
    struct DenseSets {
      bool valid = false;
      std::vector<DenseIndex> reads;
      std::vector<DenseIndex> writes;
      DenseIndex object = kInvalidDenseIndex;
    };
    std::vector<DenseSets> dense;  // parallel to half.entries
    std::vector<RuntimeCommand> spare_table;
  };

  // Copy data that arrived before its group existed.
  struct EarlyData {
    CopyId copy;
    LogicalObjectId object;
    Version version = 0;
    std::unique_ptr<Payload> payload;
  };

  // Executor jobs for one batch over `n` independent slots: the executor's lane count,
  // clamped so every job has work (1 for the InlineExecutor == the serial code path).
  std::size_t ChunkCount(std::size_t n) const;

  // The group machinery below REQUIRES the control-phase role (DESIGN.md §11): every
  // entry — message handler or deferred simulator callback — must assert the role before
  // reaching it, so the clang leg rejects a new code path that touches group state
  // without declaring itself part of the serial control phase.
  // Shared tail of OnCommands/OnSerializedCommands: log, group the commands, maybe start.
  void IngestCommands(std::uint64_t group_seq, std::vector<Command> commands,
                      std::size_t expected_total, bool finalize, bool barrier)
      NIMBUS_REQUIRES(control_phase_);
  Group& GetOrCreateGroup(std::uint64_t seq, bool barrier) NIMBUS_REQUIRES(control_phase_);
  Group* FindGroup(std::uint64_t seq) NIMBUS_REQUIRES(control_phase_);
  CopySlot& EnsureCopySlot(Group& group, std::int32_t copy_index)
      NIMBUS_REQUIRES(control_phase_);
  // Binds a receive command to its copy slot and claims any early-buffered payload.
  void BindReceiveSlot(Group& group, std::int32_t index) NIMBUS_REQUIRES(control_phase_);
  void AddCommandToGroup(Group& group, Command cmd) NIMBUS_REQUIRES(control_phase_);
  void ResolveTaskObjects(RuntimeCommand& rc);
  void MaterializeInstantiation(DenseIndex tmpl_index, const InstantiateMsg& msg)
      NIMBUS_REQUIRES(control_phase_);
  void MaybeStartGroups() NIMBUS_REQUIRES(control_phase_);
  void StartGroup(std::uint64_t seq) NIMBUS_REQUIRES(control_phase_);
  void TryLaunch(Group& group, std::int32_t index) NIMBUS_REQUIRES(control_phase_);
  void Launch(Group& group, std::int32_t index) NIMBUS_REQUIRES(control_phase_);
  void CompleteCommand(std::uint64_t group_seq, std::int32_t index)
      NIMBUS_REQUIRES(control_phase_);
  void FinishGroupIfDone(std::uint64_t seq) NIMBUS_REQUIRES(control_phase_);
  void HeartbeatTick(sim::Duration period);

  void ExecuteTask(Group& group, std::int32_t index) NIMBUS_REQUIRES(control_phase_);
  void ExecuteCopySend(Group& group, std::int32_t index) NIMBUS_REQUIRES(control_phase_);
  void ExecuteCopyReceive(Group& group, std::int32_t index)
      NIMBUS_REQUIRES(control_phase_);

  WorkerId id_;
  sim::Simulation* simulation_;
  net::Transport* transport_;
  // Heartbeat clock (see ctor comment); owned_timers_ backs timers_ when not supplied.
  std::unique_ptr<net::SimTimerQueue> owned_timers_;
  net::TimerQueue* timers_;
  const sim::CostModel* costs_;
  const FunctionRegistry* functions_;
  DurableStore* durable_;

  ObjectStore store_;
  sim::CorePool cores_;
  sim::Processor control_thread_;  // processes control messages serially

  // Materialization executor (DESIGN.md §9.3). Batches write disjoint per-entry slots, so
  // output is executor-invariant; the inline default preserves the serial path exactly.
  runtime::InlineExecutor inline_executor_;
  runtime::Executor* executor_ = &inline_executor_;
  MaterializeCounters materialize_counters_;
  // Materialization state below is GUARDED_BY the control-phase role (DESIGN.md §11):
  // the simulator delivers every message handler and deferred callback serially, and the
  // annotations turn that scheduling assumption into a machine-checked contract — only
  // code that asserted the role (or a REQUIRES helper reached through one) may touch it.
  RoleCapability control_phase_;

  // Scratch ready-bitmap for StartGroup's eligibility scan, reused across group starts so
  // the serial (inline) path pays no per-group allocation.
  std::vector<std::uint8_t> ready_scratch_ NIMBUS_GUARDED_BY(control_phase_);

  // Cached worker templates (the worker half), in a flat array by dense template id.
  // Workers cache several (paper §2.3); the sparse id is resolved once per message.
  Interner<WorkerTemplateId> template_ids_ NIMBUS_GUARDED_BY(control_phase_);
  DenseMap<CachedTemplate> templates_ NIMBUS_GUARDED_BY(control_phase_);

  // Active groups in arrival order. Completed groups are pruned from the front.
  std::deque<Group> groups_ NIMBUS_GUARDED_BY(control_phase_);

  // Data that arrived before its group was created. Claimed when the matching receive
  // command is added; entries for retired groups are dropped (they cannot be claimed).
  std::vector<EarlyData> early_data_ NIMBUS_GUARDED_BY(control_phase_);

  // Highest group sequence known to be finished or halted. Arrival order matches sequence
  // order, so messages addressed at or below the floor are stale (duplicate or post-halt)
  // and are dropped instead of buffered forever.
  std::uint64_t stale_seq_floor_ = 0;

  // Bumped by every halt; instantiations deferred behind their control-thread charge
  // compare it to discard pre-halt work instead of materializing a zombie group.
  std::uint64_t halt_epoch_ = 0;

  bool failed_ = false;
  bool heartbeats_running_ = false;
  std::uint64_t heartbeat_seq_ = 0;        // sequence stamped into each beat
  std::uint64_t last_acked_heartbeat_ = 0;  // highest seq echoed back by the controller
  FailureCounters failure_counters_;
  std::uint64_t tasks_executed_ = 0;

  // Test-only explicit-command arrival log (see EnableCommandLog).
  bool command_log_enabled_ = false;
  std::vector<Command> command_log_;
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_WORKER_WORKER_H_
