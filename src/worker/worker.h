// Worker runtime: local command queue, readiness resolution, template cache, execution.
//
// Workers satisfy the two control-plane requirements of §3.1: (1) they maintain a queue of
// commands and *locally* determine when each is runnable (before sets reference only local
// commands), and (2) they exchange data directly with peers (copy commands name the peer
// worker explicitly, so no controller lookup is on the data path).
//
// Commands arrive grouped: a *group* is either the materialization of one worker-template
// instantiation or one command group the controller sent as explicit commands (a central
// stage, a patch, a checkpoint's saves, a recovery's reloads), in one frame or streamed
// one command per frame. Every frame carries the group's command total, and the group is
// complete once that many commands have run. A group starts only after every earlier
// group completes, which is how patch copies are ordered before the block that needs them.
//
// Hot-path layout (DESIGN.md §6.6): cached templates live in a flat array indexed by dense
// template id and carry per-entry read/write sets pre-resolved to store-dense indices, so
// materializing an instantiation and executing its tasks does no hashing. Copy routing is
// arithmetic on the structured copy id (command.h): the embedded group sequence finds the
// group, the embedded copy index addresses a per-group slot array. Streaming arrival (the
// central-dispatch path) resolves command ids and before-edges the same way: every group's
// ids are one contiguous range, so an id's offset from the group's base indexes a flat
// slot table. Pruned groups hand their storage to worker-owned pools, so a steady-state
// block refills recycled tables instead of allocating per command (DESIGN.md §9.3).

#ifndef NIMBUS_SRC_WORKER_WORKER_H_
#define NIMBUS_SRC_WORKER_WORKER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/dense_id.h"
#include "src/common/ids.h"
#include "src/common/stats.h"
#include "src/common/thread_annotations.h"
#include "src/core/worker_template.h"
#include "src/data/durable_store.h"
#include "src/data/object_store.h"
#include "src/net/timer_queue.h"
#include "src/net/transport.h"
#include "src/sim/work_meter.h"
#include "src/task/command.h"
#include "src/task/messages.h"
#include "src/task/wire.h"
#include "src/worker/function_registry.h"

namespace nimbus {

class Worker {
 public:
  // `meter` prices and books the worker's work on its control thread and cores
  // (src/sim/work_meter.h); on a real-time meter tasks run inline in submission order
  // (DESIGN.md §13.3).
  // `timers` is the clock heartbeats are scheduled against (DESIGN.md §14): the simulator
  // cluster passes its one SimTimerQueue, the TCP cluster the node's timerfd-backed queue.
  Worker(WorkerId id, sim::WorkMeter meter, net::Transport* transport,
         const FunctionRegistry* functions, DurableStore* durable, net::TimerQueue* timers);

  WorkerId id() const { return id_; }
  net::NodeAddress address() const { return net::NodeAddress::ForWorker(id_); }

  // ---- Transport-facing entry point ----

  // The worker's delivery handler: decodes one envelope (src/task/wire.h) and dispatches
  // to the matching entry point below. Registered with the transport by the cluster.
  void OnEnvelope(net::NodeAddress src, MessageKind kind, ParameterBlob bytes);

  // ---- Controller-facing entry points (invoked at message delivery) ----

  // Receives a batch of explicit commands of group `group_seq`: the whole group, or one
  // frame of a group streamed over several. `expected_total` is the group's full command
  // count, the same on every frame (CHECKed; 0 is rejected); the group is complete once
  // that many commands have run. The group starts once every earlier group is done.
  // The commands are copied into the group's (recycled) slots, so the caller keeps them.
  void OnCommands(std::uint64_t group_seq, const std::vector<Command>& commands,
                  std::size_t expected_total);

  // Receives a wire-encoded command batch (src/task/wire.h) forming group `group_seq`.
  // Decodes it into the worker's decode scratch and feeds the same ingestion path as
  // OnCommands, so the observed command stream (and the command log) is identical to a
  // per-task send of the same group.
  void OnSerializedCommands(std::uint64_t group_seq, const ParameterBlob& bytes,
                            std::size_t expected_total);

  // Installs (caches) a worker template. Charged per entry.
  void OnInstallTemplate(core::WorkerHalf half, WorkerTemplateId id);

  // Instantiates a cached worker template as one group.
  void OnInstantiate(InstantiateMsg msg);

  // Halts: terminate ongoing work, flush queues (paper §4.4 failure handling).
  void OnHalt();

  // ---- Peer-facing ----
  void OnDataMessage(CopyId copy, LogicalObjectId object, Version version,
                     std::unique_ptr<Payload> payload);

  // ---- Failure injection ----
  void Fail() { failed_ = true; }
  bool failed() const { return failed_; }

  // ---- Introspection ----
  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }
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
  // between serial and lookahead runs (§9).
  void EnableCommandLog() { command_log_enabled_ = true; }
  const std::vector<Command>& command_log() const { return command_log_; }

  const MaterializeCounters& materialize_counters() const { return materialize_counters_; }

  // Sends a heartbeat now and one every `period` after it until the worker fails. The
  // cluster calls it once, when it arms failure detection (DESIGN.md §14.2).
  void StartHeartbeats(sim::Duration period);
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

    // Returns every field to its default but keeps the vectors' capacity (the command's
    // too): a recycled command table or slot (DESIGN.md §9.3) is refilled without
    // allocating, and no field an earlier group set can reach the next one.
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
    bool started = false;
    bool reported = false;
    std::size_t expected_total = 0;  // from the first frame (or the template); 0 until then
    std::size_t done_count = 0;
    std::vector<RuntimeCommand> commands;  // by local index (arrival order)
    std::vector<CopySlot> copy_slots;      // by block-local copy index
    // Streaming arrival: a group's command ids are one contiguous range (DESIGN.md §8), so
    // `id_slots[id - command_base]` is the id's local index, -1 until its command arrives.
    // The table covers only offsets actually seen; materialized groups leave it empty.
    CommandId command_base;
    std::vector<std::int32_t> id_slots;
    // Before-edges naming a command that has not arrived yet: (id offset, waiting index).
    std::vector<std::pair<std::uint32_t, std::int32_t>> parked_edges;
    std::vector<ScalarResult> scalars;
    // The cached template this group materializes; its command table goes back to that
    // template when the group is pruned. Invalid for streaming groups.
    DenseIndex template_index = kInvalidDenseIndex;

    // Returns the group to its just-created state but keeps its tables' capacity, so a
    // recycled record (DESIGN.md §9.3) carries nothing from the group that used it.
    void ResetKeepingCapacity();
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

  // The group machinery below REQUIRES the control-phase role (DESIGN.md §11): every
  // entry — message handler or deferred simulator callback — must assert the role before
  // reaching it, so the clang leg rejects a new code path that touches group state
  // without declaring itself part of the serial control phase.
  // Shared tail of OnCommands/OnSerializedCommands: log, group the commands, maybe start.
  void IngestCommands(std::uint64_t group_seq, const std::vector<Command>& commands,
                      std::size_t expected_total)
      NIMBUS_REQUIRES(control_phase_);
  // Creates a group from a recycled record when the pool has one.
  Group& GetOrCreateGroup(std::uint64_t seq) NIMBUS_REQUIRES(control_phase_);
  // Hands a pruned or halted group's storage back: a materialized group's command table
  // to its template, a streaming group's command slots to `spare_commands_`, and the
  // record (with its id table and copy slots) to `spare_groups_`.
  void RecycleGroup(Group& group) NIMBUS_REQUIRES(control_phase_);
  Group* FindGroup(std::uint64_t seq) NIMBUS_REQUIRES(control_phase_);
  CopySlot& EnsureCopySlot(Group& group, std::int32_t copy_index)
      NIMBUS_REQUIRES(control_phase_);
  // Binds a receive command to its copy slot and claims any early-buffered payload.
  void BindReceiveSlot(Group& group, std::int32_t index) NIMBUS_REQUIRES(control_phase_);
  // Returns `id`'s offset in the group's id table, growing the table to cover it and
  // rebasing it when `id` lies below the current base (arrival out of id order).
  // CHECK-fails, before any resize, on an id that would stretch the group's range past its
  // 2^24 command-index budget (kCopyIndexBits, the LaunchKey/MakeCopyId field width).
  static std::uint32_t IdOffset(Group& group, CommandId id);
  void AddCommandToGroup(Group& group, const Command& cmd) NIMBUS_REQUIRES(control_phase_);
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

  void ExecuteTask(Group& group, std::int32_t index) NIMBUS_REQUIRES(control_phase_);
  void ExecuteCopySend(Group& group, std::int32_t index) NIMBUS_REQUIRES(control_phase_);
  void ExecuteCopyReceive(Group& group, std::int32_t index)
      NIMBUS_REQUIRES(control_phase_);

  WorkerId id_;
  net::Transport* transport_;
  net::TimerQueue* timers_;  // heartbeat clock (see ctor comment)
  const FunctionRegistry* functions_;
  DurableStore* durable_;

  ObjectStore store_;
  sim::WorkMeter meter_;  // control thread (control messages, serially) and cores

  MaterializeCounters materialize_counters_;
  // Materialization state below is GUARDED_BY the control-phase role (DESIGN.md §11):
  // the simulator delivers every message handler and deferred callback serially, and the
  // annotations turn that scheduling assumption into a machine-checked contract — only
  // code that asserted the role (or a REQUIRES helper reached through one) may touch it.
  RoleCapability control_phase_;

  // Cached worker templates (the worker half), in a flat array by dense template id.
  // Workers cache several (paper §2.3); the sparse id is resolved once per message.
  Interner<WorkerTemplateId> template_ids_ NIMBUS_GUARDED_BY(control_phase_);
  DenseMap<CachedTemplate> templates_ NIMBUS_GUARDED_BY(control_phase_);

  // Active groups in arrival order. Completed groups are pruned from the front.
  std::deque<Group> groups_ NIMBUS_GUARDED_BY(control_phase_);

  // Recycled group storage (DESIGN.md §9.3): pruned group records (id table, copy slots
  // and, for streaming groups, the emptied command table) and streaming command slots,
  // whose vectors keep their capacity. A new group or command takes from here before it
  // allocates, so each pool holds at most what was live at once.
  std::vector<Group> spare_groups_ NIMBUS_GUARDED_BY(control_phase_);
  std::vector<RuntimeCommand> spare_commands_ NIMBUS_GUARDED_BY(control_phase_);

  // Decode scratch for the central path's envelopes: a steady-state delivery decodes into
  // these (keeping their capacity) and ingests from them by reference. `scratch_live_`
  // catches a nested delivery that would overwrite them mid-ingest (wire::ScratchGuard).
  wire::CommandsEnvelope commands_scratch_ NIMBUS_GUARDED_BY(control_phase_);
  wire::SerializedBatchEnvelope batch_envelope_scratch_ NIMBUS_GUARDED_BY(control_phase_);
  wire::DecodedBatch batch_scratch_ NIMBUS_GUARDED_BY(control_phase_);
  bool scratch_live_ NIMBUS_GUARDED_BY(control_phase_) = false;

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
  std::uint64_t heartbeat_seq_ = 0;        // sequence stamped into each beat
  FailureCounters failure_counters_;
  std::uint64_t tasks_executed_ = 0;

  // Test-only explicit-command arrival log (see EnableCommandLog).
  bool command_log_enabled_ = false;
  std::vector<Command> command_log_;
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_WORKER_WORKER_H_
