// Calibrated cost model for the simulated cluster.
//
// Default constants come from the paper's measurements (Tables 1-3, §5.1 methodology) so the
// simulated figures reproduce the paper's *shapes*. Every constant is a plain field so tests
// and benchmarks can override them (e.g. to run ablations or sensitivity sweeps).
//
// Node code never reads the constants. The controller and workers report typed work
// (`Work`) through their WorkMeter (src/sim/work_meter.h), and `CostModel::Price` is the
// one place the constants are combined into the price of a report (DESIGN.md §8.2).

#ifndef NIMBUS_SRC_SIM_COST_MODEL_H_
#define NIMBUS_SRC_SIM_COST_MODEL_H_

#include <cstdint>

#include "src/sim/virtual_time.h"

namespace nimbus::sim {

// One kind per priced action a node reports. The amount is a count of the unit named,
// except where a byte count is noted.
enum class Work : std::uint8_t {
  // ---- Controller ----
  kCaptureTask,        // a task recorded into the template being captured
  kCentralSchedule,    // Nimbus central scheduling, per task (dependency analysis + send)
  kSparkSchedule,      // Spark-style scheduling and dispatch, per task
  kBatchEncode,        // cold serialized batch: wire encode, per command
  kBatchBuild,         // cold serialized batch: build and send, per worker
  kBatchCopy,          // cached serialized batch: buffer copy, per command
  kBatchPatchSlot,     // cached serialized batch: one parameter overwrite
  kBatchReuse,         // cached serialized batch: header patches and send, per worker
  kMessageSend,        // handing a built message to the transport (its wire cost is the
                       // network's), per message
  kInstallProjection,  // controller side of a worker-template install, per task
  kNaiadInstall,       // Naiad-style full dataflow (re)install, per task
  kInstantiate,        // controller-template instantiation, per task
  kEdit,               // one edit riding an instantiation
  kValidateEntry,      // one precondition checked against the version map
  kFullValidation,     // the full sweep's surcharge over auto-validation, per task
  kLookaheadSchedule,  // arming an overlapped sweep, per task of the next block
  kLookaheadConsume,   // consuming an overlapped sweep, per task
  kPatchDirective,     // one patch directive from the patch cache (hit)
  kPatchCompute,       // one patch directive computed from scratch (miss)
  kHaltSettle,         // recovery's wait for the halt round trip, per recovery
  // ---- Worker ----
  kReceiveTask,        // ingesting one individually dispatched command
  kDecodeCommand,      // decoding one serialized-batch command
  kInstallHalf,        // worker side of a worker-template install, per entry
  kMaterialize,        // instantiating a cached worker template, per entry
  kTaskDispatch,       // local scheduling of one task
  kCheckpointSave,     // writing one object to durable storage; amount = bytes
  kCheckpointLoad,     // reading one object back from durable storage; amount = bytes
};

struct CostModel {
  // ---- Cluster topology (paper §5.1: c3.2xlarge workers, single placement group) ----
  int worker_cores = 8;

  // One-way network latency between any two nodes (same placement group).
  Duration network_latency = Micros(100);

  // Network bandwidth per node, bytes/second (10 Gbps full bisection).
  double network_bytes_per_second = 1.25e9;

  // Fixed wire overhead per message (framing, headers).
  std::int64_t message_overhead_bytes = 64;

  // ---- Central scheduling costs (paper Table 1) ----
  // Cost for the Nimbus controller to centrally schedule one task without templates:
  // dependency analysis, versioning, assignment, and the per-task message send.
  Duration nimbus_central_schedule_per_task = Micros(134);

  // Cost for the Spark-style controller to schedule + dispatch one task.
  Duration spark_schedule_per_task = Micros(166);

  // Worker-side cost to receive and enqueue one individually-dispatched task.
  Duration worker_receive_task = Micros(5);

  // ---- Batched central dispatch (pipeline-driven, DESIGN.md §8) ----
  // Serialized dispatch ships each worker ONE message carrying all of its commands, so the
  // message build/send overhead is paid once per worker per stage instead of once per
  // task. This is that fixed per-worker cost on a cold (freshly encoded) batch.
  Duration nimbus_central_batch_per_worker = Micros(30);

  // ---- Pre-serialized command batches (DESIGN.md §10) ----
  // With a cached serialized batch the controller's steady-state dispatch is memcpy plus
  // three header patches plus in-place parameter overwrites: per-task cost falls to the
  // buffer copy amortized per command. The cold path pays one wire encode per worker half
  // (amortized away by reuse); the worker pays a decode per command instead of struct
  // ingestion.
  Duration serialized_batch_encode_per_task = Micros(6);
  Duration serialized_batch_per_task = Micros(2);
  Duration serialized_batch_per_worker = Micros(12);
  Duration serialized_patch_per_slot = Micros(0.5);
  Duration serialized_decode_per_task = Micros(3);

  // ---- Pipelined controller loop (DESIGN.md §9) ----
  // Block N+1's precondition sweep, run during block N's message-assembly phase. The model
  // charges only setup and routing: the sweep is modeled as overlapping assembly on a
  // spare controller core, so its own cost stays off the control thread.
  Duration lookahead_schedule_per_task = Micros(0.3);
  // Consuming a lookahead validation at the next instantiation: stamp check plus the
  // handoff of the failure list. Replaces the serial full-sweep surcharge
  // (instantiate_worker_template_validate_per_task -
  // instantiate_worker_template_auto_per_task).
  Duration lookahead_consume_per_task = Micros(0.5);

  // ---- Template installation costs (paper Table 1) ----
  Duration install_controller_template_per_task = Micros(25);
  Duration install_worker_template_controller_per_task = Micros(15);
  Duration install_worker_template_worker_per_task = Micros(9);

  // ---- Template instantiation costs (paper Table 2) ----
  Duration instantiate_controller_template_per_task = Micros(0.2);
  Duration instantiate_worker_template_auto_per_task = Micros(1.7);
  Duration instantiate_worker_template_validate_per_task = Micros(7.3);

  // ---- Edits and patches (paper Table 3, §4.2-4.3) ----
  Duration edit_per_task = Micros(41);
  // Applying one cached-patch copy directive at the controller (cache hit).
  Duration patch_directive_cost = Micros(2);
  // Computing a patch from scratch, per directive (cache miss: lookup, holder search,
  // command construction).
  Duration patch_compute_per_entry = Micros(15);
  // Validating one precondition entry against the version map.
  Duration validate_per_entry = Micros(0.8);

  // ---- Naiad-style baseline (paper Table 3: "any change" = full dataflow install) ----
  // Installing the physical dataflow graph, per task. 8000 tasks ~ 230 ms.
  Duration naiad_install_per_task = Micros(28.75);

  // ---- Worker execution ----
  // Local scheduling overhead per task on a worker (dequeue, readiness bookkeeping).
  Duration worker_dispatch_per_task = Micros(2);

  // ---- Checkpointing (paper §4.4) ----
  // Writing one data object to durable storage, per byte, plus fixed cost.
  Duration checkpoint_fixed_per_object = Micros(200);
  double checkpoint_bytes_per_second = 2.5e8;  // 250 MB/s to durable storage.

  // Derived helpers -------------------------------------------------------------------

  Duration TransferTime(std::int64_t payload_bytes) const {
    const double bytes = static_cast<double>(payload_bytes + message_overhead_bytes);
    return network_latency + static_cast<Duration>(bytes / network_bytes_per_second * 1e9);
  }

  Duration SerializationTime(std::int64_t payload_bytes) const {
    const double bytes = static_cast<double>(payload_bytes + message_overhead_bytes);
    return static_cast<Duration>(bytes / network_bytes_per_second * 1e9);
  }

  // The modeled duration of `amount` units of `work`.
  Duration Price(Work work, std::int64_t amount) const {
    switch (work) {
      case Work::kCaptureTask: return install_controller_template_per_task * amount;
      case Work::kCentralSchedule: return nimbus_central_schedule_per_task * amount;
      case Work::kSparkSchedule: return spark_schedule_per_task * amount;
      case Work::kBatchEncode: return serialized_batch_encode_per_task * amount;
      case Work::kBatchBuild: return nimbus_central_batch_per_worker * amount;
      case Work::kBatchCopy: return serialized_batch_per_task * amount;
      case Work::kBatchPatchSlot: return serialized_patch_per_slot * amount;
      case Work::kBatchReuse: return serialized_batch_per_worker * amount;
      case Work::kMessageSend: return 0;
      case Work::kInstallProjection:
        return install_worker_template_controller_per_task * amount;
      case Work::kNaiadInstall: return naiad_install_per_task * amount;
      case Work::kInstantiate: return instantiate_controller_template_per_task * amount;
      case Work::kEdit: return edit_per_task * amount;
      case Work::kValidateEntry: return validate_per_entry * amount;
      case Work::kFullValidation:
        return (instantiate_worker_template_validate_per_task -
                instantiate_worker_template_auto_per_task) * amount;
      case Work::kLookaheadSchedule: return lookahead_schedule_per_task * amount;
      case Work::kLookaheadConsume: return lookahead_consume_per_task * amount;
      case Work::kPatchDirective: return patch_directive_cost * amount;
      case Work::kPatchCompute: return patch_compute_per_entry * amount;
      case Work::kHaltSettle: return network_latency * 4 * amount;
      case Work::kReceiveTask: return worker_receive_task * amount;
      case Work::kDecodeCommand: return serialized_decode_per_task * amount;
      case Work::kInstallHalf: return install_worker_template_worker_per_task * amount;
      case Work::kMaterialize: return instantiate_worker_template_auto_per_task * amount;
      case Work::kTaskDispatch: return worker_dispatch_per_task * amount;
      case Work::kCheckpointSave:
      case Work::kCheckpointLoad:
        return checkpoint_fixed_per_object +
               static_cast<Duration>(static_cast<double>(amount) /
                                     checkpoint_bytes_per_second * 1e9);
    }
    return 0;  // unreachable: the switch names every kind (-Wswitch keeps it so)
  }
};

}  // namespace nimbus::sim

#endif  // NIMBUS_SRC_SIM_COST_MODEL_H_
