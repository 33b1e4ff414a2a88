// Calibrated cost model for the simulated cluster.
//
// Default constants come from the paper's measurements (Tables 1-3, §5.1 methodology) so the
// simulated figures reproduce the paper's *shapes*. Every constant is a plain field so tests
// and benchmarks can override them (e.g. to run ablations or sensitivity sweeps).

#ifndef NIMBUS_SRC_SIM_COST_MODEL_H_
#define NIMBUS_SRC_SIM_COST_MODEL_H_

#include <cstdint>

#include "src/sim/virtual_time.h"

namespace nimbus::sim {

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

  Duration CheckpointWriteTime(std::int64_t payload_bytes) const {
    return checkpoint_fixed_per_object +
           static_cast<Duration>(static_cast<double>(payload_bytes) /
                                 checkpoint_bytes_per_second * 1e9);
  }
};

}  // namespace nimbus::sim

#endif  // NIMBUS_SRC_SIM_COST_MODEL_H_
