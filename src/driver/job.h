// Job: the driver-program API (paper Fig 2, "Application Driver").
//
// Presents a synchronous programming model over the message-driven cluster: RunBlock()
// ships a request envelope to the controller across the transport seam and blocks on the
// reply, so application code is ordinary C++ control flow — `while (error > threshold)`
// loops, nested loops, data-dependent branches — exactly the programs execution templates
// are designed for. Every request carries a request id; the driver's delivery handler
// (OnEnvelope) matches kBlockDone / kCheckpointDone replies against the id it is waiting
// on. The same code runs over the simulator (waiting = advancing virtual time) and over
// TCP (waiting = blocking on the driver mailbox).
//
// Block execution strategy by control-plane mode:
//  * kTemplates       — first run marks + captures the basic block while executing it
//                       centrally; later runs instantiate the template (install, validate,
//                       patch, edit as needed).
//  * kCentralOnly     — every run re-submits all tasks ("Nimbus w/o templates").
//  * kStaticDataflow  — Naiad-style: first run installs the dataflow, later runs trigger it.

#ifndef NIMBUS_SRC_DRIVER_JOB_H_
#define NIMBUS_SRC_DRIVER_JOB_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/driver/cluster.h"
#include "src/net/address.h"
#include "src/task/command.h"

namespace nimbus {

using SparseParams = std::vector<std::pair<std::int32_t, ParameterBlob>>;

class Job {
 public:
  explicit Job(Cluster* cluster);

  // ---- Program construction ----
  VariableId DefineVariable(const std::string& name, int partitions,
                            std::int64_t virtual_bytes_per_partition);
  FunctionId RegisterFunction(const std::string& name, TaskFunction fn);

  // Records a named basic block (its stage list is fixed; parameters vary per run).
  void DefineBlock(const std::string& name, std::vector<StageDescriptor> stages);

  // ---- Execution ----
  struct RunResult {
    std::vector<ScalarResult> scalars;
    bool recovered = false;           // a worker failed; job state reverted to a checkpoint
    std::uint64_t resume_marker = 0;  // driver marker of the restored checkpoint

    double FirstScalar() const { return scalars.empty() ? 0.0 : scalars.front().value; }
    double SumScalars() const {
      double s = 0.0;
      for (const auto& r : scalars) {
        s += r.value;
      }
      return s;
    }
  };

  // Runs one-off stages (e.g. data loading) through the central path.
  RunResult RunStages(std::vector<StageDescriptor> stages);

  // Runs a recorded block according to the control-plane mode (see file comment).
  RunResult RunBlock(const std::string& name, SparseParams params = {});

  // ---- Controller-loop lookahead (DESIGN.md §9) ----
  // Announces the block this driver will run after the current one, so the controller can
  // overlap the next block's template validation with the current block's message
  // assembly. Sticky until changed; an empty name clears it. Advisory with respect to
  // correctness: a wrong hint never changes results (the controller's stamp check falls
  // back to the serial sweep), so `while (cond) { HintNextBlock("iter"); RunBlock("iter"); }`
  // is always safe even when the loop exits — but each wrong hint does pay the small
  // scheduling charge and a wasted overlapped sweep, so don't hint blocks you will
  // rarely run next.
  void HintNextBlock(const std::string& name) { next_block_hint_ = name; }

  // Runs a sequence of recorded blocks back to back, hinting each block's successor so
  // the controller sees every (current, next) pair. Returns the last block's result;
  // stops early (returning the recovery result) if a worker failure interrupts the
  // sequence. Restores an empty hint afterwards.
  RunResult RunBlockSequence(const std::vector<std::pair<std::string, SparseParams>>& seq);

  // The latest values of `variable`'s partition `partition` (a VectorPayload), read from
  // a worker that holds them. Applications read results only through this.
  std::vector<double> ReadVector(VariableId variable, int partition);

  // Writes a checkpoint tagged with `marker` (typically the iteration index).
  void Checkpoint(std::uint64_t marker);

  // Automatic checkpointing (paper §4.4: "Nimbus automatically inserts checkpoints into
  // the task stream"): after every `every_blocks` completed blocks, a checkpoint tagged
  // with the running block count is written before the next block starts. 0 disables.
  void EnableAutoCheckpoint(std::uint64_t every_blocks) {
    auto_checkpoint_every_ = every_blocks;
  }
  std::uint64_t blocks_completed() const { return blocks_completed_; }

  // Fig 9's "manually disabled templates" switch. Off => RunBlock always re-submits.
  void SetTemplatesEnabled(bool enabled) { templates_enabled_ = enabled; }

  // kSuspectNotice envelopes received (controller suspected a worker without declaring
  // it failed). Read under Cluster::WithDriver when the TCP backend is active.
  std::uint64_t suspect_notices() const { return suspect_notices_; }

  Cluster& cluster() { return *cluster_; }

  // The driver's delivery handler: matches kBlockDone / kCheckpointDone replies against
  // the outstanding request and records kRecoveryNotice. Installed on the cluster at
  // construction; public for the transport plumbing, not for application code.
  void OnEnvelope(net::NodeAddress src, MessageKind kind, ParameterBlob bytes);

 private:
  struct BlockDef {
    std::vector<StageDescriptor> stages;
    bool captured = false;
    std::size_t task_count = 0;
  };

  // Opens the next request and returns its id: the driver now waits on it, and `*epoch` is
  // the recovery epoch the request must carry (DESIGN.md §14.6). Returns 0, opening
  // nothing, when a recovery notice is already pending: the request must not reach the
  // controller, since the driver reruns from the notice's marker instead.
  std::uint64_t OpenRequest(std::uint64_t* epoch);

  // Consumes the pending recovery notice as a recovered result.
  RunResult TakeRecovery();

  // Ships the opened request's encoded envelope driver -> controller (`request_bytes` is
  // its modeled size), waits until the matching kBlockDone reply or a recovery notice
  // arrives, and returns the result. Scalars are sorted by task id: completion order is
  // deterministic under the simulator but races under TCP, and results must be
  // transport-invariant.
  RunResult ExecuteAndWait(ParameterBlob request, std::int64_t request_bytes);

  // Encodes `stages` as one kSubmitStages request (capturing them as template
  // `capture_name` when it is non-empty) and runs it through OpenRequest/ExecuteAndWait.
  RunResult SubmitStages(const std::vector<StageDescriptor>& stages,
                         const std::string& capture_name);

  // `stages` with `params` applied by task slot. Returns `stages` itself when no param
  // names one of its slots; otherwise fills `*scratch` with the patched copy and returns it.
  static const std::vector<StageDescriptor>& WithParams(
      const std::vector<StageDescriptor>& stages, const SparseParams& params,
      std::vector<StageDescriptor>* scratch);

  Cluster* cluster_;
  std::map<std::string, BlockDef> blocks_;
  std::string next_block_hint_;  // lookahead announcement; "" = none
  bool templates_enabled_ = true;
  std::uint64_t auto_checkpoint_every_ = 0;
  std::uint64_t blocks_completed_ = 0;
  std::uint64_t last_auto_checkpoint_ = 0;

  // Request/reply mailbox. Written by the main thread (under Cluster::WithDriver) and by
  // the driver delivery handler; AwaitDriver's predicate reads it under the same
  // serialization.
  std::uint64_t last_request_id_ = 0;  // the last id opened; ids start at 1
  std::uint64_t waiting_request_ = 0;  // id the driver is blocked on; 0 = none
  bool pending_done_ = false;
  std::vector<ScalarResult> pending_scalars_;
  bool checkpoint_done_ = false;
  bool recovery_pending_ = false;
  std::uint64_t recovery_marker_ = 0;
  std::uint64_t recovery_epoch_ = 0;  // epoch of the newest kRecoveryNotice seen
  std::uint64_t suspect_notices_ = 0;
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_DRIVER_JOB_H_
