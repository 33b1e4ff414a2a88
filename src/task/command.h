// Control-plane commands (paper §3.4).
//
// The Nimbus control plane has four command kinds: data commands create/destroy objects,
// copy commands move object instances (locally or over the network), file commands touch
// durable storage, and task commands run an application function. Every command has five
// fields: a unique id, a read set, a write set, a *worker-local* before set, and a parameter
// blob; task commands add the function to execute.
//
// Before sets deliberately reference only commands on the same worker: a dependency on a
// remote command is always encoded through a copy-send/copy-receive pair. This is what lets
// workers resolve readiness locally (requirement 1 in §3.1) and exchange data directly
// (requirement 2).

#ifndef NIMBUS_SRC_TASK_COMMAND_H_
#define NIMBUS_SRC_TASK_COMMAND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/logging.h"
#include "src/common/serialize.h"
#include "src/sim/virtual_time.h"

namespace nimbus {

enum class CommandType : std::uint8_t {
  kTask = 0,
  kCopySend,      // push one object instance to a peer worker
  kCopyReceive,   // accept one object instance from a peer worker
  kDataCreate,    // allocate an (empty) object instance locally
  kDataDestroy,   // drop the local instance
  kFileLoad,      // read the object from durable storage
  kFileSave,      // write the object to durable storage
};

// Copy ids are structured: the high bits carry the (globally unique) group sequence number
// of the command group both halves of the copy pair belong to, the low 24 bits the
// block-local copy index. Workers rely on this to route an arriving data message to its
// group with plain integer arithmetic — no id table and no hashing on the copy path.
inline constexpr int kCopyIndexBits = 24;

inline CopyId MakeCopyId(std::uint64_t group_seq, std::int32_t copy_index) {
  // The packing is load-bearing (the decode routes data messages): an index overflowing
  // its field would silently corrupt the group sequence, so fail fast instead.
  NIMBUS_CHECK(copy_index >= 0 && copy_index < (1 << kCopyIndexBits))
      << "copy index " << copy_index << " exceeds the copy-id field";
  return CopyId((group_seq << kCopyIndexBits) | static_cast<std::uint64_t>(copy_index));
}

inline std::uint64_t CopyGroupSeq(CopyId copy) { return copy.value() >> kCopyIndexBits; }

inline std::int32_t CopyLocalIndex(CopyId copy) {
  return static_cast<std::int32_t>(copy.value() & ((std::uint64_t{1} << kCopyIndexBits) - 1));
}

struct Command {
  CommandId id;
  CommandType type = CommandType::kTask;

  // The five shared fields (id above, then:)
  std::vector<LogicalObjectId> read_set;
  std::vector<LogicalObjectId> write_set;
  std::vector<CommandId> before;  // worker-local predecessors
  ParameterBlob params;

  // --- kTask only ---
  TaskId task_id;
  FunctionId function;
  // Modeled execution duration charged to a worker core (virtual time).
  sim::Duration duration = 0;
  // If set, the worker reports a scalar produced by this task back to the controller, which
  // forwards it to the driver (data-dependent control flow, e.g. loop termination).
  bool returns_scalar = false;

  // --- kCopySend / kCopyReceive only ---
  CopyId copy_id;               // matches the send with its receive
  WorkerId peer;                // destination (send) or source (receive)
  LogicalObjectId copy_object;  // the object being moved
  Version copy_version = 0;     // version stamped by the controller
  std::int64_t copy_bytes = 0;  // virtual payload size for the network model

  // --- kDataCreate / kDataDestroy / kFileLoad / kFileSave ---
  LogicalObjectId data_object;

  // Approximate wire size of this command when sent individually (control message).
  std::int64_t WireSize() const {
    return 48 + static_cast<std::int64_t>(
                    (read_set.size() + write_set.size() + before.size()) * 8 + params.size());
  }

  // Returns every field to its default but keeps the four vectors' capacity, so a decoder
  // or a recycled worker slot refills the command without allocating.
  void ResetKeepingCapacity();

  // Full-field equality: the dispatch-equivalence tests compare whole command streams, and
  // keeping the comparator next to the struct means a new field cannot be silently skipped.
  friend bool operator==(const Command& a, const Command& b) {
    return a.id == b.id && a.type == b.type && a.read_set == b.read_set &&
           a.write_set == b.write_set && a.before == b.before && a.params == b.params &&
           a.task_id == b.task_id && a.function == b.function && a.duration == b.duration &&
           a.returns_scalar == b.returns_scalar && a.copy_id == b.copy_id &&
           a.peer == b.peer && a.copy_object == b.copy_object &&
           a.copy_version == b.copy_version && a.copy_bytes == b.copy_bytes &&
           a.data_object == b.data_object;
  }
};

// A reference to one partition of one variable, used by the driver before objects are
// resolved to LogicalObjectIds by the controller.
struct ObjRef {
  VariableId variable;
  int partition = 0;

  friend bool operator==(const ObjRef& a, const ObjRef& b) {
    return a.variable == b.variable && a.partition == b.partition;
  }
};

// One application task as described by the driver (pre-scheduling).
struct TaskDescriptor {
  FunctionId function;
  std::vector<ObjRef> reads;
  std::vector<ObjRef> writes;
  ParameterBlob params;
  // Placement affinity: the task should run where this partition's data lives. -1 lets the
  // controller pick (defaults to partition of the first write).
  int placement_partition = -1;
  sim::Duration duration = 0;
  bool returns_scalar = false;
};

// One stage: a batch of parallel tasks submitted together by the driver (paper §3.3: "each
// stage typically executes as many tasks, one per object").
struct StageDescriptor {
  std::string name;
  std::vector<TaskDescriptor> tasks;
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_TASK_COMMAND_H_
