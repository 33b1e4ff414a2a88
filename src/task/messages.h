// Control-plane message structs shared by the worker, controller, and wire codec.
//
// These are the in-memory forms of messages that cross the transport seam (src/net/) as
// encoded envelopes (src/task/wire.h). They live here — not in worker.h — so the codec can
// encode them without depending on the worker runtime.

#ifndef NIMBUS_SRC_TASK_MESSAGES_H_
#define NIMBUS_SRC_TASK_MESSAGES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/serialize.h"
#include "src/core/worker_template.h"

namespace nimbus {

struct ScalarResult {
  TaskId task;
  double value = 0.0;
};

// One worker-template instantiation message (controller -> worker), paper Fig 5b.
struct InstantiateMsg {
  WorkerTemplateId worker_template;
  std::uint64_t group_seq = 0;
  CommandId command_base;  // entry i gets command id base+i
  TaskId task_base;        // task entries get task id base+global_entry
  // Sparse per-entry parameters: (global entry index, blob).
  std::vector<std::pair<std::int32_t, ParameterBlob>> params;
  // Edits to apply to the cached template before materializing (paper §4.3).
  std::vector<core::WorkerEditOp> edits;
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_TASK_MESSAGES_H_
