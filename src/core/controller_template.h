// Controller templates: the driver-controller half of the execution-template abstraction.
//
// A controller template caches the complete list of tasks of one *basic block* across all
// workers (paper §2.2): executable functions, resolved read/write object sets, placement
// affinities and scalar-return flags. Task identifiers and per-task parameters are NOT part
// of the structure; they are passed at instantiation ("we call this abstraction a template
// because it caches some information but instantiation requires parameters", §1).

#ifndef NIMBUS_SRC_CORE_CONTROLLER_TEMPLATE_H_
#define NIMBUS_SRC_CORE_CONTROLLER_TEMPLATE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/logging.h"
#include "src/common/serialize.h"
#include "src/sim/virtual_time.h"
#include "src/task/command.h"

namespace nimbus::core {

// One cached task of a basic block. Read/write sets are fully resolved logical object ids;
// this is the output of the dependency/lineage analysis the template caches.
struct TemplateEntry {
  FunctionId function;
  std::vector<LogicalObjectId> reads;
  std::vector<LogicalObjectId> writes;
  int placement_partition = -1;
  sim::Duration duration = 0;
  bool returns_scalar = false;
  // Index into the instantiation parameter array; -1 means `cached_params` is reused
  // verbatim on every instantiation (e.g. constants baked into the block).
  std::int32_t param_slot = -1;
  ParameterBlob cached_params;
};

class ControllerTemplate {
 public:
  ControllerTemplate(TemplateId id, std::string name) : id_(id), name_(std::move(name)) {}

  TemplateId id() const { return id_; }
  const std::string& name() const { return name_; }

  void AppendEntry(TemplateEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<TemplateEntry>& entries() const { return entries_; }
  std::size_t task_count() const { return entries_.size(); }

  // Number of parameter slots an instantiation must supply.
  std::int32_t param_slot_count() const { return param_slots_; }

  std::int32_t AllocateParamSlot() { return param_slots_++; }

  void MarkFinished() { finished_ = true; }
  bool finished() const { return finished_; }

 private:
  TemplateId id_;
  std::string name_;
  std::vector<TemplateEntry> entries_;
  std::int32_t param_slots_ = 0;
  bool finished_ = false;
};

}  // namespace nimbus::core

#endif  // NIMBUS_SRC_CORE_CONTROLLER_TEMPLATE_H_
