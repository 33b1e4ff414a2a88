// Controller-side registry of application variables and their logical data objects.
//
// A *variable* is a named, partitioned data set declared by the driver (paper Fig 3: tdata,
// coeff, param...). Each partition of each variable is one *logical object*; logical objects
// are the unit of placement, versioning and copying. Because objects are mutable (paper
// §3.3), object ids are stable across iterations and can be cached inside templates.
//
// Layout (DESIGN.md §6.6): the directory allocates VariableId/LogicalObjectId itself,
// contiguously from 0, so the id value *is* the dense index — per-id state lives in flat
// arrays and every lookup is one bounds-checked array access. The sparse accessors below
// are thin shims over those arrays; only the name lookup (cold, driver-facing) hashes.

#ifndef NIMBUS_SRC_DATA_OBJECT_DIRECTORY_H_
#define NIMBUS_SRC_DATA_OBJECT_DIRECTORY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/logging.h"

namespace nimbus {

struct VariableInfo {
  VariableId id;
  std::string name;
  int partitions = 1;
  // Virtual per-partition size in bytes used by the cost model for copies and checkpoints.
  // This lets a laptop-scale run model a 100 GB data set (see DESIGN.md §2).
  std::int64_t virtual_bytes_per_partition = 0;
  std::vector<LogicalObjectId> objects;  // one per partition
};

struct LogicalObjectInfo {
  LogicalObjectId id;
  VariableId variable;
  int partition = 0;
  std::int64_t virtual_bytes = 0;
};

class ObjectDirectory {
 public:
  VariableId DefineVariable(const std::string& name, int partitions,
                            std::int64_t virtual_bytes_per_partition) {
    NIMBUS_CHECK_GT(partitions, 0);
    const VariableId var = variable_ids_.Next();
    VariableInfo info;
    info.id = var;
    info.name = name;
    info.partitions = partitions;
    info.virtual_bytes_per_partition = virtual_bytes_per_partition;
    info.objects.reserve(static_cast<std::size_t>(partitions));
    for (int p = 0; p < partitions; ++p) {
      const LogicalObjectId obj = object_ids_.Next();
      info.objects.push_back(obj);
      objects_.push_back(LogicalObjectInfo{obj, var, p, virtual_bytes_per_partition});
    }
    name_to_variable_.emplace(name, var);
    variables_.push_back(std::move(info));
    return var;
  }

  // --- Sparse shims ---

  const VariableInfo& variable(VariableId id) const {
    NIMBUS_CHECK(id.valid() && id.value() < variables_.size()) << "unknown variable " << id;
    return variables_[static_cast<std::size_t>(id.value())];
  }

  const LogicalObjectInfo& object(LogicalObjectId id) const {
    NIMBUS_CHECK(id.valid() && id.value() < objects_.size()) << "unknown object " << id;
    return objects_[static_cast<std::size_t>(id.value())];
  }

  bool HasVariable(const std::string& name) const {
    return name_to_variable_.count(name) > 0;
  }

  LogicalObjectId ObjectFor(VariableId var, int partition) const {
    const VariableInfo& info = variable(var);
    NIMBUS_CHECK_GE(partition, 0);
    NIMBUS_CHECK_LT(partition, info.partitions);
    return info.objects[static_cast<std::size_t>(partition)];
  }

  std::size_t variable_count() const { return variables_.size(); }
  std::size_t object_count() const { return objects_.size(); }

  const std::vector<VariableInfo>& variables() const { return variables_; }

 private:
  IdAllocator<VariableId> variable_ids_;
  IdAllocator<LogicalObjectId> object_ids_;
  std::vector<VariableInfo> variables_;       // indexed by VariableId value
  std::vector<LogicalObjectInfo> objects_;    // indexed by LogicalObjectId value
  // lint:allow(hot-map) -- string intern boundary for driver-facing name registration
  std::unordered_map<std::string, VariableId> name_to_variable_;  // cold, driver-facing
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_DATA_OBJECT_DIRECTORY_H_
