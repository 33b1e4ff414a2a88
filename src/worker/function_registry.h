// Application function registry and task execution context.
//
// Workers execute tasks written in C++ (paper §3.2). A task function receives a context
// exposing the payloads named by the command's read and write sets, the parameter blob, and
// a hook for reporting a scalar result back to the driver (used for data-dependent control
// flow such as loop-termination tests).

#ifndef NIMBUS_SRC_WORKER_FUNCTION_REGISTRY_H_
#define NIMBUS_SRC_WORKER_FUNCTION_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/dense_id.h"
#include "src/common/ids.h"
#include "src/common/logging.h"
#include "src/common/serialize.h"
#include "src/data/object_store.h"
#include "src/data/payload.h"

namespace nimbus {

class TaskContext {
 public:
  // `reads` and `writes` are the command's read/write sets already resolved to the store's
  // dense indices (the sparse→dense boundary is the command table, not task execution);
  // they must outlive the context. Every accessor below is a flat array probe.
  TaskContext(ObjectStore* store, const std::vector<DenseIndex>* reads,
              const std::vector<DenseIndex>* writes, const ParameterBlob* params)
      : store_(store), reads_(reads), writes_(writes), params_(params) {}

  std::size_t read_count() const { return reads_->size(); }
  std::size_t write_count() const { return writes_->size(); }

  const Payload& read(std::size_t i) const {
    NIMBUS_CHECK_LT(i, reads_->size());
    return *store_->GetDense((*reads_)[i]);
  }

  // Typed read helpers.
  const VectorPayload& ReadVector(std::size_t i) const {
    const auto* p = dynamic_cast<const VectorPayload*>(&read(i));
    NIMBUS_CHECK(p != nullptr) << "read " << i << " is not a VectorPayload";
    return *p;
  }

  double ReadScalar(std::size_t i) const {
    const auto* p = dynamic_cast<const ScalarPayload*>(&read(i));
    NIMBUS_CHECK(p != nullptr) << "read " << i << " is not a ScalarPayload";
    return p->value();
  }

  // Write accessors create the instance in place on first write (objects are mutable and
  // written in place, paper §3.3).
  VectorPayload& WriteVector(std::size_t i, std::size_t size_hint = 0) {
    Payload* p = EnsureWrite(i, [&] { return std::make_unique<VectorPayload>(size_hint); });
    auto* v = dynamic_cast<VectorPayload*>(p);
    NIMBUS_CHECK(v != nullptr) << "write " << i << " is not a VectorPayload";
    return *v;
  }

  ScalarPayload& WriteScalar(std::size_t i) {
    Payload* p = EnsureWrite(i, [] { return std::make_unique<ScalarPayload>(); });
    auto* s = dynamic_cast<ScalarPayload*>(p);
    NIMBUS_CHECK(s != nullptr) << "write " << i << " is not a ScalarPayload";
    return *s;
  }

  const ParameterBlob& params() const {
    static const ParameterBlob kEmpty;
    return params_ == nullptr ? kEmpty : *params_;
  }

  // Reports a scalar to the controller/driver (e.g. a residual for loop termination).
  void ReturnScalar(double v) {
    scalar_ = v;
    has_scalar_ = true;
  }

  bool has_scalar() const { return has_scalar_; }
  double scalar() const { return scalar_; }

 private:
  template <typename Factory>
  Payload* EnsureWrite(std::size_t i, Factory factory) {
    NIMBUS_CHECK_LT(i, writes_->size());
    const DenseIndex object = (*writes_)[i];
    if (!store_->HasDense(object)) {
      store_->PutDense(object, 0, factory());
    }
    return store_->GetMutableDense(object);
  }

  ObjectStore* store_;
  const std::vector<DenseIndex>* reads_;
  const std::vector<DenseIndex>* writes_;
  const ParameterBlob* params_;
  double scalar_ = 0.0;
  bool has_scalar_ = false;
};

using TaskFunction = std::function<void(TaskContext&)>;

// Registry shared by all workers in a cluster (the application binary is the same on every
// node). Functions are registered once by the application before the job starts.
//
// Layout (DESIGN.md §6.6): FunctionId is allocated contiguously from 0 by this class, so
// the id value is the dense index — per-function state lives in a flat array and every
// task launch resolves its function with one bounds-checked array access. The name map is
// the string intern boundary (cold, registration/debug only).
class FunctionRegistry {
 public:
  FunctionId Register(const std::string& name, TaskFunction fn) {
    NIMBUS_CHECK(by_name_.find(name) == by_name_.end()) << "duplicate function: " << name;
    const FunctionId id = ids_.Next();
    NIMBUS_CHECK_EQ(id.value(), functions_.size());  // contiguous: id value == index
    functions_.push_back(Entry{name, std::move(fn)});
    by_name_.emplace(name, id);
    return id;
  }

  const TaskFunction& Get(FunctionId id) const { return At(id).fn; }

  const std::string& Name(FunctionId id) const { return At(id).name; }

  FunctionId FindByName(const std::string& name) const {
    auto it = by_name_.find(name);
    NIMBUS_CHECK(it != by_name_.end()) << "unknown function '" << name << "'";
    return it->second;
  }

  std::size_t size() const { return functions_.size(); }

 private:
  struct Entry {
    std::string name;
    TaskFunction fn;
  };

  const Entry& At(FunctionId id) const {
    NIMBUS_CHECK(id.valid() && id.value() < functions_.size()) << "unknown function " << id;
    return functions_[static_cast<std::size_t>(id.value())];
  }

  IdAllocator<FunctionId> ids_;
  std::vector<Entry> functions_;  // by FunctionId value
  // lint:allow(hot-map) -- string intern boundary: names resolve once at registration and
  // lookup by name; tasks run by FunctionId through the flat `functions_` array.
  std::unordered_map<std::string, FunctionId> by_name_;
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_WORKER_FUNCTION_REGISTRY_H_
