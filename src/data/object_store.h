// Worker-side object store: the physical instances resident in one worker's memory.
//
// Tasks read and write payloads in place. A data-copy receive swaps the stored payload
// pointer once the transferred buffer is complete (paper §3.4).
//
// Layout (DESIGN.md §6.6): logical object ids are interned to worker-local dense indices;
// instances live in one flat array indexed by dense id (payload == nullptr marks a
// non-resident slot). Commands resolve their read/write sets to dense indices once — at the
// sparse→dense intern boundary — and steady-state task execution touches the store through
// the *Dense accessors with zero hashing. The sparse API below is the compatibility shim.

#ifndef NIMBUS_SRC_DATA_OBJECT_STORE_H_
#define NIMBUS_SRC_DATA_OBJECT_STORE_H_

#include <memory>
#include <utility>

#include "src/common/dense_id.h"
#include "src/common/ids.h"
#include "src/common/logging.h"
#include "src/data/payload.h"

namespace nimbus {

class ObjectStore {
 public:
  struct Instance {
    Version version = 0;
    std::unique_ptr<Payload> payload;
  };

  // --- Dense id interning (the once-per-command boundary; hot paths carry indices) ---

  DenseIndex Intern(LogicalObjectId object) {
    const DenseIndex index = objects_.Intern(object);
    instances_.EnsureSize(objects_.size());
    return index;
  }

  // --- Dense API (zero hashing; used by task execution and copy delivery) ---

  bool HasDense(DenseIndex index) const { return instances_[index].payload != nullptr; }

  void PutDense(DenseIndex index, Version version, std::unique_ptr<Payload> payload) {
    NIMBUS_CHECK(payload != nullptr);
    Instance& inst = instances_[index];
    if (inst.payload == nullptr) {
      ++resident_;
    }
    inst.version = version;
    inst.payload = std::move(payload);
  }

  Payload* GetMutableDense(DenseIndex index) {
    Instance& inst = instances_[index];
    NIMBUS_CHECK(inst.payload != nullptr)
        << "object not resident: " << objects_.Resolve(index);
    return inst.payload.get();
  }

  const Payload* GetDense(DenseIndex index) const {
    const Instance& inst = instances_[index];
    NIMBUS_CHECK(inst.payload != nullptr)
        << "object not resident: " << objects_.Resolve(index);
    return inst.payload.get();
  }

  Version VersionDense(DenseIndex index) const {
    const Instance& inst = instances_[index];
    NIMBUS_CHECK(inst.payload != nullptr)
        << "object not resident: " << objects_.Resolve(index);
    return inst.version;
  }

  void BumpVersionDense(DenseIndex index, Version version) {
    Instance& inst = instances_[index];
    NIMBUS_CHECK(inst.payload != nullptr)
        << "object not resident: " << objects_.Resolve(index);
    inst.version = version;
  }

  void EraseDense(DenseIndex index) {
    Instance& inst = instances_[index];
    if (inst.payload != nullptr) {
      --resident_;
    }
    inst = Instance{};  // dense index stays allocated (never reused)
  }

  // --- Sparse shims (cold paths: recovery, checkpointing, tests) ---

  bool Has(LogicalObjectId object) const {
    const DenseIndex index = objects_.Find(object);
    return index != kInvalidDenseIndex && HasDense(index);
  }

  // Installs or replaces the instance of `object` (pointer swap).
  void Put(LogicalObjectId object, Version version, std::unique_ptr<Payload> payload) {
    PutDense(Intern(object), version, std::move(payload));
  }

  const Payload* Get(LogicalObjectId object) const {
    return GetDense(ExistingIndex(object));
  }

  Version version(LogicalObjectId object) const { return VersionDense(ExistingIndex(object)); }

  void Erase(LogicalObjectId object) {
    const DenseIndex index = objects_.Find(object);
    if (index != kInvalidDenseIndex) {
      EraseDense(index);
    }
  }

  void Clear() {
    for (Instance& inst : instances_) {
      inst = Instance{};
    }
    resident_ = 0;
  }

  std::size_t size() const { return resident_; }

 private:
  DenseIndex ExistingIndex(LogicalObjectId object) const {
    const DenseIndex index = objects_.Find(object);
    NIMBUS_CHECK(index != kInvalidDenseIndex) << "object not resident: " << object;
    return index;
  }

  Interner<LogicalObjectId> objects_;
  DenseMap<Instance> instances_;  // by dense object id; empty payload == not resident
  std::size_t resident_ = 0;
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_DATA_OBJECT_STORE_H_
