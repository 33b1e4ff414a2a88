// Strong identifier types used across the Nimbus control plane.
//
// The control plane manipulates many kinds of small integer identifiers (tasks, commands,
// workers, data objects, templates...). Mixing them up is an easy and disastrous bug, so each
// kind gets its own non-convertible wrapper type.

#ifndef NIMBUS_SRC_COMMON_IDS_H_
#define NIMBUS_SRC_COMMON_IDS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>

namespace nimbus {

// A non-convertible integral identifier. `Tag` distinguishes unrelated id spaces at compile
// time; the underlying representation is always 64-bit.
template <typename Tag>
class StrongId {
 public:
  using underlying_type = std::uint64_t;

  static constexpr underlying_type kInvalidValue = ~underlying_type{0};

  constexpr StrongId() = default;
  constexpr explicit StrongId(underlying_type value) : value_(value) {}

  static constexpr StrongId Invalid() { return StrongId(kInvalidValue); }

  constexpr underlying_type value() const { return value_; }
  constexpr bool valid() const { return value_ != kInvalidValue; }

  friend constexpr bool operator==(StrongId a, StrongId b) { return a.value_ == b.value_; }
  friend constexpr bool operator!=(StrongId a, StrongId b) { return a.value_ != b.value_; }
  friend constexpr bool operator<(StrongId a, StrongId b) { return a.value_ < b.value_; }
  friend constexpr bool operator<=(StrongId a, StrongId b) { return a.value_ <= b.value_; }
  friend constexpr bool operator>(StrongId a, StrongId b) { return a.value_ > b.value_; }
  friend constexpr bool operator>=(StrongId a, StrongId b) { return a.value_ >= b.value_; }

  friend std::ostream& operator<<(std::ostream& os, StrongId id) {
    if (!id.valid()) {
      return os << "<invalid>";
    }
    return os << id.value_;
  }

 private:
  underlying_type value_ = kInvalidValue;
};

// Identifier of one application task (one instantiation of a function over a partition).
// Task ids are fresh on every iteration; they are template *parameters*, not structure.
using TaskId = StrongId<struct TaskIdTag>;

// Identifier of one control-plane command (task / copy / data / file command). Commands are
// the unit the controller sends to workers; every task command wraps exactly one task.
using CommandId = StrongId<struct CommandIdTag>;

// Identifier of a worker node.
using WorkerId = StrongId<struct WorkerIdTag>;

// Identifier of a logical data object: one partition of one application variable. Logical
// objects are mutable and versioned; several workers may hold physical instances.
using LogicalObjectId = StrongId<struct LogicalObjectIdTag>;

// Identifier of an application variable (a partitioned data set, e.g. "coeff", "tdata").
using VariableId = StrongId<struct VariableIdTag>;

// Identifier of an executable application function registered with the workers.
using FunctionId = StrongId<struct FunctionIdTag>;

// Identifier of a controller template (a cached basic block at the driver-controller level).
using TemplateId = StrongId<struct TemplateIdTag>;

// Identifier of a worker template (the per-schedule projection of a controller template).
using WorkerTemplateId = StrongId<struct WorkerTemplateIdTag>;

// Identifier matching a copy-send command with its copy-receive counterpart across workers.
using CopyId = StrongId<struct CopyIdTag>;

// Identifier of one cached patch (a reusable block of precondition-fixing copies).
using PatchId = StrongId<struct PatchIdTag>;

// Identifier of one checkpoint snapshot.
using CheckpointId = StrongId<struct CheckpointIdTag>;

// Monotonic version number of a logical data object (see DESIGN.md §3.3 / paper §3.3).
using Version = std::uint64_t;

// A small monotonically increasing id allocator.
template <typename Id>
class IdAllocator {
 public:
  constexpr IdAllocator() = default;
  constexpr explicit IdAllocator(typename Id::underlying_type first) : next_(first) {}

  Id Next() { return Id(next_++); }

  // Reserves `count` consecutive ids and returns the first.
  Id NextRange(std::uint64_t count) {
    Id first(next_);
    next_ += count;
    return first;
  }

 private:
  typename Id::underlying_type next_ = 0;
};

}  // namespace nimbus

namespace std {

template <typename Tag>
struct hash<nimbus::StrongId<Tag>> {
  size_t operator()(nimbus::StrongId<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};

}  // namespace std

#endif  // NIMBUS_SRC_COMMON_IDS_H_
