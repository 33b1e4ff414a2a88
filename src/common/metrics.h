// Central metrics registry (DESIGN.md §12.2).
//
// The repo's counter structs (src/common/stats.h) stay plain structs bumped inline on the
// hot paths — the registry never sits between an increment and its field. What it adds is a
// uniform export surface: a counter struct registers once (self-describing its group name
// and field list through VisitFields), gets an interned dense group id, and from then on
// snapshots, deltas and JSON export read every registered field by name without the caller
// hand-plucking struct members. Benches and tests consume named values; adding a field to a
// counter struct automatically adds it to every report.
//
// String interning happens only at registration and name lookup — both cold paths. Snapshot
// reads walk dense vectors in registration order.

#ifndef NIMBUS_SRC_COMMON_METRICS_H_
#define NIMBUS_SRC_COMMON_METRICS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace nimbus::metrics {

// String -> dense-id table, the string analogue of common/dense_id.h's Interner. Interning
// and Find hash the string (cold paths: registration, test lookups); Name() is an indexed
// load.
class NameInterner {
 public:
  std::uint32_t Intern(std::string_view name);

  // Returns the id for `name`, or kNotFound.
  static constexpr std::uint32_t kNotFound = ~std::uint32_t{0};
  std::uint32_t Find(std::string_view name) const;

  const std::string& Name(std::uint32_t id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }
  bool empty() const { return names_.empty(); }
  void Clear();

 private:
  std::unordered_map<std::string, std::uint32_t> index_;
  std::vector<std::string> names_;
};

// A point-in-time reading of every registered field, index-aligned with the registry's
// field table. Obtain via Registry::Take(); combine with Registry::Delta().
struct Snapshot {
  std::vector<std::uint64_t> values;
};

class Registry {
 public:
  // Field visitor: called once per (field name, current value) pair.
  using FieldFn = std::function<void(const char* field, std::uint64_t value)>;
  // A group's visit hook: calls the visitor for each field, same order every time.
  using VisitFn = std::function<void(const FieldFn& visit)>;

  // Registers a self-describing counter struct (kGroupName + VisitFields, see stats.h).
  // The registry borrows `counters`; the caller keeps it alive. Returns the group's dense
  // id.
  template <typename C>
  std::uint32_t Register(const C* counters) {
    return RegisterGroup(C::kGroupName,
                         [counters](const FieldFn& visit) { counters->VisitFields(visit); });
  }

  // Low-level registration for sources that are not counter structs. The field list is
  // captured from the first visit and must not change afterwards (checked at Take()).
  std::uint32_t RegisterGroup(std::string_view group, VisitFn visit);

  std::size_t group_count() const { return groups_.size(); }
  std::size_t field_count() const { return field_names_.size(); }

  // Reads every registered field.
  Snapshot Take() const;

  // Element-wise `after - before` (both must come from this registry's current shape).
  static Snapshot Delta(const Snapshot& before, const Snapshot& after);

  // Looks up `group.field` in `snap`; returns true and sets `*out` when the name exists.
  bool Value(const Snapshot& snap, std::string_view full_name, std::uint64_t* out) const;

  // Calls `fn(full_name, value)` for every field, registration order.
  void ForEach(const Snapshot& snap,
               const std::function<void(const std::string&, std::uint64_t)>& fn) const;

  // {"group":{"field":value,...},...} with groups and fields in registration order.
  std::string ToJson(const Snapshot& snap) const;

 private:
  struct Group {
    std::uint32_t name_id = 0;
    VisitFn visit;
    std::size_t first_field = 0;  // index into the flat field table
    std::size_t field_count = 0;
  };

  NameInterner group_names_;
  std::vector<Group> groups_;
  std::vector<std::string> field_names_;  // "group.field", flat, registration order
  NameInterner field_index_;              // full name -> snapshot index
};

}  // namespace nimbus::metrics

#endif  // NIMBUS_SRC_COMMON_METRICS_H_
