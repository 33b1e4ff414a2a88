// Dense ID interning: the control plane's "pointers into indexes" trick (paper §4.1).
//
// Sparse strong ids (LogicalObjectId, WorkerId, ...) are convenient at the API surface but
// hash-table lookups on every task dominate the instantiation hot path. An Interner assigns
// each sparse id a contiguous uint32 index at capture/registration time; hot-path state then
// lives in flat arrays indexed by those dense ids, so steady-state instantiation does no
// hashing and no allocation.
//
// Invariants:
//  * Dense indices are assigned in first-intern order, are contiguous from 0, and are NEVER
//    reused or remapped — destroying the underlying entity marks its slot dead but keeps the
//    index allocated. Compiled index caches therefore stay valid for the interner's lifetime.
//  * Interning is memoized resolution, not observable state: holders may intern through a
//    const reference (see VersionMap's mutable interners).

#ifndef NIMBUS_SRC_COMMON_DENSE_ID_H_
#define NIMBUS_SRC_COMMON_DENSE_ID_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/common/logging.h"

namespace nimbus {

// A dense index into an Interner's id space.
using DenseIndex = std::uint32_t;
inline constexpr DenseIndex kInvalidDenseIndex = ~DenseIndex{0};

// Maps sparse strong ids of one tag to contiguous uint32 indices. The hash map is touched
// only when interning or resolving a sparse id (cold paths); hot paths carry dense indices.
template <typename Id>
class Interner {
 public:
  // Returns `id`'s dense index, assigning the next contiguous one on first sight. A hit
  // allocates nothing: try_emplace looks the key up before it builds a node, where emplace
  // builds (and frees) one first.
  DenseIndex Intern(Id id) {
    auto [it, inserted] = index_.try_emplace(id, static_cast<DenseIndex>(reverse_.size()));
    if (inserted) {
      reverse_.push_back(id);
    }
    return it->second;
  }

  // Returns `id`'s dense index, or kInvalidDenseIndex if it was never interned.
  DenseIndex Find(Id id) const {
    auto it = index_.find(id);
    return it == index_.end() ? kInvalidDenseIndex : it->second;
  }

  // Dense index back to the sparse id.
  Id Resolve(DenseIndex index) const {
    NIMBUS_CHECK_LT(index, reverse_.size());
    return reverse_[index];
  }

  DenseIndex size() const { return static_cast<DenseIndex>(reverse_.size()); }
  bool empty() const { return reverse_.empty(); }

 private:
  std::unordered_map<Id, DenseIndex> index_;
  std::vector<Id> reverse_;  // dense index -> sparse id
};

// A vector-backed map keyed by dense index: O(1) access, no hashing. Grows on demand so it
// tracks an Interner that is still assigning indices.
template <typename T>
class DenseMap {
 public:
  // Grows the backing array so indices < `size` are valid (value-initialized).
  void EnsureSize(DenseIndex size) {
    if (values_.size() < size) {
      values_.resize(size);
    }
  }

  T& operator[](DenseIndex index) {
    NIMBUS_CHECK_LT(index, values_.size());
    return values_[index];
  }
  const T& operator[](DenseIndex index) const {
    NIMBUS_CHECK_LT(index, values_.size());
    return values_[index];
  }

  DenseIndex size() const { return static_cast<DenseIndex>(values_.size()); }
  auto begin() { return values_.begin(); }
  auto end() { return values_.end(); }
  auto begin() const { return values_.begin(); }
  auto end() const { return values_.end(); }

 private:
  std::vector<T> values_;
};

// Per-sequence state keyed by a monotonically increasing uint64 (group sequence numbers).
// Entries live in a deque addressed by (seq - base); sequences complete roughly in issue
// order, so the window stays small and lookups are O(1) with no hashing. A slot whose value
// is value-initialized counts as absent; Retire() compacts the done prefix.
template <typename T>
class SeqWindow {
 public:
  // Returns the slot for `seq`, growing the window as needed. `seq` must not precede the
  // retired prefix (sequence numbers are issued in increasing order).
  T& Slot(std::uint64_t seq) {
    NIMBUS_CHECK_GE(seq, base_) << "sequence re-registered after retirement";
    if (entries_.empty()) {
      base_ = seq;
    }
    const std::uint64_t offset = seq - base_;
    if (offset >= entries_.size()) {
      entries_.resize(static_cast<std::size_t>(offset) + 1);
    }
    return entries_[static_cast<std::size_t>(offset)];
  }

  // The slot for `seq`, or nullptr if it was never created or already retired.
  T* Find(std::uint64_t seq) {
    if (seq < base_ || seq - base_ >= entries_.size()) {
      return nullptr;
    }
    return &entries_[static_cast<std::size_t>(seq - base_)];
  }

  // Pops value-initialized (done/absent) slots from the front so the window tracks only
  // live sequences. Call after clearing a slot.
  void Retire() {
    while (!entries_.empty() && entries_.front() == T{}) {
      entries_.pop_front();
      ++base_;
    }
  }

  void Clear() {
    base_ += entries_.size();
    entries_.clear();
  }

  std::uint64_t base() const { return base_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  std::uint64_t base_ = 0;
  std::deque<T> entries_;
};

// A growable bitset over dense indices; one test/set is one word operation.
class IndexBitset {
 public:
  void EnsureSize(std::size_t bits) {
    const std::size_t words = (bits + 63) / 64;
    if (words_.size() < words) {
      words_.resize(words, 0);
    }
  }

  bool Test(std::size_t bit) const {
    const std::size_t word = bit / 64;
    return word < words_.size() && (words_[word] >> (bit % 64)) & 1u;
  }

  void Set(std::size_t bit) {
    EnsureSize(bit + 1);
    words_[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }

  void Reset(std::size_t bit) {
    const std::size_t word = bit / 64;
    if (word < words_.size()) {
      words_[word] &= ~(std::uint64_t{1} << (bit % 64));
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_COMMON_DENSE_ID_H_
