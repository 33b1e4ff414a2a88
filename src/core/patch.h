// Patches: precondition-fixing copy directives, and the patch cache (paper §2.4, §4.2).
//
// When a worker template is instantiated after *different* preceding control flow, some of
// its preconditions may not hold (e.g. the first entry into an inner loop: `param` exists
// only on the worker that computed it). The controller patches system state by directing
// copies of the latest versions to where the template expects them.
//
// Computing a patch requires checking every precondition against the version map, which is
// sequential controller overhead. Because dynamic control flow is typically narrow, the
// controller caches patches keyed by (what executed before, which template is entered).
// Each cache entry additionally records the version-map churn epoch and the entering set's
// edit generation it was stored under, plus the directives compiled to dense ids: a reuse
// candidate is confirmed with O(directives) array probes — no hashing (DESIGN.md §6.7).
// The cache is capped; the oldest entry by last use is evicted, and hit/miss/eviction
// counters are exported.

#ifndef NIMBUS_SRC_CORE_PATCH_H_
#define NIMBUS_SRC_CORE_PATCH_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/dense_id.h"
#include "src/common/hash.h"
#include "src/common/ids.h"
#include "src/common/stats.h"
#include "src/data/version_map.h"

namespace nimbus::core {

struct PatchDirective {
  LogicalObjectId object;
  WorkerId src;
  WorkerId dst;
  std::int64_t bytes = 0;
};

struct Patch {
  std::vector<PatchDirective> directives;

  bool empty() const { return directives.empty(); }
  std::size_t size() const { return directives.size(); }
};

// Key: which worker-template (or kEntryFromOutside) executed immediately before, and which
// worker-template is being entered.
class PatchCache {
 public:
  static constexpr std::uint64_t kEntryFromOutside = ~std::uint64_t{0};
  static constexpr std::size_t kDefaultCapacity = 1024;

  // Stores the patch for the (prev, entering) transition, stamped with the version-map
  // churn epoch and set edit generation it was computed under. Directives are compiled to
  // `versions`' dense id space so later reuse checks are pure array probes.
  void Store(std::uint64_t prev, WorkerTemplateId entering, Patch patch,
             std::uint64_t set_generation, const VersionMap& versions) {
    auto [it, inserted] = cache_.try_emplace(Key{prev, entering});
    Entry& entry = it->second;
    if (inserted) {
      lru_.push_front(it->first);
      entry.lru_pos = lru_.begin();
      while (cache_.size() > capacity_) {  // loop: SetCapacity may have shrunk the cap
        EvictOldest();
      }
    } else {
      Touch(entry);
    }
    entry.map_uid = versions.uid();
    entry.churn_epoch = versions.churn_epoch();
    entry.set_generation = set_generation;
    entry.dense.clear();
    entry.dense.reserve(patch.directives.size());
    for (const PatchDirective& d : patch.directives) {
      entry.dense.push_back(DenseDirective{versions.InternObject(d.object),
                                           versions.InternWorker(d.src)});
    }
    entry.patch = std::move(patch);
  }

  // Returns the cached patch for the transition iff it is provably still correct:
  //  * stored under the same version-map id space, churn epoch, and set edit generation;
  //  * its directives cover exactly the currently-failing preconditions (`required` and the
  //    stored patch are both (object, dst)-sorted, so this is one linear merge);
  //  * every directive's source still holds the latest version (dense array probes).
  // Returns nullptr otherwise — the caller recomputes and re-stores.
  const Patch* Reusable(std::uint64_t prev, WorkerTemplateId entering,
                        const std::vector<PatchDirective>& required,
                        std::uint64_t set_generation, const VersionMap& versions) {
    auto it = cache_.find(Key{prev, entering});
    if (it == cache_.end()) {
      return nullptr;
    }
    Entry& entry = it->second;
    if (entry.map_uid != versions.uid() || entry.churn_epoch != versions.churn_epoch() ||
        entry.set_generation != set_generation ||
        entry.patch.directives.size() != required.size()) {
      return nullptr;
    }
    for (std::size_t i = 0; i < required.size(); ++i) {
      const PatchDirective& have = entry.patch.directives[i];
      if (have.object != required[i].object || have.dst != required[i].dst) {
        return nullptr;
      }
      if (!versions.WorkerHasLatestDense(entry.dense[i].object, entry.dense[i].src)) {
        return nullptr;
      }
    }
    Touch(entry);
    return &entry.patch;
  }

  std::size_t size() const { return cache_.size(); }
  std::size_t capacity() const { return capacity_; }
  void SetCapacity(std::size_t capacity) { capacity_ = capacity == 0 ? 1 : capacity; }

  const CacheCounters& counters() const { return counters_; }
  std::uint64_t hits() const { return counters_.hits; }
  std::uint64_t misses() const { return counters_.misses; }
  std::uint64_t evictions() const { return counters_.evictions; }
  void RecordHit() { ++counters_.hits; }
  void RecordMiss() { ++counters_.misses; }

  void Clear() {
    cache_.clear();
    lru_.clear();
    counters_.Clear();
  }

 private:
  // Full (prev, entering) pair: folding the two into one uint64 could alias distinct
  // transitions onto one slot (spurious evictions; correctness would still be shielded by
  // the reuse checks, but the hit rate is a tracked metric).
  struct Key {
    std::uint64_t prev = 0;
    WorkerTemplateId entering;

    friend bool operator==(const Key& a, const Key& b) {
      return a.prev == b.prev && a.entering == b.entering;
    }
  };

  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return HashCombine(std::hash<std::uint64_t>{}(key.prev),
                         std::hash<WorkerTemplateId>{}(key.entering));
    }
  };

  // Directive endpoints in the version map's dense id space, for hash-free source checks.
  struct DenseDirective {
    DenseIndex object = kInvalidDenseIndex;
    DenseIndex src = kInvalidDenseIndex;
  };

  struct Entry {
    Patch patch;                        // sorted by (object, dst), like Validate's output
    std::vector<DenseDirective> dense;  // parallel to patch.directives
    std::uint64_t map_uid = 0;
    std::uint64_t churn_epoch = 0;
    std::uint64_t set_generation = 0;
    std::list<Key>::iterator lru_pos;   // position in lru_ (most-recent at front)
  };

  void Touch(Entry& entry) { lru_.splice(lru_.begin(), lru_, entry.lru_pos); }

  void EvictOldest() {
    NIMBUS_CHECK(!lru_.empty());
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++counters_.evictions;
  }

  // lint:allow(hot-map) -- bounded LRU probed once per block, not per task; the list
  // iterators stored in entries need the stable addressing a node-based map provides
  std::unordered_map<Key, Entry, KeyHash> cache_;
  std::list<Key> lru_;  // recency order; entries hold their own position
  std::size_t capacity_ = kDefaultCapacity;
  CacheCounters counters_;
};

}  // namespace nimbus::core

#endif  // NIMBUS_SRC_CORE_PATCH_H_
