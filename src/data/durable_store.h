// Simulated durable storage (the checkpoint target, paper §4.4).
//
// Stands in for the distributed file system the paper's deployment writes checkpoints to.
// Writes deep-copy payloads; the write *time* is charged by the cost model at the call site.
// Shared by every node; under TCP each worker saves from its own thread, hence the lock.

#ifndef NIMBUS_SRC_DATA_DURABLE_STORE_H_
#define NIMBUS_SRC_DATA_DURABLE_STORE_H_

#include <memory>
#include <unordered_map>

#include "src/common/ids.h"
#include "src/common/logging.h"
#include "src/common/thread_annotations.h"
#include "src/data/payload.h"

namespace nimbus {

class DurableStore {
 public:
  struct Entry {
    Version version = 0;
    std::unique_ptr<Payload> payload;
  };

  void Write(LogicalObjectId object, Version version, const Payload& payload) {
    MutexLock lock(&mu_);
    Entry& e = entries_[object];
    e.version = version;
    e.payload = payload.Clone();
  }

  bool Has(LogicalObjectId object) const {
    MutexLock lock(&mu_);
    return entries_.count(object) > 0;
  }

  // Map nodes are stable and recovery reads only after the checkpoint's writes finish,
  // so the reference outlives the lock.
  const Entry& Read(LogicalObjectId object) const {
    MutexLock lock(&mu_);
    auto it = entries_.find(object);
    NIMBUS_CHECK(it != entries_.end()) << "object not in durable store: " << object;
    return it->second;
  }

  std::size_t size() const {
    MutexLock lock(&mu_);
    return entries_.size();
  }
  void Clear() {
    MutexLock lock(&mu_);
    entries_.clear();
  }

 private:
  mutable Mutex mu_;
  // lint:allow(hot-map) -- durable-store writes happen only on explicit checkpoint and
  // recovery reload, never in the steady-state iteration loop
  std::unordered_map<LogicalObjectId, Entry> entries_ NIMBUS_GUARDED_BY(mu_);
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_DATA_DURABLE_STORE_H_
