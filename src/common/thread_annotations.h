// Clang thread-safety-analysis annotations (DESIGN.md §11).
//
// The concurrency contract — serial control-plane and worker phases, the mutexes that
// guard cross-thread state — is modeled as *capabilities* so the clang CI leg can
// machine-check it with `-Wthread-safety -Werror=thread-safety`:
//
//  * a real mutex (`Mutex`) is a capability acquired by locking;
//  * a `RoleCapability` is a phantom capability with no runtime state: it names a phase
//    ("the controller's serial control plane", "a worker's control phase") and is
//    *asserted* at the entry points that are, by construction, only reached in that phase.
//    Members `GUARDED_BY` a role can then only be touched from code that asserted or
//    `REQUIRES` the role — code outside the phase that reaches for its state fails to
//    compile instead of racing.
//
// Everything expands to nothing on compilers without the attributes (GCC), so the
// annotations are free outside the clang leg. Macro shapes follow the documented clang
// attribute names (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).

#ifndef NIMBUS_SRC_COMMON_THREAD_ANNOTATIONS_H_
#define NIMBUS_SRC_COMMON_THREAD_ANNOTATIONS_H_

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define NIMBUS_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef NIMBUS_THREAD_ANNOTATION__
#define NIMBUS_THREAD_ANNOTATION__(x)  // not clang: annotations compile away
#endif

#define NIMBUS_CAPABILITY(x) NIMBUS_THREAD_ANNOTATION__(capability(x))
#define NIMBUS_SCOPED_CAPABILITY NIMBUS_THREAD_ANNOTATION__(scoped_lockable)
#define NIMBUS_GUARDED_BY(x) NIMBUS_THREAD_ANNOTATION__(guarded_by(x))
#define NIMBUS_PT_GUARDED_BY(x) NIMBUS_THREAD_ANNOTATION__(pt_guarded_by(x))
#define NIMBUS_REQUIRES(...) \
  NIMBUS_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define NIMBUS_REQUIRES_SHARED(...) \
  NIMBUS_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#define NIMBUS_ACQUIRE(...) NIMBUS_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define NIMBUS_ACQUIRE_SHARED(...) \
  NIMBUS_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define NIMBUS_RELEASE(...) NIMBUS_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define NIMBUS_RELEASE_SHARED(...) \
  NIMBUS_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define NIMBUS_TRY_ACQUIRE(...) \
  NIMBUS_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define NIMBUS_EXCLUDES(...) NIMBUS_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define NIMBUS_ASSERT_CAPABILITY(...) \
  NIMBUS_THREAD_ANNOTATION__(assert_capability(__VA_ARGS__))
#define NIMBUS_ASSERT_SHARED_CAPABILITY(...) \
  NIMBUS_THREAD_ANNOTATION__(assert_shared_capability(__VA_ARGS__))
#define NIMBUS_RETURN_CAPABILITY(x) NIMBUS_THREAD_ANNOTATION__(lock_returned(x))
#define NIMBUS_NO_THREAD_SAFETY_ANALYSIS \
  NIMBUS_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace nimbus {

// std::mutex carries no thread-safety attributes in libstdc++, so code that wants the
// analysis wraps one. BasicLockable-compatible (lower-case lock/unlock) so a
// std::condition_variable_any can wait on it directly.
class NIMBUS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() NIMBUS_ACQUIRE() { mu_.lock(); }
  void unlock() NIMBUS_RELEASE() { mu_.unlock(); }
  bool try_lock() NIMBUS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// RAII lock for Mutex, visible to the analysis as a scoped capability.
class NIMBUS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) NIMBUS_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() NIMBUS_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

// A phase/role token with no runtime state. Declared next to the state it guards; code
// that runs in the phase (simulation callbacks, node handlers) asserts it at
// entry, and internal helpers document the contract with NIMBUS_REQUIRES(role). Assert()
// compiles to nothing — the enforcement is entirely in the clang analysis, which refuses
// guarded accesses from code that neither asserted nor requires the role.
class NIMBUS_CAPABILITY("role") RoleCapability {
 public:
  RoleCapability() = default;
  RoleCapability(const RoleCapability&) = delete;
  RoleCapability& operator=(const RoleCapability&) = delete;

  void Assert() const NIMBUS_ASSERT_CAPABILITY() {}
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_COMMON_THREAD_ANNOTATIONS_H_
