// Pluggable executors for the sharded instantiation engine (DESIGN.md §7).
//
// The pipeline decomposes instantiation work into batches of independent jobs (one per
// shard, or one per worker half). An Executor runs one batch and returns when every job has
// completed. Two implementations:
//
//  * InlineExecutor — runs jobs sequentially in index order on the calling thread. This is
//    the simulator's executor: the virtual-time simulation is single-threaded and
//    bit-reproducible, and every job batch the pipeline submits writes disjoint state, so
//    inline execution is observationally identical to any parallel schedule.
//  * ThreadPoolExecutor — a fixed pool of real threads draining a shared batch via an
//    atomic claim index (work sharing; a claim off the job's home thread counts as a
//    steal). Used by the Table 4 bench to measure shard scaling and by the equivalence
//    tests to race the engine under sanitizers.
//
// Jobs in one batch MUST be mutually independent (disjoint writes): the executor gives no
// ordering or exclusion guarantees within a batch. Run() is a barrier — state written by the
// batch is visible to the caller when it returns.
//
// Every pool job is timed with the thread CPU clock; ExecutorCounters accumulates total
// busy time and a per-batch critical path (max(longest job, busy/concurrency), the greedy
// lower bound). The inline executor reads the clock once per batch: on its one lane the
// batch's CPU is the jobs' summed busy time and is also the critical path. On a
// single-core container, wall time cannot show shard scaling, so the Table 4 bench
// reports modeled throughput from the critical path — see bench/table4.

#ifndef NIMBUS_SRC_RUNTIME_EXECUTOR_H_
#define NIMBUS_SRC_RUNTIME_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/stats.h"
#include "src/common/thread_annotations.h"

namespace nimbus::runtime {

// One job of a batch: invoked with the job's index in [0, count).
using JobFn = std::function<void(std::size_t)>;

class Executor {
 public:
  virtual ~Executor() = default;

  // Runs jobs 0..count-1, each exactly once, and returns when all have finished.
  virtual void Run(std::size_t count, const JobFn& fn) = 0;

  // How many jobs can make progress at once (1 for inline).
  virtual std::size_t concurrency() const = 0;

  virtual const char* name() const = 0;

  const ExecutorCounters& counters() const { return counters_; }
  void ClearCounters() { counters_.Clear(); }

 protected:
  // Reads the calling thread's CPU clock (not wall time: per-job busy must stay accurate
  // when threads outnumber cores and the scheduler timeslices them).
  static std::uint64_t ThreadNowNs();

  // Folds one finished batch of `jobs` into the counters: `busy_ns` is the jobs' summed
  // thread CPU, `longest_job_ns` the largest single job's. `wall_ns` is the caller-side
  // wall duration of the whole barrier.
  void AccountBatch(std::size_t jobs, std::uint64_t busy_ns, std::uint64_t longest_job_ns,
                    std::uint64_t steals, std::uint64_t wall_ns);

  ExecutorCounters counters_;
};

// Sequential, deterministic: jobs run in index order on the caller's thread. The simulator
// and all existing tests use this executor, preserving bit-reproducibility.
class InlineExecutor : public Executor {
 public:
  void Run(std::size_t count, const JobFn& fn) override;
  std::size_t concurrency() const override { return 1; }
  const char* name() const override { return "inline"; }
};

// Fixed pool of real threads. A batch is published under a mutex and drained via an atomic
// claim index; the submitting thread participates too (so a pool of N threads gives N+1-way
// concurrency and Run() never blocks idle on a busy machine). Job index i's home thread is
// i % (threads+1); a claim by any other thread is counted as a steal.
class ThreadPoolExecutor : public Executor {
 public:
  explicit ThreadPoolExecutor(std::size_t threads);
  ~ThreadPoolExecutor() override;

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  void Run(std::size_t count, const JobFn& fn) override;
  std::size_t concurrency() const override { return threads_.size() + 1; }
  const char* name() const override { return "thread-pool"; }

 private:
  // The batch currently being drained. Job slots are written by exactly one claimant each,
  // so the per-job arrays need no synchronization beyond the done_ count.
  struct Batch {
    const JobFn* fn = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::uint64_t> steals{0};
    std::vector<std::uint64_t> job_busy_ns;
    // Pool threads currently inside Drain. Guarded by the owning executor's mu_ (a nested
    // struct cannot name it in a GUARDED_BY, so this one is prose-guarded).
    int drainers = 0;
  };

  // Claims and runs jobs from `batch` until the claim index is exhausted.
  // `thread_index` identifies the claimant for steal accounting.
  void Drain(Batch* batch, std::size_t thread_index);
  void WorkerLoop(std::size_t thread_index);

  std::vector<std::thread> threads_;
  // The queue mutex is a capability (DESIGN.md §11): publication state below is
  // GUARDED_BY(mu_), so the clang leg rejects any new path that touches it unlocked.
  // condition_variable_any waits on the annotated Mutex directly.
  Mutex mu_;
  std::condition_variable_any work_ready_;
  std::condition_variable_any batch_done_;
  Batch* current_ NIMBUS_GUARDED_BY(mu_) = nullptr;  // published locked; drained lock-free
  std::uint64_t batch_epoch_ NIMBUS_GUARDED_BY(mu_) = 0;  // wakes workers once per batch
  bool stopping_ NIMBUS_GUARDED_BY(mu_) = false;
};

}  // namespace nimbus::runtime

#endif  // NIMBUS_SRC_RUNTIME_EXECUTOR_H_
