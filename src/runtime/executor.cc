#include "src/runtime/executor.h"

#include <time.h>

#include <algorithm>
#include <chrono>

#include "src/common/logging.h"

namespace nimbus::runtime {

std::uint64_t Executor::ThreadNowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void Executor::AccountBatch(std::size_t jobs, std::uint64_t busy_ns,
                            std::uint64_t longest_job_ns, std::uint64_t steals,
                            std::uint64_t wall_ns) {
  counters_.jobs_run += jobs;
  counters_.batches += 1;
  counters_.steals += steals;
  counters_.busy_ns += busy_ns;
  // Greedy-schedule lower bound for this batch on `concurrency()` lanes.
  counters_.critical_path_ns +=
      std::max(longest_job_ns, busy_ns / static_cast<std::uint64_t>(concurrency()));
  counters_.wall_ns += wall_ns;
}

namespace {
std::uint64_t WallNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

// -----------------------------------------------------------------------------------------
// InlineExecutor
// -----------------------------------------------------------------------------------------

void InlineExecutor::Run(std::size_t count, const JobFn& fn) {
  // One thread-clock read around the whole batch, not two per job: on one lane the jobs'
  // CPU sums to the batch's, and the batch is its own critical path (busy == longest).
  const std::uint64_t wall_start = WallNowNs();
  const std::uint64_t start = ThreadNowNs();
  for (std::size_t i = 0; i < count; ++i) {
    fn(i);
  }
  const std::uint64_t busy = ThreadNowNs() - start;
  AccountBatch(count, busy, busy, /*steals=*/0, WallNowNs() - wall_start);
}

// -----------------------------------------------------------------------------------------
// ThreadPoolExecutor
// -----------------------------------------------------------------------------------------

ThreadPoolExecutor::ThreadPoolExecutor(std::size_t threads) {
  NIMBUS_CHECK_GT(threads, 0u);
  threads_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    // Pool thread t drains as claimant lane t; the submitting thread claims as the last
    // lane (see Run).
    threads_.emplace_back([this, t]() { WorkerLoop(t); });
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ThreadPoolExecutor::Drain(Batch* batch, std::size_t thread_index) {
  const std::size_t lanes = concurrency();
  for (;;) {
    const std::size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch->count) {
      return;
    }
    if (i % lanes != thread_index) {
      batch->steals.fetch_add(1, std::memory_order_relaxed);
    }
    const std::uint64_t start = ThreadNowNs();
    (*batch->fn)(i);
    batch->job_busy_ns[i] = ThreadNowNs() - start;
    if (batch->done.fetch_add(1, std::memory_order_acq_rel) + 1 == batch->count) {
      // Lock before notifying: without it the submitter can check the predicate, miss this
      // notification, and sleep forever (classic lost wakeup).
      MutexLock lock(&mu_);
      batch_done_.notify_all();
    }
  }
}

void ThreadPoolExecutor::WorkerLoop(std::size_t thread_index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      MutexLock lock(&mu_);
      // Hand-rolled predicate loop (not the wait-with-predicate overload): the predicate
      // reads GUARDED_BY(mu_) state, and the analysis can only see the capability held
      // here, in this function's scope — a lambda would be analyzed lock-free.
      while (!stopping_ && batch_epoch_ == seen_epoch) {
        work_ready_.wait(mu_);
      }
      if (stopping_) {
        return;
      }
      seen_epoch = batch_epoch_;
      batch = current_;
      if (batch != nullptr) {
        // Registered under the lock: Run() cannot retire the batch while this thread holds
        // a pointer into it (the batch lives on Run's stack).
        ++batch->drainers;
      }
    }
    if (batch != nullptr) {
      Drain(batch, thread_index);
      MutexLock lock(&mu_);
      --batch->drainers;
      batch_done_.notify_all();
    }
  }
}

void ThreadPoolExecutor::Run(std::size_t count, const JobFn& fn) {
  if (count == 0) {
    return;
  }
  const std::uint64_t wall_start = WallNowNs();
  if (count == 1) {
    // A single job cannot parallelize: run it on the caller and skip the wakeup round
    // trip entirely (a 1-shard engine on a pool must behave like the serial engine).
    const std::uint64_t start = ThreadNowNs();
    fn(0);
    const std::uint64_t busy = ThreadNowNs() - start;
    AccountBatch(1, busy, busy, /*steals=*/0, WallNowNs() - wall_start);
    return;
  }
  Batch batch;
  batch.fn = &fn;
  batch.count = count;
  batch.job_busy_ns.assign(count, 0);
  {
    MutexLock lock(&mu_);
    current_ = &batch;
    ++batch_epoch_;
  }
  work_ready_.notify_all();
  // The submitting thread claims as the last lane, so a 1-core container still makes
  // progress while pool threads wait for timeslices.
  Drain(&batch, threads_.size());
  {
    MutexLock lock(&mu_);
    while (batch.done.load(std::memory_order_acquire) != batch.count ||
           batch.drainers != 0) {
      batch_done_.wait(mu_);
    }
    // Un-publish before the batch leaves scope: late-waking workers must find nullptr.
    current_ = nullptr;
  }
  std::uint64_t busy = 0;
  std::uint64_t longest = 0;
  for (std::uint64_t ns : batch.job_busy_ns) {
    busy += ns;
    longest = std::max(longest, ns);
  }
  AccountBatch(count, busy, longest, batch.steals.load(std::memory_order_relaxed),
               WallNowNs() - wall_start);
}

}  // namespace nimbus::runtime
