// Deterministic discrete-event simulation engine, and the node resources that run on it.
//
// A Simulation owns a priority queue of timed callbacks. Events scheduled for the same
// virtual time fire in insertion order (a monotonic sequence number breaks ties), which makes
// every run bit-reproducible. The engine is single-threaded by design: the paper's claims are
// about message counts and per-operation costs, both of which are modeled explicitly, so
// wall-clock parallelism would only add nondeterminism.
//
// Processor and CorePool are pure simulator resources (sim::Network, the Spark baseline and
// the node WorkMeter book time on them). A real-time node (the TCP backend, DESIGN.md §13.3)
// has none: its WorkMeter charges nothing and runs completions through RunInline.

#ifndef NIMBUS_SRC_SIM_SIMULATION_H_
#define NIMBUS_SRC_SIM_SIMULATION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/virtual_time.h"

namespace nimbus::sim {

class Simulation {
 public:
  using Callback = std::function<void()>;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimePoint now() const { return now_; }

  // Schedules `fn` to run at absolute virtual time `when` (clamped to now()).
  void ScheduleAt(TimePoint when, Callback fn) {
    if (when < now_) {
      when = now_;
    }
    queue_.push(Event{when, next_seq_++, std::move(fn)});
  }

  // Schedules `fn` to run `delay` after the current virtual time.
  void ScheduleAfter(Duration delay, Callback fn) {
    NIMBUS_CHECK_GE(delay, 0);
    ScheduleAt(now_ + delay, std::move(fn));
  }

  // Runs events until the queue is empty. Returns the final virtual time.
  TimePoint Run() { return RunUntil(kForever); }

  // Runs events with timestamps <= `deadline`. Later events stay queued.
  TimePoint RunUntil(TimePoint deadline);

  // Runs until `predicate` returns true (checked after every event) or the queue drains.
  // Returns true if the predicate was satisfied.
  bool RunUntilCondition(const std::function<bool()>& predicate);

  std::size_t pending_events() const { return queue_.size(); }

  static constexpr TimePoint kForever = INT64_MAX;

 private:
  struct Event {
    TimePoint when;
    std::uint64_t seq;
    Callback fn;

    // std::priority_queue is a max-heap; invert so the earliest event pops first.
    bool operator<(const Event& other) const {
      if (when != other.when) {
        return when > other.when;
      }
      return seq > other.seq;
    }
  };

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event> queue_;
};

namespace internal {
// RunInline's thread-local drain state (simulation.cc). BeginInline returns false when a
// RunInline further up this thread's stack is already draining; otherwise it marks this
// call as the drain. FinishInline runs the queued callbacks in FIFO order and ends it.
bool BeginInline();
void QueueInline(Simulation::Callback fn);
void FinishInline();
}  // namespace internal

// Runs `fn` now. If a RunInline call further up this thread's stack is still running, `fn`
// instead joins a thread-local FIFO that the outermost call drains before it returns. A
// completion cascade (task done -> successor launched -> its completion ...) therefore runs
// as a loop in submission order instead of recursing once per link of a dependency chain.
// Only a queued `fn` is boxed into a std::function; the outermost call runs it as it came.
template <typename F>
void RunInline(F&& fn) {
  if (!internal::BeginInline()) {
    internal::QueueInline(std::forward<F>(fn));
    return;
  }
  fn();
  internal::FinishInline();
}

// Models a serial execution resource (e.g. the controller's control-plane thread, a NIC
// transmit path). Work items are processed one at a time in submission order; the resource
// tracks when it next becomes free. This is what turns "166µs per task at the controller"
// into a pipeline bottleneck as task counts grow.
class Processor {
 public:
  explicit Processor(Simulation* simulation) : simulation_(simulation) {}

  // Submits `work` of the given duration. It starts when the resource is free (but not
  // before now()) and `done` (any callable) fires at completion. Returns the completion
  // time.
  template <typename Done>
  TimePoint Submit(Duration work, Done&& done) {
    const TimePoint finish = Charge(work);
    simulation_->ScheduleAt(finish, std::forward<Done>(done));
    return finish;
  }

  // Charges busy time without a completion callback (for accounting sequential costs) and
  // returns when it ends.
  TimePoint Charge(Duration work) {
    NIMBUS_CHECK_GE(work, 0);
    const TimePoint start = std::max(simulation_->now(), available_at_);
    available_at_ = start + work;
    busy_accum_ += work;
    return available_at_;
  }

  Duration total_busy() const { return busy_accum_; }

 private:
  Simulation* simulation_;
  TimePoint available_at_ = 0;
  Duration busy_accum_ = 0;
};

// Models a pool of identical cores (a worker's execution slots). Work-conserving: a submitted
// item starts on the earliest-available core.
class CorePool {
 public:
  CorePool(Simulation* simulation, int cores)
      : simulation_(simulation), available_(static_cast<std::size_t>(cores), 0) {
    NIMBUS_CHECK_GT(cores, 0);
  }

  template <typename Done>
  TimePoint Submit(Duration work, Done&& done) {
    NIMBUS_CHECK_GE(work, 0);
    const TimePoint finish = Occupy(work);
    simulation_->ScheduleAt(finish, std::forward<Done>(done));
    return finish;
  }

  int cores() const { return static_cast<int>(available_.size()); }
  Duration total_busy() const { return busy_accum_; }

 private:
  // Books `work` on the earliest-available core and returns when it ends.
  TimePoint Occupy(Duration work) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < available_.size(); ++i) {
      if (available_[i] < available_[best]) {
        best = i;
      }
    }
    const TimePoint start = std::max(simulation_->now(), available_[best]);
    available_[best] = start + work;
    busy_accum_ += work;
    return available_[best];
  }

  Simulation* simulation_;
  std::vector<TimePoint> available_;
  Duration busy_accum_ = 0;
};

}  // namespace nimbus::sim

#endif  // NIMBUS_SRC_SIM_SIMULATION_H_
