// Timer facility for the failure-detection layer (DESIGN.md §14).
//
// The control plane needs timers in two clock domains. Under the simulator, heartbeat
// periods and suspicion timeouts are virtual nanoseconds on the shared `sim::Simulation`
// event queue, so every existing test stays deterministic. Under the TCP backend nodes run
// on real time and have no event queue at all, so timers must be real: a timerfd in
// `TcpEndpoint`'s epoll loop, armed from the deadline heap below.
//
// `TimerQueue` is the seam both domains implement. Controller and worker schedule
// heartbeats, liveness checks and the recovery delay against it and never know which clock
// is underneath; `SimTimerQueue` is the virtual implementation, and `TcpClusterRuntime`
// provides a heap-backed one per node (src/driver/cluster_tcp.h).
//
// `TimerHeap` itself is clock-agnostic and single-threaded by contract: callers pass
// absolute nanosecond timestamps (virtual time or CLOCK_MONOTONIC) and serialize access
// externally (TcpEndpoint holds its timer mutex). Entries fire at their exact deadline,
// never early, in (deadline, insertion-seq) order — the simulation's tie-breaking rule.

#ifndef NIMBUS_SRC_NET_TIMER_QUEUE_H_
#define NIMBUS_SRC_NET_TIMER_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/sim/virtual_time.h"

namespace nimbus {
namespace sim {
class Simulation;
}  // namespace sim

namespace net {

// Abstract timer seam. `Schedule` runs `fn` once, `delay` after now. `Now` reports the
// queue's clock (virtual ns or CLOCK_MONOTONIC ns) so liveness deadlines can be computed
// in the same domain the timers fire in.
class TimerQueue {
 public:
  virtual ~TimerQueue() = default;

  virtual void Schedule(sim::Duration delay, std::function<void()> fn) = 0;
  virtual sim::TimePoint Now() const = 0;
};

// Virtual-clock TimerQueue over a simulation event queue. Scheduling maps directly onto
// `Simulation::ScheduleAfter`, so sim-driven timers interleave with deliveries exactly as
// before the seam existed.
class SimTimerQueue : public TimerQueue {
 public:
  explicit SimTimerQueue(sim::Simulation* simulation) : simulation_(simulation) {}

  void Schedule(sim::Duration delay, std::function<void()> fn) override;
  sim::TimePoint Now() const override;

 private:
  sim::Simulation* simulation_;
};

// Min-heap of (deadline, insertion seq). Not thread-safe; the owner serializes access.
class TimerHeap {
 public:
  // Schedules `fn` at absolute time `now + delay`.
  void Schedule(sim::TimePoint now, sim::Duration delay, std::function<void()> fn);

  // Earliest pending deadline, or kNever if none. This is what the TCP backend arms its
  // timerfd to.
  sim::TimePoint NextDeadline() const;

  // Removes and returns every callback due at or before `now`, in firing order.
  std::vector<std::function<void()>> PopDue(sim::TimePoint now);

  std::size_t pending() const { return heap_.size(); }

  static constexpr sim::TimePoint kNever = INT64_MAX;

 private:
  struct Entry {
    sim::TimePoint deadline = 0;
    std::uint64_t seq = 0;  // insertion order, the same-deadline tie break
    std::function<void()> fn;

    // std::priority_queue is a max-heap; invert so the earliest entry is on top.
    bool operator<(const Entry& other) const {
      return deadline != other.deadline ? deadline > other.deadline : seq > other.seq;
    }
  };

  std::priority_queue<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace net
}  // namespace nimbus

#endif  // NIMBUS_SRC_NET_TIMER_QUEUE_H_
