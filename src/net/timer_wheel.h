// Timer facility for the failure-detection layer (DESIGN.md §14).
//
// The control plane needs timers in two clock domains. Under the simulator, heartbeat
// periods and suspicion timeouts are virtual nanoseconds on the node's `sim::Simulation`
// event queue, so every existing test stays deterministic. Under the TCP backend the
// per-node simulations only drain while a delivery is being handled — a self-rescheduling
// virtual timer would either never fire or spin the drain forever — so timers must be real:
// a timerfd in `TcpEndpoint`'s epoll loop, fed by the slotted wheel below.
//
// `TimerQueue` is the seam both domains implement. Controller and worker schedule
// heartbeats and liveness checks against it and never know which clock is underneath;
// `SimTimerQueue` is the virtual implementation, and `TcpClusterRuntime` provides a
// wheel-backed one per node (src/driver/cluster_tcp.h).
//
// `TimerWheel` itself is clock-agnostic and single-threaded by contract: callers pass
// absolute nanosecond timestamps (virtual time or CLOCK_MONOTONIC) and serialize access
// externally (TcpEndpoint holds its timer mutex). Entries fire in (tick, insertion-seq)
// order, mirroring the simulation's tie-breaking rule, so wheel-driven schedules are as
// reproducible as sim-driven ones at tick granularity.

#ifndef NIMBUS_SRC_NET_TIMER_WHEEL_H_
#define NIMBUS_SRC_NET_TIMER_WHEEL_H_

#include <cstdint>
#include <functional>
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

// Virtual-clock TimerQueue over a node's simulation event queue. Scheduling maps directly
// onto `Simulation::ScheduleAfter`, so sim-driven heartbeats interleave with deliveries
// exactly as before the seam existed.
class SimTimerQueue : public TimerQueue {
 public:
  explicit SimTimerQueue(sim::Simulation* simulation) : simulation_(simulation) {}

  void Schedule(sim::Duration delay, std::function<void()> fn) override;
  sim::TimePoint Now() const override;

 private:
  sim::Simulation* simulation_;
};

// Deterministic slotted timer wheel. Deadlines round *up* to the tick resolution (a timer
// may fire up to one tick late, never early), and entries sharing a tick fire in insertion
// order. Not thread-safe; the owner serializes access.
class TimerWheel {
 public:
  // `tick` is the wheel resolution; `slots` the wheel circumference. Entries further out
  // than slots*tick simply stay in their slot for extra revolutions (tick equality is
  // checked at expiry), so the circumference only affects collision rates.
  explicit TimerWheel(sim::Duration tick = sim::Millis(1), std::size_t slots = 256);

  // Schedules `fn` at absolute time `now + delay`. `now` must be monotonically
  // non-decreasing across calls (same clock PopDue receives).
  void Schedule(sim::TimePoint now, sim::Duration delay, std::function<void()> fn);

  // Earliest time a pending entry becomes due (tick-aligned), or kNever if none. This is
  // what the TCP backend arms its timerfd to.
  sim::TimePoint NextDeadline() const;

  // Removes and returns every callback due at or before `now`, in firing order.
  std::vector<std::function<void()>> PopDue(sim::TimePoint now);

  std::size_t pending() const { return pending_; }

  static constexpr sim::TimePoint kNever = INT64_MAX;

 private:
  struct Entry {
    std::uint64_t tick = 0;  // absolute tick index this entry fires at
    std::uint64_t seq = 0;   // insertion order, the same-tick tie break
    std::function<void()> fn;
  };

  std::uint64_t TickFor(sim::TimePoint deadline) const;

  sim::Duration tick_;
  std::vector<std::vector<Entry>> slots_;
  bool started_ = false;
  std::uint64_t cursor_ = 0;  // last tick fully drained by PopDue
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
};

}  // namespace net
}  // namespace nimbus

#endif  // NIMBUS_SRC_NET_TIMER_WHEEL_H_
