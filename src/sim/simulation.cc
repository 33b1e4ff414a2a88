#include "src/sim/simulation.h"

#include <utility>

namespace nimbus::sim {

TimePoint Simulation::RunUntil(TimePoint deadline) {
  while (!queue_.empty() && queue_.top().when <= deadline) {
    // Copy out the callback before popping: the callback may schedule new events, and
    // std::priority_queue::top() returns a const reference into the heap.
    Event event = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    NIMBUS_CHECK_GE(event.when, now_);
    now_ = event.when;
    event.fn();
  }
  if (queue_.empty() && deadline != kForever) {
    now_ = std::max(now_, deadline);
  }
  return now_;
}

bool Simulation::RunUntilCondition(const std::function<bool()>& predicate) {
  if (predicate()) {
    return true;
  }
  while (!queue_.empty()) {
    Event event = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = event.when;
    event.fn();
    if (predicate()) {
      return true;
    }
  }
  return false;
}

namespace internal {
namespace {
// `pending` keeps its capacity between cascades, so a steady-state drain allocates nothing
// beyond what the queued callbacks themselves capture.
thread_local std::vector<Simulation::Callback> t_pending;
thread_local bool t_draining = false;
}  // namespace

bool BeginInline() {
  if (t_draining) {
    return false;
  }
  t_draining = true;
  return true;
}

void QueueInline(Simulation::Callback fn) { t_pending.push_back(std::move(fn)); }

void FinishInline() {
  // Indexed, not iterated: a callback may append (and reallocate) while it runs.
  for (std::size_t i = 0; i < t_pending.size(); ++i) {
    Simulation::Callback next = std::move(t_pending[i]);
    next();
  }
  t_pending.clear();
  t_draining = false;
}
}  // namespace internal

}  // namespace nimbus::sim
