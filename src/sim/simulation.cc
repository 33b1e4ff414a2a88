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
    ++executed_;
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
    ++executed_;
    event.fn();
    if (predicate()) {
      return true;
    }
  }
  return false;
}

void RunInline(Simulation::Callback fn) {
  // `pending` keeps its capacity between cascades, so a steady-state drain allocates
  // nothing beyond what the callbacks themselves capture.
  thread_local std::vector<Simulation::Callback> pending;
  thread_local bool draining = false;
  if (draining) {
    pending.push_back(std::move(fn));
    return;
  }
  draining = true;
  fn();
  // Indexed, not iterated: a callback may append (and reallocate) while it runs.
  for (std::size_t i = 0; i < pending.size(); ++i) {
    Simulation::Callback next = std::move(pending[i]);
    next();
  }
  pending.clear();
  draining = false;
}

}  // namespace nimbus::sim
