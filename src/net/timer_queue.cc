#include "src/net/timer_queue.h"

#include <utility>

#include "src/common/logging.h"
#include "src/sim/simulation.h"

namespace nimbus::net {

void SimTimerQueue::Schedule(sim::Duration delay, std::function<void()> fn) {
  simulation_->ScheduleAfter(delay, std::move(fn));
}

sim::TimePoint SimTimerQueue::Now() const { return simulation_->now(); }

void TimerHeap::Schedule(sim::TimePoint now, sim::Duration delay, std::function<void()> fn) {
  NIMBUS_CHECK_GE(delay, 0);
  heap_.push(Entry{now + delay, next_seq_++, std::move(fn)});
}

sim::TimePoint TimerHeap::NextDeadline() const {
  return heap_.empty() ? kNever : heap_.top().deadline;
}

std::vector<std::function<void()>> TimerHeap::PopDue(sim::TimePoint now) {
  std::vector<std::function<void()>> due;
  while (!heap_.empty() && heap_.top().deadline <= now) {
    // top() is const; moving the callback out is safe because the entry is popped next and
    // the heap order depends only on (deadline, seq).
    due.push_back(std::move(const_cast<Entry&>(heap_.top()).fn));
    heap_.pop();
  }
  return due;
}

}  // namespace nimbus::net
