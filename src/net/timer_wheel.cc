#include "src/net/timer_wheel.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/sim/simulation.h"

namespace nimbus::net {

void SimTimerQueue::Schedule(sim::Duration delay, std::function<void()> fn) {
  simulation_->ScheduleAfter(delay, std::move(fn));
}

sim::TimePoint SimTimerQueue::Now() const { return simulation_->now(); }

TimerWheel::TimerWheel(sim::Duration tick, std::size_t slots) : tick_(tick), slots_(slots) {
  NIMBUS_CHECK_GT(tick, 0);
  NIMBUS_CHECK_GT(slots, 0u);
}

std::uint64_t TimerWheel::TickFor(sim::TimePoint deadline) const {
  if (deadline <= 0) {
    return 0;
  }
  // Round up: an entry may fire up to one tick late but never before its deadline.
  return static_cast<std::uint64_t>((deadline + tick_ - 1) / tick_);
}

void TimerWheel::Schedule(sim::TimePoint now, sim::Duration delay,
                          std::function<void()> fn) {
  NIMBUS_CHECK_GE(delay, 0);
  if (!started_) {
    // Lazily anchor the cursor to the caller's clock (virtual time starts at 0;
    // CLOCK_MONOTONIC starts wherever the kernel says).
    cursor_ = now <= 0 ? 0 : static_cast<std::uint64_t>(now / tick_);
    started_ = true;
  }
  Entry e;
  // Past-due and sub-tick deadlines land on the next undrained tick rather than a drained
  // one they could never fire from.
  e.tick = std::max(TickFor(now + delay), cursor_ + 1);
  e.seq = next_seq_++;
  e.fn = std::move(fn);
  slots_[e.tick % slots_.size()].push_back(std::move(e));
  ++pending_;
}

sim::TimePoint TimerWheel::NextDeadline() const {
  if (pending_ == 0) {
    return kNever;
  }
  std::uint64_t best = UINT64_MAX;
  for (const auto& slot : slots_) {
    for (const Entry& e : slot) {
      best = std::min(best, e.tick);
    }
  }
  return static_cast<sim::TimePoint>(best) * tick_;
}

std::vector<std::function<void()>> TimerWheel::PopDue(sim::TimePoint now) {
  std::vector<std::function<void()>> fns;
  if (!started_) {
    cursor_ = now <= 0 ? 0 : static_cast<std::uint64_t>(now / tick_);
    started_ = true;
    return fns;
  }
  const std::uint64_t target =
      std::max(cursor_, now <= 0 ? 0 : static_cast<std::uint64_t>(now / tick_));
  if (target == cursor_ || pending_ == 0) {
    cursor_ = target;
    return fns;
  }
  std::vector<Entry> due;
  auto drain_slot = [&](std::vector<Entry>* slot, std::uint64_t max_tick) {
    auto keep = slot->begin();
    for (auto it = slot->begin(); it != slot->end(); ++it) {
      if (it->tick <= max_tick) {
        due.push_back(std::move(*it));
      } else {
        if (keep != it) {
          *keep = std::move(*it);
        }
        ++keep;
      }
    }
    slot->erase(keep, slot->end());
  };
  if (target - cursor_ >= slots_.size()) {
    // A full revolution (or more) elapsed: every slot is reachable, sweep each once.
    for (auto& slot : slots_) {
      drain_slot(&slot, target);
    }
  } else {
    // Slot t % slots holds ticks t, t + slots, ... (earlier revolutions are drained), so
    // its entries at or below t are exactly those due at t; later revolutions stay queued.
    for (std::uint64_t t = cursor_ + 1; t <= target; ++t) {
      drain_slot(&slots_[t % slots_.size()], t);
    }
  }
  cursor_ = target;
  pending_ -= due.size();
  std::sort(due.begin(), due.end(), [](const Entry& a, const Entry& b) {
    return a.tick != b.tick ? a.tick < b.tick : a.seq < b.seq;
  });
  fns.reserve(due.size());
  for (Entry& e : due) {
    fns.push_back(std::move(e.fn));
  }
  return fns;
}

}  // namespace nimbus::net
