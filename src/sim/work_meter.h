// A node's one accounting seam (DESIGN.md §8.2, §13.3).
//
// Controller and worker code report typed work (`Work`, src/sim/cost_model.h) where it
// happens; the meter prices each report with CostModel::Price and books it on the node's
// modeled resources: the serial control thread and, on a worker, its core pool. A meter
// over a null simulation belongs to a real-time node (the TCP backend): it charges nothing,
// and a submitted completion runs at once, in submission order, through RunInline.

#ifndef NIMBUS_SRC_SIM_WORK_METER_H_
#define NIMBUS_SRC_SIM_WORK_METER_H_

#include <cstdint>
#include <optional>
#include <utility>

#include "src/sim/cost_model.h"
#include "src/sim/simulation.h"

namespace nimbus::sim {

class WorkMeter {
 public:
  // `cores` > 0 gives the node a core pool of that size (a worker); 0 gives it none.
  WorkMeter(Simulation* simulation, const CostModel* costs, int cores = 0) : costs_(costs) {
    if (simulation != nullptr) {
      control_.emplace(simulation);
      if (cores > 0) {
        cores_.emplace(simulation, cores);
      }
    }
  }

  // Books `amount` of `work` on the control thread.
  void Charge(Work work, std::int64_t amount) {
    if (control_) {
      control_->Charge(costs_->Price(work, amount));
    }
  }

  // Books `amount` of `work` on the control thread; `done` (any callable) runs when it
  // ends. Returns the completion time (0 on a real-time node).
  template <typename Done>
  TimePoint Submit(Work work, std::int64_t amount, Done&& done) {
    if (!control_) {
      RunInline(std::forward<Done>(done));
      return 0;
    }
    return control_->Submit(costs_->Price(work, amount), std::forward<Done>(done));
  }

  // Runs `amount` of `work` on the earliest-free core; `done` runs when it ends.
  template <typename Done>
  TimePoint RunOnCore(Work work, std::int64_t amount, Done&& done) {
    return OnCore(costs_->Price(work, amount), std::forward<Done>(done));
  }

  // Runs a task whose command declares `declared` of execution, plus its local dispatch.
  template <typename Done>
  TimePoint RunTask(Duration declared, Done&& done) {
    return OnCore(declared + costs_->Price(Work::kTaskDispatch, 1), std::forward<Done>(done));
  }

  // The price of `amount` of `work`, booked nowhere: for the one modeled delay that is a
  // real timer on both backends (the recovery's halt settle).
  Duration Price(Work work, std::int64_t amount) const { return costs_->Price(work, amount); }

  Duration control_busy() const { return control_ ? control_->total_busy() : 0; }
  Duration core_busy() const { return cores_ ? cores_->total_busy() : 0; }

 private:
  template <typename Done>
  TimePoint OnCore(Duration work, Done&& done) {
    if (!control_) {
      RunInline(std::forward<Done>(done));
      return 0;
    }
    NIMBUS_CHECK(cores_.has_value()) << "this node's meter has no cores";
    return cores_->Submit(work, std::forward<Done>(done));
  }

  const CostModel* costs_;
  // Engaged only under a simulation; `control_` empty is the real-time case.
  std::optional<Processor> control_;
  std::optional<CorePool> cores_;
};

}  // namespace nimbus::sim

#endif  // NIMBUS_SRC_SIM_WORK_METER_H_
