// The traced run's per-block ledger: where one block's wall time goes.
//
// Stamps come only from public seams, never from new spans inside the program:
//  * NimbusController::set_phase_probe — start of validate / apply / assemble / dispatch
//    on the controller thread;
//  * a wrapped driver handler (Cluster::SetDriverHandler -> Job::OnEnvelope) — the moment
//    kBlockDone reaches the driver;
//  * the §12 tracer's existing worker spans (decode, materialize, group_start).
// Combined with the BlockSample around Job::RunBlock they split one block into
//   ingress   RunBlock call        -> first phase probe
//   validate / apply / assemble     a probe of that phase -> the next probe
//   fanout    a dispatch probe     -> the next probe, or kBlockDone at the driver (from
//                                   the RunBlock call when the block has no probes:
//                                   per-task central dispatch)
//   wake      kBlockDone           -> RunBlock return
// Each interval belongs to the phase whose probe opens it. The template path stamps
// validate, apply, assemble, dispatch; central batched dispatch stamps validate,
// assemble, dispatch, apply per stage, so its blocks end in an apply. That last apply
// ends where the controller's existing `apply_effects` span ends, and the rest of the
// block up to kBlockDone is fanout (all of it when the span is missing). These six
// intervals tile the block exactly; the worker spans split `fanout` and are reported
// beside it (per block, the busiest worker's total).

#ifndef PERFBENCH_DRIVER_LEDGER_H_
#define PERFBENCH_DRIVER_LEDGER_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "perfbench/driver/session.h"
#include "src/common/tracing.h"

namespace perfbench {

struct BlockStamps {
  struct Probe {
    char phase = 0;  // 'v'alidate, 'a'pply, 's' (assemble), 'd'ispatch
    std::int64_t ns = 0;
  };
  std::vector<Probe> probes;
  std::int64_t done_ns = 0;       // kBlockDone at the driver handler; 0 = not seen
  std::int64_t apply_end_ns = 0;  // end of the block's last apply_effects span; 0 = none
};

// Installs the phase probe and the wrapped driver handler on a session and collects their
// stamps. Install and Uninstall only between blocks, after Cluster::Quiesce.
class SeamRecorder {
 public:
  void Install(Session* session);
  void Uninstall(Session* session);
  // The stamps recorded since the previous call (one block's, in a closed loop).
  BlockStamps Take();

 private:
  std::mutex mu_;
  BlockStamps current_;
};

// One block's ledger, in microseconds.
struct BlockLedger {
  double total = 0, ingress = 0, validate = 0, apply = 0, assemble = 0, fanout = 0,
         wake = 0;
  double decode = 0, materialize = 0, group_start = 0;
};

BlockLedger Attribute(const BlockSample& sample, const BlockStamps& stamps);

// Sets apply_end_ns of each block from the controller lane's apply_effects spans.
// `blocks` and `stamps` are parallel and in call order.
void AddApplyEnds(const std::vector<nimbus::trace::Event>& events,
                  const std::vector<BlockSample>& blocks, std::vector<BlockStamps>* stamps);

// Adds the worker lane's decode / materialize / group_start spans to the ledgers of the
// blocks whose [call, return] window holds each span's start. `blocks` and `ledgers` are
// parallel and in call order.
void AddWorkerSpans(const std::vector<nimbus::trace::Event>& events,
                    const std::vector<BlockSample>& blocks, std::vector<BlockLedger>* ledgers);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LEDGER_H_
