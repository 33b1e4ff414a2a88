// Simulated cluster network.
//
// Nodes (driver, controller, workers) are integer endpoints. A message occupies the sender's
// transmit path for its serialization time (so bulk data transfers contend at the NIC) and is
// delivered one propagation latency later. Control messages are small; data-copy messages
// carry the object's virtual byte size.

#ifndef NIMBUS_SRC_SIM_NETWORK_H_
#define NIMBUS_SRC_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/common/tracing.h"
#include "src/net/address.h"
#include "src/sim/cost_model.h"
#include "src/sim/simulation.h"
#include "src/sim/virtual_time.h"

namespace nimbus::sim {

// A network endpoint address (see src/net/address.h). The controller and driver get reserved
// addresses; workers are addressed by their WorkerId value.
using NodeAddress = net::NodeAddress;

inline constexpr NodeAddress kControllerAddress = NodeAddress::Controller();
inline constexpr NodeAddress kDriverAddress = NodeAddress::Driver();

// Span names for the network trace lane, indexed by MessageKind.
inline constexpr const char* kSendSpanNames[kMessageKindCount] = {
    "send_control", "send_command", "send_serialized_batch", "send_data"};

class Network {
 public:
  Network(Simulation* simulation, const CostModel* costs)
      : simulation_(simulation), costs_(costs) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Sends `payload_bytes` from `src` to `dst`; `deliver` runs at the destination when the
  // message arrives. Occupies the sender NIC for the serialization time. `kind` buckets the
  // message into the per-kind traffic counters (control vs command vs data bytes) and is
  // deliberately not defaulted: every call site must say what kind of traffic it generates
  // (enforced by scripts/lint_invariants.py rule send-kind).
  void Send(NodeAddress src, NodeAddress dst, std::int64_t payload_bytes,
            Simulation::Callback deliver, MessageKind kind) {
    NIMBUS_CHECK_GE(payload_bytes, 0);
    static_cast<void>(dst);  // contention is modeled at the sender NIC only

    // Send span: one per message on the kind's network track, carrying the encoded bytes.
    // Wall duration covers enqueue only; the virtual transmit+propagation window rides in
    // `value`-adjacent args via the summarizer (bytes are the value).
    NIMBUS_TRACE_SPAN_V(trace::Lane::kNetwork, static_cast<std::uint32_t>(kind),
                        kSendSpanNames[static_cast<std::size_t>(kind)], payload_bytes);

    Processor& tx = TxPath(src);
    counters_.Record(kind, payload_bytes);
    const TimePoint tx_done = tx.Charge(costs_->SerializationTime(payload_bytes));
    simulation_->ScheduleAt(tx_done + costs_->network_latency, std::move(deliver));
  }

  std::uint64_t messages_sent() const { return counters_.total_messages(); }
  std::int64_t bytes_sent() const { return counters_.total_bytes(); }
  const NetworkCounters& counters() const { return counters_; }

 private:
  // Flat per-node NIC table indexed by the dense address layout (driver=0, controller=1,
  // worker i=2+i); node addresses are contiguous, so a vector beats a hash map on the
  // per-send hot path.
  Processor& TxPath(NodeAddress node) {
    const std::size_t index = node.DenseIndex();
    if (index >= tx_paths_.size()) {
      tx_paths_.resize(index + 1);
    }
    if (tx_paths_[index] == nullptr) {
      tx_paths_[index] = std::make_unique<Processor>(simulation_);
    }
    return *tx_paths_[index];
  }

  Simulation* simulation_;
  const CostModel* costs_;
  std::vector<std::unique_ptr<Processor>> tx_paths_;
  NetworkCounters counters_;
};

}  // namespace nimbus::sim

#endif  // NIMBUS_SRC_SIM_NETWORK_H_
