#include "src/driver/cluster_tcp.h"

#include <cstdint>
#include <utility>

#include "src/common/logging.h"

namespace nimbus {

namespace {

net::NodeAddress AddressOfDense(std::size_t dense) {
  if (dense == 0) {
    return net::NodeAddress::Driver();
  }
  if (dense == 1) {
    return net::NodeAddress::Controller();
  }
  return net::NodeAddress::ForWorker(WorkerId(static_cast<std::uint64_t>(dense - 2)));
}

}  // namespace

template <typename Fn>
void TcpClusterRuntime::RunOnNode(Node* n, Fn&& fn) {
  {
    std::lock_guard<std::mutex> lock(n->mutex);
    fn();
  }
  if (n == nodes_.front().get()) {  // the driver node (DenseIndex 0)
    driver_cv_.notify_all();
  }
}

// TimerQueue facade over the node endpoint's timer heap: callbacks get the same wrapping
// as deliveries (node mutex + driver mailbox signal), so a heartbeat tick firing from the
// timerfd is indistinguishable from one arriving off the wire.
class TcpClusterRuntime::NodeTimerQueue final : public net::TimerQueue {
 public:
  NodeTimerQueue(TcpClusterRuntime* runtime, Node* node) : runtime_(runtime), node_(node) {}

  void Schedule(sim::Duration delay, std::function<void()> fn) override {
    node_->endpoint->ScheduleTimer(
        delay, [this, fn = std::move(fn)]() { runtime_->RunOnNode(node_, fn); });
  }

  sim::TimePoint Now() const override { return net::TcpEndpoint::NowNanos(); }

 private:
  TcpClusterRuntime* runtime_;
  Node* node_;
};

TcpClusterRuntime::TcpClusterRuntime(int workers) {
  nodes_.reserve(static_cast<std::size_t>(workers) + 2);
  for (std::size_t dense = 0; dense < static_cast<std::size_t>(workers) + 2; ++dense) {
    auto node = std::make_unique<Node>();
    node->endpoint = std::make_unique<net::TcpEndpoint>(AddressOfDense(dense));
    node->timers = std::make_unique<NodeTimerQueue>(this, node.get());
    nodes_.push_back(std::move(node));
  }
}

TcpClusterRuntime::~TcpClusterRuntime() { Shutdown(); }

TcpClusterRuntime::Node* TcpClusterRuntime::node(net::NodeAddress address) {
  const std::size_t dense = address.DenseIndex();
  NIMBUS_CHECK_LT(dense, nodes_.size()) << "unknown node " << address;
  return nodes_[dense].get();
}

net::TcpEndpoint* TcpClusterRuntime::endpoint(net::NodeAddress address) {
  return node(address)->endpoint.get();
}

net::TimerQueue* TcpClusterRuntime::node_timers(net::NodeAddress address) {
  return node(address)->timers.get();
}

void TcpClusterRuntime::InstallHandler(net::NodeAddress address,
                                       net::Transport::Handler handler) {
  Node* n = node(address);
  n->endpoint->RegisterHandler(
      address, [this, n, handler = std::move(handler)](net::NodeAddress src, MessageKind kind,
                                                        ParameterBlob bytes) {
        RunOnNode(n, [&] { handler(src, kind, std::move(bytes)); });
      });
}

void TcpClusterRuntime::InstallPeerLossHandler(net::NodeAddress address,
                                               std::function<void(net::NodeAddress)> fn) {
  Node* n = node(address);
  n->endpoint->SetPeerLossHandler([this, n, fn = std::move(fn)](net::NodeAddress peer) {
    RunOnNode(n, [&] { fn(peer); });
  });
}

void TcpClusterRuntime::EstablishMesh() {
  std::vector<std::uint16_t> ports(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    ports[i] = nodes_[i]->endpoint->Listen();
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes_.size(); ++j) {
      nodes_[i]->endpoint->DialPeer(AddressOfDense(j), ports[j]);
      nodes_[j]->endpoint->AcceptPeer();
    }
  }
}

void TcpClusterRuntime::StartLoops() {
  for (auto& n : nodes_) {
    n->endpoint->Start();
  }
}

void TcpClusterRuntime::WithNode(net::NodeAddress address, const std::function<void()>& fn) {
  Node* n = node(address);
  std::lock_guard<std::mutex> lock(n->mutex);
  fn();
}

bool TcpClusterRuntime::AwaitDriver(const std::function<bool()>& pred) {
  Node* driver = node(net::NodeAddress::Driver());
  std::unique_lock<std::mutex> lock(driver->mutex);
  driver_cv_.wait(lock, pred);
  return true;
}

void TcpClusterRuntime::WithDriver(const std::function<void()>& fn) {
  WithNode(net::NodeAddress::Driver(), fn);
}

void TcpClusterRuntime::Quiesce() {
  for (auto& n : nodes_) {
    std::lock_guard<std::mutex> lock(n->mutex);
  }
}

void TcpClusterRuntime::Shutdown() {
  // Two passes: first mark every endpoint as draining, then close. Closing node A's
  // sockets makes node B observe read-zero; without the draining mark B would treat that
  // as a failure and start redialing a listener that is about to vanish.
  for (auto& n : nodes_) {
    n->endpoint->PrepareShutdown();
  }
  for (auto& n : nodes_) {
    n->endpoint->Shutdown();
  }
}

}  // namespace nimbus
