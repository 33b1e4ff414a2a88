// TcpClusterRuntime: the per-node half of Cluster's TCP backend (DESIGN.md §13).
//
// Under TransportKind::kTcp every node — driver, controller, each worker — owns two
// things, indexed by NodeAddress::DenseIndex():
//  * a TcpEndpoint (its sockets and epoll event loop),
//  * a mutex serializing deliveries against each other and against test-side inspection.
//
// Nodes run on real time: the controller and workers are built without a simulation, so
// the work a delivery submits runs inside the delivery itself, in submission order
// (sim::RunInline). Nothing is left queued once a handler returns.
//
// Delivery path: the endpoint's event-loop thread invokes the wrapped handler, which takes
// the node mutex and runs the node's OnEnvelope — any sends triggered along the way go
// straight out through the endpoints (they take only leaf per-connection mutexes, so no
// lock-order cycles are possible).
//
// The driver node doubles as a mailbox: its handler signals a condition variable, and
// AwaitDriver blocks on it, evaluating the predicate under the driver mutex — the same
// serialization the handler runs under, so the predicate may read driver state freely.

#ifndef NIMBUS_SRC_DRIVER_CLUSTER_TCP_H_
#define NIMBUS_SRC_DRIVER_CLUSTER_TCP_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/net/address.h"
#include "src/net/tcp_transport.h"

namespace nimbus {

class TcpClusterRuntime {
 public:
  explicit TcpClusterRuntime(int workers);
  ~TcpClusterRuntime();

  TcpClusterRuntime(const TcpClusterRuntime&) = delete;
  TcpClusterRuntime& operator=(const TcpClusterRuntime&) = delete;

  net::TcpEndpoint* endpoint(net::NodeAddress node);

  // The node's TimerQueue over the endpoint's timer heap/timerfd (CLOCK_MONOTONIC domain).
  // Callbacks run on the node's event-loop thread wrapped exactly like deliveries: node
  // mutex, then (driver node) the mailbox signal. Controller/worker heartbeat logic runs
  // against this under TCP and against SimTimerQueue under the simulator, without knowing
  // which.
  net::TimerQueue* node_timers(net::NodeAddress node);

  // Registers `handler` as `node`'s delivery handler, wrapped with the node mutex (file
  // comment). The driver node's wrapper additionally signals the AwaitDriver mailbox. Call
  // before StartLoops().
  void InstallHandler(net::NodeAddress node, net::Transport::Handler handler);

  // Registers `node`'s peer-loss callback (redial budget exhausted), wrapped exactly like
  // a delivery (file comment). Call before StartLoops().
  void InstallPeerLossHandler(net::NodeAddress node,
                              std::function<void(net::NodeAddress)> fn);

  // Bootstrap, main thread, once, after all handlers are installed. EstablishMesh
  // listens everywhere, then for each node pair the lower DenseIndex dials while the
  // higher accepts. StartLoops then spawns the event loops (threads last, so thread
  // creation hands each loop a happens-before edge over all setup state). The cluster arms
  // failure detection between the two: the first heartbeats need the full mesh, and
  // main-thread state is still single-threaded (sends queue on the standing sockets;
  // timers hold in the heap and arm when the loop spawns).
  void EstablishMesh();
  void StartLoops();

  // Runs `fn` under `node`'s mutex — the same serialization deliveries run under.
  // Cross-thread pokes at node-owned state (failure injection) go through here.
  void WithNode(net::NodeAddress node, const std::function<void()>& fn);

  // Blocks until `pred()` holds, re-evaluating under the driver mutex after each driver
  // delivery. Returns true (mirrors Cluster::AwaitDriver's simulator signature, where a
  // drained queue can return false; sockets never "drain").
  bool AwaitDriver(const std::function<bool()>& pred);

  // Runs `fn` under the driver node's mutex — the serialization the driver handler runs
  // under. Mutating driver-program state (mailbox flags) from the main thread goes through
  // here so the handler thread always observes it coherently.
  void WithDriver(const std::function<void()>& fn);

  // Locks and releases every node mutex, establishing happens-before between the calling
  // thread and all deliveries that completed before the call.
  void Quiesce();

  // Stops every event loop and closes all sockets. Before touching any socket, every
  // endpoint is switched to draining (PrepareShutdown) so the peer closes that follow are
  // orderly teardown, not "failures" to redial or report. Idempotent; called by ~Cluster
  // before the nodes the handlers point at are destroyed.
  void Shutdown();

 private:
  struct Node {
    std::unique_ptr<net::TcpEndpoint> endpoint;
    std::unique_ptr<net::TimerQueue> timers;
    std::mutex mutex;
  };
  class NodeTimerQueue;

  Node* node(net::NodeAddress address);
  // Runs `fn` the way every delivery, timer and peer-loss callback runs: under `n`'s
  // mutex, then, on the driver node, the AwaitDriver mailbox signal.
  template <typename Fn>
  void RunOnNode(Node* n, Fn&& fn);

  std::vector<std::unique_ptr<Node>> nodes_;  // by NodeAddress::DenseIndex()
  std::condition_variable driver_cv_;         // paired with the driver node's mutex
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_DRIVER_CLUSTER_TCP_H_
