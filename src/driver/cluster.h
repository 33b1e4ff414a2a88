// Cluster: assembles a Nimbus deployment (Fig 2).
//
// Owns the controller, workers, function registry, object directory and durable store, and
// wires the message paths between them across the transport seam (src/net/transport.h).
// Two backends (DESIGN.md §13):
//  * TransportKind::kSim — the deterministic, cost-model-charged simulator network. The
//    default everywhere; every test and bench result is reproduced on it.
//  * TransportKind::kTcp — real sockets over loopback: one epoll event loop per node,
//    standing connections, length-prefixed frames. The control plane is unchanged — the
//    equivalence tests pin TCP results bit-identical to the simulator's.
// Everything the examples, tests and benchmarks start from.

#ifndef NIMBUS_SRC_DRIVER_CLUSTER_H_
#define NIMBUS_SRC_DRIVER_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/ids.h"
#include "src/controller/controller.h"
#include "src/data/durable_store.h"
#include "src/data/object_directory.h"
#include "src/net/fault_injector.h"
#include "src/net/sim_transport.h"
#include "src/net/timer_queue.h"
#include "src/net/transport.h"
#include "src/sim/cost_model.h"
#include "src/sim/network.h"
#include "src/sim/simulation.h"
#include "src/worker/function_registry.h"
#include "src/worker/worker.h"

namespace nimbus {

enum class TransportKind {
  kSim,  // deterministic simulator network (default)
  kTcp,  // real sockets over loopback (async epoll event loops)
};

// All construction-time knobs in one place, so a cluster's configuration is complete at
// the constructor call.
struct ClusterOptions {
  int workers = 4;
  int partitions = 8;  // global placement-partition space
  sim::CostModel costs;
  ControlMode mode = ControlMode::kTemplates;
  TransportKind transport = TransportKind::kSim;

  // --- Controller knobs (ControllerSwitches; DESIGN.md §5, §8) ---
  // Central dispatch wire form: false = one message per command (the paper's baseline),
  // true = one pre-encoded buffer per worker per stage (DESIGN.md §8, §10).
  bool serialized_batching = false;
  // Ablations: no auto-validation fast path / no patch cache (paper §4.2).
  bool force_full_validation = false;
  bool disable_patch_cache = false;

  // --- Worker knobs ---
  bool enable_command_log = false;  // workers record their observed command streams

  // --- Failure detection (DESIGN.md §14) ---
  // Arms heartbeat/suspicion detection at construction, before any traffic flows; there
  // is no other way to arm it. Under the simulator timers ride virtual time; under TCP
  // they ride the per-node timerfd heaps, so pick wall-clock-realistic knobs when
  // transport == kTcp.
  bool failure_detection = false;
  sim::Duration heartbeat_period = sim::Millis(25);
  sim::Duration heartbeat_timeout = sim::Millis(100);
  int miss_threshold = 1;

  // Fault-injection seam (DESIGN.md §14.3); borrowed — the caller keeps it alive for the
  // cluster's lifetime. Worker transports are wrapped so the injector's schedule filters
  // their heartbeat sends identically under both backends. nullptr = no injection.
  net::FaultInjector* fault_injector = nullptr;
};

class TcpClusterRuntime;  // per-node event loops + endpoints (cluster_tcp.cc)
namespace net {
class TcpEndpoint;
}  // namespace net

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // The shared simulation / simulator network. Sim transport only — TCP nodes run on
  // real time over a real network (CHECK-fails).
  sim::Simulation& simulation();
  sim::Network& network();

  // The transport endpoint the driver program sends through. Under the simulator this is
  // the single shared SimTransport; under TCP it is the driver node's endpoint.
  net::Transport& transport();

  // The TCP endpoint of `node`, for its wire counters. TCP transport only (CHECK-fails
  // under the simulator, which has no per-node endpoints).
  net::TcpEndpoint& tcp_endpoint(net::NodeAddress node);

  // Installs the driver program's delivery handler (kBlockDone / kCheckpointDone /
  // kRecoveryNotice envelopes). Replaces any previous handler. Under TCP the handler runs
  // on the driver endpoint's event-loop thread, serialized with AwaitDriver's predicate.
  void SetDriverHandler(net::Transport::Handler handler);

  // Blocks until `pred()` is true, driving deliveries: under the simulator this runs the
  // event loop (returns false if it drains with `pred` still false); under TCP it waits on
  // the driver mailbox (handler invocations signal it). The predicate is evaluated under
  // the same serialization as the driver handler, so it may read driver state freely.
  bool AwaitDriver(const std::function<bool()>& pred);

  // Runs `fn` under the same serialization as the driver handler. The driver program uses
  // this to mutate its mailbox state (request ids, completion flags) so handler-thread
  // reads are coherent under TCP; under the simulator it just runs `fn`.
  void WithDriver(const std::function<void()>& fn);

  // Synchronizes the calling thread with all per-node state (worker stores, command logs,
  // controller introspection). No-op under the simulator; under TCP it drains in-flight
  // deliveries and establishes happens-before with every node's event loop. Call before
  // reading per-node state from test code.
  void Quiesce();

  const sim::CostModel& costs() const { return options_.costs; }
  NimbusController& controller() { return *controller_; }
  FunctionRegistry& functions() { return functions_; }
  ObjectDirectory& directory() { return directory_; }
  DurableStore& durable() { return durable_; }

  Worker* worker(WorkerId id);
  std::vector<WorkerId> worker_ids() const;
  int partitions() const { return options_.partitions; }

  // Injects a hard worker failure at the current virtual time (fault-recovery tests).
  // Under TCP the mutation runs under the worker's node mutex, serialized with its
  // deliveries and timers.
  void FailWorker(WorkerId id);

  // Cuts the standing connection between two nodes (fault injection). TCP: both ends see
  // the break and run their loss paths (the dialer redials; a live listener re-accepts).
  // Simulator: no-op — the sim network has no connections to cut.
  void SeverConnection(net::NodeAddress a, net::NodeAddress b);

 private:
  net::Transport::Handler MakeWorkerHandler(Worker* worker);
  net::Transport::Handler MakeControllerHandler();
  net::Transport::Handler MakeDriverHandler();

  ClusterOptions options_;
  sim::Simulation simulation_;
  sim::Network network_;
  net::SimTimerQueue sim_timers_;  // the simulator nodes' one clock (unused under TCP)
  ObjectDirectory directory_;
  DurableStore durable_;
  FunctionRegistry functions_;
  std::unique_ptr<net::SimTransport> sim_transport_;
  std::unique_ptr<TcpClusterRuntime> tcp_;  // non-null iff transport == kTcp
  std::unique_ptr<NimbusController> controller_;
  std::vector<std::unique_ptr<Worker>> workers_;
  net::Transport::Handler driver_handler_;  // installed by SetDriverHandler
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_DRIVER_CLUSTER_H_
