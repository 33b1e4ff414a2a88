#include "src/driver/cluster.h"

#include <utility>

#include "src/common/tracing.h"
#include "src/driver/cluster_tcp.h"

namespace nimbus {

Cluster::Cluster(ClusterOptions options)
    : options_(options), network_(&simulation_, &options_.costs), sim_timers_(&simulation_) {
  // Bind the span tracer's virtual clock to this cluster's simulation; a later cluster
  // rebinds it (sequential cluster lifetimes, which is how examples and benches run).
  // Under TCP nodes run on real time with no simulation, so spans keep the last-bound
  // clock; TCP runs are timed in wall clock by the benches instead.
  trace::Tracer::Get().SetVirtualClock([this] { return simulation_.now(); }, this);

  const bool tcp = options_.transport == TransportKind::kTcp;
  if (tcp) {
    tcp_ = std::make_unique<TcpClusterRuntime>(options_.workers);
  } else {
    sim_transport_ = std::make_unique<net::SimTransport>(&network_);
    // Mirrors the old peer-lookup behavior: data sends to failed workers are dropped at
    // the source (the directory has already rerouted copies away from them).
    sim_transport_->SetLivenessProbe([this](net::NodeAddress node) {
      return !node.is_worker() || worker(node.worker_id()) != nullptr;
    });
  }

  // TCP nodes run on real time: their meters get no simulation, so they charge nothing
  // and run completions inline (sim::RunInline), and their timers ride the node's timerfd.
  // Simulator nodes share the cluster's one SimTimerQueue.
  sim::Simulation* node_sim = tcp ? nullptr : &simulation_;
  const auto controller_address = net::NodeAddress::Controller();
  net::Transport* controller_transport =
      tcp ? static_cast<net::Transport*>(tcp_->endpoint(controller_address))
          : sim_transport_.get();
  net::TimerQueue* controller_timers =
      tcp ? tcp_->node_timers(controller_address) : &sim_timers_;
  ControllerSwitches switches;
  switches.serialized_batching = options_.serialized_batching;
  switches.force_full_validation = options_.force_full_validation;
  switches.disable_patch_cache = options_.disable_patch_cache;
  controller_ = std::make_unique<NimbusController>(
      sim::WorkMeter(node_sim, &options_.costs), controller_transport, &directory_, &durable_,
      options_.mode, switches, controller_timers);

  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    const WorkerId id(static_cast<std::uint64_t>(i));
    const auto address = net::NodeAddress::ForWorker(id);
    net::Transport* worker_transport =
        tcp ? static_cast<net::Transport*>(tcp_->endpoint(address)) : sim_transport_.get();
    if (options_.fault_injector != nullptr) {
      // The injector filters worker->controller heartbeats per its schedule; all other
      // traffic passes through untouched (src/net/fault_injector.h).
      worker_transport = options_.fault_injector->Wrap(worker_transport);
    }
    net::TimerQueue* worker_timers = tcp ? tcp_->node_timers(address) : &sim_timers_;
    auto worker = std::make_unique<Worker>(
        id, sim::WorkMeter(node_sim, &options_.costs, options_.costs.worker_cores),
        worker_transport, &functions_, &durable_, worker_timers);
    if (options_.enable_command_log) {
      worker->EnableCommandLog();
    }
    controller_->AttachWorker(id);
    workers_.push_back(std::move(worker));
  }
  controller_->SetPartitions(options_.partitions);

  // Route deliveries. The driver handler indirects through `driver_handler_` so the driver
  // program (Job) can install or replace its handler after construction; driver-bound
  // envelopes arriving with none installed are dropped (nobody is waiting on them).
  if (tcp) {
    tcp_->InstallHandler(controller_address, MakeControllerHandler());
    tcp_->InstallHandler(net::NodeAddress::Driver(), MakeDriverHandler());
    for (auto& w : workers_) {
      tcp_->InstallHandler(w->address(), MakeWorkerHandler(w.get()));
    }
    // TCP connection loss (redial budget exhausted) feeds the controller's suspicion
    // state like a heartbeat timeout would. Installed before any loop runs.
    tcp_->InstallPeerLossHandler(
        controller_address,
        [this](net::NodeAddress peer) { controller_->OnPeerLost(peer); });
    tcp_->EstablishMesh();
  } else {
    sim_transport_->RegisterHandler(controller_address, MakeControllerHandler());
    sim_transport_->RegisterHandler(net::NodeAddress::Driver(), MakeDriverHandler());
    for (auto& w : workers_) {
      sim_transport_->RegisterHandler(w->address(), MakeWorkerHandler(w.get()));
    }
  }

  // The one place failure detection is armed (DESIGN.md §14.2): every worker's beats and
  // the controller's sweep start together, so the sweep runs half a period after the
  // beats. Under TCP this sits between mesh establishment and loop start: the first
  // heartbeats need standing connections to flush into, and before the loops start all
  // node state is main-thread only, so these calls need no node mutexes.
  if (options_.failure_detection) {
    for (auto& w : workers_) {
      w->StartHeartbeats(options_.heartbeat_period);
    }
    controller_->ArmHeartbeatSweep(options_.heartbeat_period, options_.heartbeat_timeout,
                                   options_.miss_threshold);
  }
  if (tcp) {
    tcp_->StartLoops();
  }
}

Cluster::~Cluster() {
  // Stop the event loops before workers/controller go away: handler lambdas hold raw
  // pointers into them.
  if (tcp_) {
    tcp_->Shutdown();
  }
  trace::Tracer::Get().ResetVirtualClock(this);
}

net::Transport::Handler Cluster::MakeWorkerHandler(Worker* worker) {
  return [worker](net::NodeAddress src, MessageKind kind, ParameterBlob bytes) {
    worker->OnEnvelope(src, kind, std::move(bytes));
  };
}

net::Transport::Handler Cluster::MakeControllerHandler() {
  return [this](net::NodeAddress src, MessageKind kind, ParameterBlob bytes) {
    controller_->OnEnvelope(src, kind, std::move(bytes));
  };
}

net::Transport::Handler Cluster::MakeDriverHandler() {
  return [this](net::NodeAddress src, MessageKind kind, ParameterBlob bytes) {
    if (driver_handler_) {
      driver_handler_(src, kind, std::move(bytes));
    }
  };
}

sim::Simulation& Cluster::simulation() {
  NIMBUS_CHECK(options_.transport == TransportKind::kSim)
      << "no simulation under the TCP backend (its nodes run on real time)";
  return simulation_;
}

sim::Network& Cluster::network() {
  NIMBUS_CHECK(options_.transport == TransportKind::kSim)
      << "no simulator network under the TCP backend";
  return network_;
}

net::Transport& Cluster::transport() {
  if (tcp_) {
    return *tcp_->endpoint(net::NodeAddress::Driver());
  }
  return *sim_transport_;
}

net::TcpEndpoint& Cluster::tcp_endpoint(net::NodeAddress node) {
  NIMBUS_CHECK(tcp_ != nullptr) << "no per-node endpoints under the simulator";
  return *tcp_->endpoint(node);
}

void Cluster::SetDriverHandler(net::Transport::Handler handler) {
  driver_handler_ = std::move(handler);
}

bool Cluster::AwaitDriver(const std::function<bool()>& pred) {
  if (tcp_) {
    return tcp_->AwaitDriver(pred);
  }
  return simulation_.RunUntilCondition(pred);
}

void Cluster::WithDriver(const std::function<void()>& fn) {
  if (tcp_) {
    tcp_->WithDriver(fn);
  } else {
    fn();
  }
}

void Cluster::Quiesce() {
  if (tcp_) {
    tcp_->Quiesce();
  }
}

Worker* Cluster::worker(WorkerId id) {
  for (auto& w : workers_) {
    if (w->id() == id) {
      return w->failed() ? nullptr : w.get();
    }
  }
  return nullptr;
}

std::vector<WorkerId> Cluster::worker_ids() const {
  std::vector<WorkerId> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) {
    out.push_back(w->id());
  }
  return out;
}

void Cluster::FailWorker(WorkerId id) {
  for (auto& w : workers_) {
    if (w->id() == id) {
      if (tcp_) {
        // Serialize the kill with the worker node's deliveries and timers; the next
        // heartbeat tick observes failed_ and stops beating.
        tcp_->WithNode(w->address(), [&w]() { w->Fail(); });
      } else {
        w->Fail();
      }
      return;
    }
  }
  NIMBUS_CHECK(false) << "unknown worker " << id;
}

void Cluster::SeverConnection(net::NodeAddress a, net::NodeAddress b) {
  if (tcp_) {
    // Severing one side shuts down both directions; each endpoint's event loop then runs
    // its own loss path (dialer redials, acceptor re-accepts).
    tcp_->endpoint(a)->SeverPeer(b);
  }
}

}  // namespace nimbus
