// TcpTransport: real sockets behind the transport seam (DESIGN.md §13).
//
// One TcpEndpoint per node. Bootstrap is synchronous and orchestrated by the cluster on
// the main thread — every endpoint listens on 127.0.0.1, the orchestrator collects the
// chosen ports into a NodeAddress -> port map, then establishes one standing connection
// per node pair (the lower DenseIndex dials, sending a hello frame that names itself; the
// higher accepts). Only after the full mesh stands does each endpoint spawn its epoll
// event-loop thread, so thread creation gives every loop a happens-before edge covering
// all registration and connection state (no locks needed on the fd tables afterwards).
//
// Wire framing (little-endian, host order — loopback only):
//   u32 payload_len   u8 kind (MessageKind; 0xFF = bootstrap hello)   i64 src   i64 dst
//   u8[payload_len] envelope bytes
//
// Sends append to a per-connection queue under its mutex and flush with a gather writev
// (issued as sendmsg with MSG_NOSIGNAL, so a reset socket reports EPIPE, never SIGPIPE).
// When flushes run depends on the sending thread (DESIGN.md §13.3):
//  * on this endpoint's own event-loop thread (delivery handlers, timer callbacks) the
//    callback's first frame to a peer flushes at once and marks the connection pending;
//    later frames to that peer only queue, and the loop flushes every pending connection
//    once the callback returns, so a handler that fans out hundreds of frames pays about
//    two writevs per peer, not one per frame;
//  * on any other thread (the driver program, WithNode callers, bootstrap, sends before
//    Start) every send flushes eagerly on the calling thread.
// A stalled flush leaves the tail queued and the event loop finishes it under EPOLLOUT
// (backpressure). Counters record queue depth, partial writes, and per-kind frame
// traffic. Delivery invokes the registered handler on the event-loop thread; the cluster
// wraps handlers with per-node serialization.
//
// Failure handling (DESIGN.md §14): a timerfd drives the endpoint's TimerWheel inside the
// same epoll loop, so heartbeat/suspicion timers fire on the delivery thread. Connection
// loss (read-zero, ECONNRESET, EPIPE) tears the socket out of the Connection but keeps
// the object (senders hold pointers; queued frames survive for resend). The original
// dialer redials with bounded exponential backoff; the acceptor re-accepts at runtime via
// the listening socket. Redial exhaustion invokes the peer-loss handler, which the
// cluster routes into the controller's suspicion state. `PrepareShutdown` suppresses all
// of this during orchestrated teardown so closing one node cannot "fail" its live peers.

#ifndef NIMBUS_SRC_NET_TCP_TRANSPORT_H_
#define NIMBUS_SRC_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/stats.h"
#include "src/net/address.h"
#include "src/net/timer_wheel.h"
#include "src/net/transport.h"

namespace nimbus::net {

class TcpEndpoint final : public Transport {
 public:
  explicit TcpEndpoint(NodeAddress self);
  ~TcpEndpoint() override;

  // ---- Bootstrap (main thread, in this order; see file comment) ----
  // Binds a listening socket on 127.0.0.1:0 and returns the kernel-chosen port.
  std::uint16_t Listen();
  // Dials `peer`'s listener and sends the hello frame naming this endpoint.
  void DialPeer(NodeAddress peer, std::uint16_t port);
  // Accepts one inbound connection and reads its hello frame to learn the peer.
  void AcceptPeer();
  // Spawns the epoll event-loop thread. All connections must already stand.
  void Start();
  // Marks this endpoint as tearing down: subsequent peer closes are treated as orderly,
  // not as failures (no redial, no loss handler). The cluster calls this on EVERY
  // endpoint before shutting down ANY of them.
  void PrepareShutdown();
  // Stops the event loop, joins the thread, and closes every socket. Idempotent.
  void Shutdown();

  // ---- Timers (event-loop clock domain) ----
  // Runs `fn` once on the event-loop thread, `delay` after now. Thread-safe; callable
  // before Start (the wheel holds the entry and the timerfd arms when the loop spawns).
  TimerQueue::TimerId ScheduleTimer(sim::Duration delay, std::function<void()> fn);
  bool CancelTimer(TimerQueue::TimerId id);
  // CLOCK_MONOTONIC in nanoseconds — the clock the wheel and liveness deadlines share.
  static sim::TimePoint NowNanos();

  // ---- Failure handling ----
  // Invoked on the event-loop thread when a peer is declared unreachable (redial budget
  // exhausted). The cluster wraps it with the node's serialization mutex.
  void SetPeerLossHandler(std::function<void(NodeAddress)> fn);
  // Test/fault-injection hook: force both directions of the standing connection to
  // `peer` down (shutdown(2)), as if the wire was cut. Both ends then run their normal
  // loss paths. Safe from any thread.
  void SeverPeer(NodeAddress peer);

  // ---- Transport seam ----
  // Only this endpoint's own address may register (each node owns one endpoint).
  void RegisterHandler(NodeAddress node, Handler handler) override;
  // Frames `bytes` and ships it on the standing connection to `dst`. `cost_bytes` is the
  // simulator's modeled size — recorded in the per-kind counters for comparability with
  // sim runs; the socket carries the encoded envelope regardless. Thread-safe; on the
  // event-loop thread only a callback's first frame per peer flushes at once, the rest
  // when the callback returns.
  void Send(NodeAddress src, NodeAddress dst, MessageKind kind, ParameterBlob bytes,
            std::int64_t cost_bytes) override;

  // ---- Backpressure / traffic counters ----
  struct Counters {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t payload_bytes_sent = 0;
    std::uint64_t writev_calls = 0;  // gather-write syscalls (sendmsg) on the send path
    std::uint64_t partial_writes = 0;  // flushes that left queued bytes behind
    std::uint64_t peak_queued_bytes = 0;
    std::uint64_t queued_bytes = 0;  // currently waiting behind the socket
    std::uint64_t connection_losses = 0;  // sockets torn down outside orderly shutdown
    std::uint64_t redials = 0;            // reconnect attempts (dialer side)
    std::uint64_t redials_succeeded = 0;  // reconnects that re-established the link

    static constexpr const char* kGroupName = "tcp";
    template <typename V>
    void VisitFields(V&& visit) const {
      visit("frames_sent", frames_sent);
      visit("frames_received", frames_received);
      visit("payload_bytes_sent", payload_bytes_sent);
      visit("writev_calls", writev_calls);
      visit("partial_writes", partial_writes);
      visit("peak_queued_bytes", peak_queued_bytes);
      visit("queued_bytes", queued_bytes);
      visit("connection_losses", connection_losses);
      visit("redials", redials);
      visit("redials_succeeded", redials_succeeded);
    }
  };
  Counters counters() const;

  NodeAddress self() const { return self_; }

 private:
  struct Connection {
    int fd = -1;
    NodeAddress peer;
    // Send side: framed buffers waiting for the socket, guarded by `send_mutex` (shared
    // between sending threads and the event loop's EPOLLOUT flushes). `fd` is written
    // only by the event-loop thread, under this mutex (loss/reconnect swap), so the loop
    // reads it bare while senders read it under the lock.
    std::mutex send_mutex;
    std::deque<std::vector<std::uint8_t>> send_queue;
    std::size_t send_offset = 0;  // consumed bytes of the front buffer
    bool want_write = false;      // EPOLLOUT currently armed
    // Receive side: event-loop thread only.
    std::vector<std::uint8_t> recv_buffer;
    // Deferred flush (event-loop thread only): set by the running callback's first send
    // here, cleared when FlushPending flushes the connection. While set, sends only queue;
    // it also keeps the connection listed once in `pending_flush_`.
    bool flush_pending = false;
    // Redial state (event-loop thread only).
    bool dialer = false;          // this endpoint originally dialed the peer
    std::uint16_t peer_port = 0;  // the peer's listen port (dialer side; for redial)
    int redial_attempts = 0;
    bool declared_lost = false;   // loss handler already fired for the current outage
  };

  Connection* ConnectionTo(NodeAddress peer) const;
  Connection* AdoptSocket(int fd, NodeAddress peer);
  // Flushes `conn`'s queue with gather writes of up to IOV_MAX frames each, looping until
  // the queue drains or the socket returns EAGAIN; arms/disarms EPOLLOUT as needed.
  // Requires `conn->send_mutex`.
  void FlushLocked(Connection* conn);
  // Event-loop thread: flushes every connection a loop-thread send marked pending. Runs
  // after each delivery handler and after each timer batch, outside any node mutex.
  void FlushPending();
  // Rewinds the partially written front frame to byte zero for a resend on a fresh socket
  // and returns its already-written bytes to `queued_bytes`. Requires `conn->send_mutex`.
  void RewindFrontLocked(Connection* conn);
  void UpdateEpoll(Connection* conn, bool want_write);
  void EventLoop();
  void ReadReady(Connection* conn);
  // Parses complete frames out of `conn->recv_buffer`, dispatching each to the handler.
  void DrainFrames(Connection* conn);
  // Event-loop thread: tears the socket out of `conn` (keeping queued frames), then
  // schedules a redial (dialer side) or waits for a re-accept (acceptor side).
  void HandleConnectionLoss(Connection* conn);
  void TryRedial(Connection* conn);
  // Event-loop thread: runtime accept — swaps a fresh socket into the peer's Connection.
  void AcceptReady();
  // Drains the timerfd and runs every due wheel callback (event-loop thread).
  void FireTimers();
  // Programs the timerfd to the wheel's next deadline. Requires `timer_mutex_`.
  void ArmTimerLocked();

  NodeAddress self_;
  Handler handler_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;   // eventfd: kicks the loop for shutdown
  int timer_fd_ = -1;  // timerfd driving the wheel, CLOCK_MONOTONIC
  std::vector<std::unique_ptr<Connection>> connections_;
  // Peer DenseIndex -> connection (flat table; -1 entries are absent peers).
  std::vector<Connection*> by_peer_;
  // Connections with deferred frames awaiting FlushPending (event-loop thread only).
  std::vector<Connection*> pending_flush_;
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};  // orderly teardown: peer closes are not failures

  std::mutex timer_mutex_;
  TimerWheel wheel_;
  std::function<void(NodeAddress)> peer_loss_handler_;

  mutable std::mutex counter_mutex_;
  Counters counters_;
  // Modeled per-kind traffic (mirrors sim::NetworkCounters for cross-backend reporting).
  std::uint64_t kind_frames_[kMessageKindCount] = {};
  std::uint64_t kind_cost_bytes_[kMessageKindCount] = {};

 public:
  std::uint64_t frames_for(MessageKind kind) const;
  std::uint64_t cost_bytes_for(MessageKind kind) const;
};

}  // namespace nimbus::net

#endif  // NIMBUS_SRC_NET_TCP_TRANSPORT_H_
