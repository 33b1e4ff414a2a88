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
// A send moves its payload into a per-connection queue beside the frame's 21-byte header
// (no copy), under the connection's mutex, and flushes with a gather writev of two iovecs
// per frame (issued as sendmsg with MSG_NOSIGNAL, so a reset socket reports EPIPE, never
// SIGPIPE).
// When flushes run depends on the sending thread (DESIGN.md §13.3):
//  * on this endpoint's own event-loop thread (delivery handlers, timer callbacks) the
//    callback's first frame to a peer flushes at once and marks the connection pending;
//    later frames to that peer only queue, and the loop flushes every pending connection
//    once the callback returns, so a handler that fans out hundreds of frames pays about
//    two writevs per peer, not one per frame;
//  * on any other thread (the driver program, WithNode callers, bootstrap, sends before
//    Start) every send flushes eagerly on the calling thread.
// A stalled flush leaves the tail queued and the event loop finishes it under EPOLLOUT
// (backpressure). Counters record frames, queue depth and partial writes in relaxed
// atomics: counters() is a field-wise snapshot, not one atomic read across fields.
// Delivery invokes the registered handler on the event-loop thread; the cluster wraps
// handlers with per-node serialization.
//
// Failure handling (DESIGN.md §14): a timerfd drives the endpoint's TimerHeap inside the
// same epoll loop, so heartbeat/suspicion timers fire on the delivery thread. Connection
// loss (read-zero, ECONNRESET, EPIPE) tears the socket out of the Connection but keeps
// the object (senders hold pointers; queued frames survive for resend). The original
// dialer redials with bounded exponential backoff; the acceptor re-accepts at runtime via
// the listening socket. A socket is dialed in one place and accepted in one place, at
// bootstrap and at runtime alike, and a healed socket enters its Connection through one
// swap (InstallSocket). Redial exhaustion invokes the peer-loss handler, which the
// cluster routes into the controller's suspicion state. `PrepareShutdown` suppresses all
// of this during orchestrated teardown so closing one node cannot "fail" its live peers.

#ifndef NIMBUS_SRC_NET_TCP_TRANSPORT_H_
#define NIMBUS_SRC_NET_TCP_TRANSPORT_H_

#include <sys/uio.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/stats.h"
#include "src/net/address.h"
#include "src/net/timer_queue.h"
#include "src/net/transport.h"

namespace nimbus::net {

// Frame header: u32 payload_len, u8 kind, i64 src, i64 dst (file comment).
inline constexpr std::size_t kFrameHeaderSize = 4 + 1 + 8 + 8;
using FrameHeader = std::array<std::uint8_t, kFrameHeaderSize>;

// The header of a frame carrying `payload_size` bytes. CHECKs the size against the frame
// bound before narrowing it to the u32 length field.
FrameHeader MakeFrameHeader(std::uint8_t kind, NodeAddress src, NodeAddress dst,
                            std::size_t payload_size);

// The fields of a frame header, as ParseFrameHeader decodes them.
struct FrameFields {
  std::uint32_t payload_len = 0;
  std::uint8_t kind = 0;
  NodeAddress src;
  NodeAddress dst;
};

// The inverse of MakeFrameHeader: decodes the kFrameHeaderSize bytes at `bytes`. Checks
// nothing; each caller checks what its context requires.
inline FrameFields ParseFrameHeader(const std::uint8_t* bytes) {
  FrameFields f;
  std::int64_t src = 0;
  std::int64_t dst = 0;
  std::memcpy(&f.payload_len, bytes, sizeof(f.payload_len));
  f.kind = bytes[4];
  std::memcpy(&src, bytes + 5, sizeof(src));
  std::memcpy(&dst, bytes + 13, sizeof(dst));
  f.src = NodeAddress(src);
  f.dst = NodeAddress(dst);
  return f;
}

// One queued frame: its header and the moved-in payload, written as two iovecs.
struct QueuedFrame {
  FrameHeader header;
  ParameterBlob payload;

  std::size_t size() const { return kFrameHeaderSize + payload.size(); }
};

// Fills up to `max_iov` iovecs with the bytes of `queue` still to be written, the front
// frame starting `offset` bytes in (offset < its size). Header and payload are one iovec
// each; an empty or fully written part gets none. Returns the count filled.
int GatherFrames(const std::deque<QueuedFrame>& queue, std::size_t offset, iovec* iov,
                 int max_iov);

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
  // before Start (the heap holds the entry and the timerfd arms when the loop spawns).
  void ScheduleTimer(sim::Duration delay, std::function<void()> fn);
  // CLOCK_MONOTONIC in nanoseconds — the clock the timers and liveness deadlines share.
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
  // simulator's modeled size, which only SimTransport's NIC model reads; the socket
  // carries the encoded envelope. Thread-safe; on the event-loop thread only a callback's
  // first frame per peer flushes at once, the rest when the callback returns.
  void Send(NodeAddress src, NodeAddress dst, MessageKind kind, ParameterBlob bytes,
            std::int64_t cost_bytes) override;

  // ---- Backpressure / traffic counters ----
  // Declared once for both forms: `Counters` is the plain snapshot counters() returns (the
  // `tcp` registry group); the endpoint keeps the live form in relaxed atomics.
  template <typename T>
  struct CounterFields {
    T frames_sent{};
    T frames_received{};
    T payload_bytes_sent{};
    T writev_calls{};       // gather-write syscalls (sendmsg) on the send path
    T partial_writes{};     // flushes that left queued bytes behind
    T peak_queued_bytes{};
    T queued_bytes{};       // currently waiting behind the socket
    T connection_losses{};  // sockets torn down outside orderly shutdown
    T redials{};            // reconnect attempts (dialer side)
    T redials_succeeded{};  // reconnects that re-established the link

    static constexpr const char* kGroupName = "tcp";
    // Calls visit(name, self.field...) for each field, walking one or more structs with
    // these fields side by side.
    template <typename V, typename... Self>
    static void ForEachField(V&& visit, Self&... self) {
      visit("frames_sent", self.frames_sent...);
      visit("frames_received", self.frames_received...);
      visit("payload_bytes_sent", self.payload_bytes_sent...);
      visit("writev_calls", self.writev_calls...);
      visit("partial_writes", self.partial_writes...);
      visit("peak_queued_bytes", self.peak_queued_bytes...);
      visit("queued_bytes", self.queued_bytes...);
      visit("connection_losses", self.connection_losses...);
      visit("redials", self.redials...);
      visit("redials_succeeded", self.redials_succeeded...);
    }
    template <typename V>
    void VisitFields(V&& visit) const {
      ForEachField(visit, *this);
    }
  };
  using Counters = CounterFields<std::uint64_t>;
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
    std::deque<QueuedFrame> send_queue;
    std::size_t send_offset = 0;  // written bytes of the front frame, header first
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
  // Bootstrap: wraps a fresh socket in a new Connection to `peer`.
  Connection* AdoptSocket(int fd, NodeAddress peer);
  // Event-loop thread: swaps the fresh socket `fd` into `conn` to heal a lost connection,
  // from a redial or a runtime re-accept. Registers it with epoll before publishing it
  // under `send_mutex`, retires an older socket the loss path has not torn down yet,
  // rewinds the front frame, clears the outage state and flushes the backlog.
  void InstallSocket(Connection* conn, int fd);
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
  // Event-loop thread: runtime accept — installs a fresh socket in the peer's Connection.
  void AcceptReady();
  // Drains the timerfd and runs every due timer callback (event-loop thread).
  void FireTimers();
  // Programs the timerfd to the heap's next deadline. Requires `timer_mutex_`.
  void ArmTimerLocked();

  NodeAddress self_;
  Handler handler_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;   // eventfd: kicks the loop for shutdown
  int timer_fd_ = -1;  // timerfd driving the heap, CLOCK_MONOTONIC
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
  TimerHeap timers_;
  std::function<void(NodeAddress)> peer_loss_handler_;

  // Adds `n` bytes to the send backlog and raises the peak to match.
  void AddQueuedBytes(std::uint64_t n);

  // The live counters behind counters(), bumped by any sending thread and the event loop
  // without a lock.
  CounterFields<std::atomic<std::uint64_t>> counters_;
};

}  // namespace nimbus::net

#endif  // NIMBUS_SRC_NET_TCP_TRANSPORT_H_
