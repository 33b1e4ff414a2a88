#include "src/net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstring>
#include <ctime>
#include <utility>

#include "src/common/logging.h"

namespace nimbus::net {

namespace {

constexpr std::uint8_t kHelloKind = 0xFF;
// Loopback frames are trusted, but a corrupt length would allocate unbounded memory:
// bound it well above any real envelope (worker halves of huge blocks are ~MBs).
constexpr std::uint32_t kMaxFramePayload = 1u << 30;

// Redial policy: bounded exponential backoff before the peer is declared unreachable.
// Loopback connects resolve instantly, so the budget is dominated by the backoff sum
// (20 + 40 + 80 + 160 ms) — comfortably under typical suspicion timeouts, so a transient
// sever heals before the heartbeat path escalates.
constexpr int kMaxRedialAttempts = 4;
constexpr sim::Duration kRedialBackoffBase = sim::Millis(20);

// Frames gathered into one writev: the kernel's per-call iovec limit.
constexpr int kMaxGather = IOV_MAX;

// The endpoint whose event loop runs on this thread (null elsewhere). Set once by
// EventLoop on its own thread and never read across threads, so it needs no
// synchronization; Send compares it against `this` to choose deferred vs eager flushing.
thread_local const TcpEndpoint* t_loop_owner = nullptr;

// A read/write errno that means the connection is gone (vs a programming error).
bool IsConnectionLossErrno(int err) {
  return err == ECONNRESET || err == EPIPE || err == ETIMEDOUT || err == ENOTCONN ||
         err == ECONNABORTED || err == EPROTO;
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  NIMBUS_CHECK_GE(flags, 0) << "fcntl(F_GETFL): " << std::strerror(errno);
  NIMBUS_CHECK_GE(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0)
      << "fcntl(F_SETFL): " << std::strerror(errno);
}

// Registers `fd` with `epoll_fd` for EPOLLIN (level-triggered; a connection arms EPOLLOUT
// on demand), tagged with `tag`, which EventLoop uses to tell the fds apart.
void WatchReadable(int epoll_fd, int fd, void* tag) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = tag;
  NIMBUS_CHECK_GE(::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev), 0)
      << "epoll_ctl(add): " << std::strerror(errno);
}

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void SetNoDelay(int fd) {
  const int one = 1;
  NIMBUS_CHECK_GE(::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)), 0)
      << "setsockopt(TCP_NODELAY): " << std::strerror(errno);
}

// Dials 127.0.0.1:`port` and writes the hello frame that names `self` to the acceptor:
// at bootstrap and on every redial. The socket stays blocking for the hello and returns
// non-blocking with TCP_NODELAY set. MSG_NOSIGNAL, like every socket write here: a send
// on a reset socket must surface as EPIPE, not kill the process with SIGPIPE. Returns -1
// with the connect errno when no listener took the connection.
int DialHello(NodeAddress self, NodeAddress peer, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  NIMBUS_CHECK_GE(fd, 0) << "socket: " << std::strerror(errno);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  SetNoDelay(fd);
  const FrameHeader hello = MakeFrameHeader(kHelloKind, self, peer, 0);
  std::size_t done = 0;
  while (done < hello.size()) {
    const ssize_t w = ::send(fd, hello.data() + done, hello.size() - done, MSG_NOSIGNAL);
    NIMBUS_CHECK_GT(w, 0) << "hello write: " << std::strerror(errno);
    done += static_cast<std::size_t>(w);
  }
  SetNonBlocking(fd);
  return fd;
}

// Accepts one connection on `listen_fd` and reads its hello frame into `*peer`, the
// dialing node: at bootstrap and on every runtime re-accept. The dialer writes its hello
// right after connect, so the blocking read waits only for that. Returns the socket
// non-blocking with TCP_NODELAY set, or -1 with the accept errno.
int AcceptHello(int listen_fd, NodeAddress* peer) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    return -1;
  }
  SetNoDelay(fd);
  std::uint8_t header[kFrameHeaderSize];
  std::size_t done = 0;
  while (done < sizeof(header)) {
    const ssize_t r = ::read(fd, header + done, sizeof(header) - done);
    NIMBUS_CHECK_GT(r, 0) << "hello read: " << std::strerror(errno);
    done += static_cast<std::size_t>(r);
  }
  const FrameFields hello = ParseFrameHeader(header);
  NIMBUS_CHECK_EQ(static_cast<int>(hello.kind), static_cast<int>(kHelloKind))
      << "accept: expected a hello frame";
  NIMBUS_CHECK_EQ(hello.payload_len, 0u) << "accept: hello frames carry no payload";
  *peer = hello.src;
  SetNonBlocking(fd);
  return fd;
}

}  // namespace

FrameHeader MakeFrameHeader(std::uint8_t kind, NodeAddress src, NodeAddress dst,
                            std::size_t payload_size) {
  // Check the size_t: a narrowed length of a 4 GiB payload would wrap and pass.
  NIMBUS_CHECK_LE(payload_size, kMaxFramePayload) << "frame payload too large";
  const auto len = static_cast<std::uint32_t>(payload_size);
  const std::int64_t s = src.value();
  const std::int64_t d = dst.value();
  FrameHeader header{};
  std::memcpy(header.data(), &len, sizeof(len));
  header[4] = kind;
  std::memcpy(header.data() + 5, &s, sizeof(s));
  std::memcpy(header.data() + 13, &d, sizeof(d));
  return header;
}

int GatherFrames(const std::deque<QueuedFrame>& queue, std::size_t offset, iovec* iov,
                 int max_iov) {
  int n = 0;
  for (const QueuedFrame& frame : queue) {
    if (offset < kFrameHeaderSize) {
      if (n == max_iov) {
        break;
      }
      iov[n].iov_base = const_cast<std::uint8_t*>(frame.header.data()) + offset;
      iov[n].iov_len = kFrameHeaderSize - offset;
      ++n;
      offset = kFrameHeaderSize;
    }
    if (offset < frame.size()) {
      if (n == max_iov) {
        break;
      }
      iov[n].iov_base =
          const_cast<std::uint8_t*>(frame.payload.data()) + (offset - kFrameHeaderSize);
      iov[n].iov_len = frame.size() - offset;
      ++n;
    }
    offset = 0;
  }
  return n;
}

TcpEndpoint::TcpEndpoint(NodeAddress self) : self_(self) {}

TcpEndpoint::~TcpEndpoint() { Shutdown(); }

std::uint16_t TcpEndpoint::Listen() {
  // Port 0 hands port selection to the kernel, so parallel ctest runs cannot collide by
  // construction; the EADDRINUSE retry additionally guards the ephemeral-reuse race where
  // the kernel hands back a port mid-teardown from another process.
  for (int attempt = 0;; ++attempt) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    NIMBUS_CHECK_GE(listen_fd_, 0) << "socket: " << std::strerror(errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // kernel-chosen
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::listen(listen_fd_, 64) == 0) {
      break;
    }
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    NIMBUS_CHECK(err == EADDRINUSE && attempt < 4)
        << "bind/listen: " << std::strerror(err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  NIMBUS_CHECK_GE(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len), 0)
      << "getsockname: " << std::strerror(errno);
  return ntohs(bound.sin_port);
}

void TcpEndpoint::DialPeer(NodeAddress peer, std::uint16_t port) {
  const int fd = DialHello(self_, peer, port);
  NIMBUS_CHECK_GE(fd, 0) << "connect to " << peer << ": " << std::strerror(errno);
  Connection* conn = AdoptSocket(fd, peer);
  conn->dialer = true;
  conn->peer_port = port;  // kept for redial after a connection loss
}

void TcpEndpoint::AcceptPeer() {
  NIMBUS_CHECK_GE(listen_fd_, 0) << "AcceptPeer before Listen";
  NodeAddress peer;
  const int fd = AcceptHello(listen_fd_, &peer);
  NIMBUS_CHECK_GE(fd, 0) << "accept: " << std::strerror(errno);
  AdoptSocket(fd, peer);
}

TcpEndpoint::Connection* TcpEndpoint::AdoptSocket(int fd, NodeAddress peer) {
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->peer = peer;
  const std::size_t index = peer.DenseIndex();
  if (index >= by_peer_.size()) {
    by_peer_.resize(index + 1, nullptr);
  }
  NIMBUS_CHECK(by_peer_[index] == nullptr) << "duplicate connection to " << peer;
  by_peer_[index] = conn.get();
  connections_.push_back(std::move(conn));
  return by_peer_[index];
}

void TcpEndpoint::Start() {
  NIMBUS_CHECK(!running_.load()) << "endpoint already started";
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  NIMBUS_CHECK_GE(epoll_fd_, 0) << "epoll_create1: " << std::strerror(errno);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  NIMBUS_CHECK_GE(wake_fd_, 0) << "eventfd: " << std::strerror(errno);
  WatchReadable(epoll_fd_, wake_fd_, nullptr);  // wake marker
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  NIMBUS_CHECK_GE(timer_fd_, 0) << "timerfd_create: " << std::strerror(errno);
  WatchReadable(epoll_fd_, timer_fd_, &timer_fd_);  // timer marker
  {
    // Timers scheduled before Start have been accumulating in the heap; arm for them.
    std::lock_guard<std::mutex> lock(timer_mutex_);
    ArmTimerLocked();
  }
  if (listen_fd_ >= 0) {
    // The listener stays in the loop for runtime re-accepts after a connection loss.
    WatchReadable(epoll_fd_, listen_fd_, &listen_fd_);  // accept marker
  }
  for (auto& conn : connections_) {
    WatchReadable(epoll_fd_, conn->fd, conn.get());
  }
  running_.store(true);
  // Thread creation happens-before the loop body: every connection and the handler
  // registered above are visible to the loop without further synchronization.
  loop_ = std::thread([this]() { EventLoop(); });
}

void TcpEndpoint::PrepareShutdown() { draining_.store(true); }

void TcpEndpoint::Shutdown() {
  draining_.store(true);
  if (running_.exchange(false)) {
    stop_.store(true);
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t w = ::write(wake_fd_, &one, sizeof(one));
    loop_.join();
  }
  for (auto& conn : connections_) {
    CloseFd(conn->fd);
  }
  CloseFd(epoll_fd_);
  CloseFd(timer_fd_);
  CloseFd(wake_fd_);
  CloseFd(listen_fd_);
}

void TcpEndpoint::RegisterHandler(NodeAddress node, Handler handler) {
  NIMBUS_CHECK(node == self_) << "endpoint " << self_ << " cannot deliver for " << node;
  handler_ = std::move(handler);
}

TcpEndpoint::Connection* TcpEndpoint::ConnectionTo(NodeAddress peer) const {
  const std::size_t index = peer.DenseIndex();
  NIMBUS_CHECK(index < by_peer_.size() && by_peer_[index] != nullptr)
      << "no standing connection " << self_ << " -> " << peer;
  return by_peer_[index];
}

void TcpEndpoint::Send(NodeAddress src, NodeAddress dst, MessageKind kind,
                       ParameterBlob bytes, std::int64_t /*cost_bytes*/) {
  NIMBUS_CHECK(src == self_) << "endpoint " << self_ << " cannot send as " << src;
  counters_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  counters_.payload_bytes_sent.fetch_add(bytes.size(), std::memory_order_relaxed);
  if (dst == self_) {
    // Self-sends short-circuit the socket (no node pair dials itself).
    NIMBUS_CHECK(handler_) << "no delivery handler registered for " << self_;
    handler_(src, kind, std::move(bytes));
    return;
  }
  const FrameHeader header =
      MakeFrameHeader(static_cast<std::uint8_t>(kind), src, dst, bytes.size());
  Connection* conn = ConnectionTo(dst);
  std::lock_guard<std::mutex> lock(conn->send_mutex);
  AddQueuedBytes(kFrameHeaderSize + bytes.size());
  conn->send_queue.push_back(QueuedFrame{header, std::move(bytes)});
  if (t_loop_owner == this) {
    // Event-loop thread: the running callback's first frame to this peer leaves at once,
    // so a lone reply or instantiate message waits for nothing the callback does after
    // it. Later frames queue behind it, and FlushPending gathers them into one writev
    // when the callback returns.
    if (conn->flush_pending) {
      return;
    }
    conn->flush_pending = true;
    pending_flush_.push_back(conn);
  }
  // Eager flush; a stalled socket leaves the tail queued and arms EPOLLOUT so the event
  // loop finishes the job (backpressure path).
  FlushLocked(conn);
}

void TcpEndpoint::FlushPending() {
  for (Connection* conn : pending_flush_) {
    conn->flush_pending = false;
    std::lock_guard<std::mutex> lock(conn->send_mutex);
    FlushLocked(conn);
  }
  pending_flush_.clear();
}

void TcpEndpoint::AddQueuedBytes(std::uint64_t n) {
  const std::uint64_t queued =
      counters_.queued_bytes.fetch_add(n, std::memory_order_relaxed) + n;
  std::uint64_t peak = counters_.peak_queued_bytes.load(std::memory_order_relaxed);
  while (queued > peak && !counters_.peak_queued_bytes.compare_exchange_weak(
                              peak, queued, std::memory_order_relaxed)) {
  }
}

void TcpEndpoint::RewindFrontLocked(Connection* conn) {
  // FlushLocked already subtracted these bytes; the resend will subtract them again.
  counters_.queued_bytes.fetch_add(conn->send_offset, std::memory_order_relaxed);
  conn->send_offset = 0;
}

void TcpEndpoint::FlushLocked(Connection* conn) {
  if (conn->fd < 0) {
    return;  // connection down: frames stay queued and resend after redial/re-accept
  }
  while (!conn->send_queue.empty()) {
    // Gather up to IOV_MAX iovecs, two per frame, into one writev (per-task dispatch and
    // patch copies queue many small frames back to back; a deferred loop-thread flush
    // drains a whole handler's fan-out to this peer at once).
    iovec iov[kMaxGather];
    const int iovcnt = GatherFrames(conn->send_queue, conn->send_offset, iov, kMaxGather);
    // sendmsg is writev plus flags: MSG_NOSIGNAL turns a send on a reset or shut-down
    // socket (SeverPeer, a peer crash) into EPIPE for the loss path below instead of a
    // process-killing SIGPIPE. The counter stays `writev_calls`: benchmarks read that name.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t written = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    const int err = errno;  // before any other call can clobber it
    counters_.writev_calls.fetch_add(1, std::memory_order_relaxed);
    if (written < 0) {
      if (err != EAGAIN && err != EWOULDBLOCK) {
        NIMBUS_CHECK(IsConnectionLossErrno(err))
            << "sendmsg to " << conn->peer << ": " << std::strerror(err);
        // The peer is gone. Leave the backlog queued; the event loop observes the errored
        // socket (EPOLLERR/EPOLLHUP) and runs the loss path, which may be mid-flight on
        // another thread right now — senders never tear sockets down themselves.
        break;
      }
      break;  // socket full: EPOLLOUT will resume
    }
    std::size_t remaining = static_cast<std::size_t>(written);
    counters_.queued_bytes.fetch_sub(remaining, std::memory_order_relaxed);
    while (remaining > 0) {
      const QueuedFrame& front = conn->send_queue.front();
      const std::size_t left = front.size() - conn->send_offset;
      if (remaining >= left) {
        remaining -= left;
        conn->send_offset = 0;
        conn->send_queue.pop_front();
      } else {
        conn->send_offset += remaining;
        remaining = 0;
      }
    }
  }
  const bool backlog = !conn->send_queue.empty();
  if (backlog) {
    counters_.partial_writes.fetch_add(1, std::memory_order_relaxed);
  }
  if (backlog != conn->want_write && running_.load()) {
    conn->want_write = backlog;
    UpdateEpoll(conn, backlog);
  } else {
    conn->want_write = backlog;
  }
}

void TcpEndpoint::UpdateEpoll(Connection* conn, bool want_write) {
  if (conn->fd < 0) {
    return;  // connection down; reconnect re-registers with EPOLLIN and re-flushes
  }
  if (epoll_fd_ < 0) {
    return;  // bootstrap-phase send (loop not started yet); Start() arms EPOLLIN only,
             // and the first event-loop flush re-arms EPOLLOUT if the backlog persists
  }
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.ptr = conn;
  NIMBUS_CHECK_GE(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev), 0)
      << "epoll_ctl(mod): " << std::strerror(errno);
}

void TcpEndpoint::EventLoop() {
  t_loop_owner = this;
  epoll_event events[64];
  while (!stop_.load()) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      NIMBUS_CHECK(errno == EINTR) << "epoll_wait: " << std::strerror(errno);
      continue;
    }
    for (int i = 0; i < n; ++i) {
      void* ptr = events[i].data.ptr;
      if (ptr == nullptr) {
        std::uint64_t drain = 0;
        [[maybe_unused]] const ssize_t r = ::read(wake_fd_, &drain, sizeof(drain));
        continue;  // wake: loop re-checks stop_
      }
      if (ptr == static_cast<void*>(&timer_fd_)) {
        FireTimers();
        continue;
      }
      if (ptr == static_cast<void*>(&listen_fd_)) {
        AcceptReady();
        continue;
      }
      auto* conn = static_cast<Connection*>(ptr);
      if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        ReadReady(conn);
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        std::lock_guard<std::mutex> lock(conn->send_mutex);
        FlushLocked(conn);
      }
    }
  }
}

void TcpEndpoint::ReadReady(Connection* conn) {
  if (conn->fd < 0) {
    return;  // stale event for a socket the loss path already tore down
  }
  std::uint8_t buf[65536];
  while (true) {
    const ssize_t r = ::read(conn->fd, buf, sizeof(buf));
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (r <= 0) {
      // Read-zero (the peer closed) or a reset. During orderly teardown this is expected;
      // otherwise it enters the loss path (redial / suspicion).
      NIMBUS_CHECK(r == 0 || IsConnectionLossErrno(errno))
          << "read from " << conn->peer << ": " << std::strerror(errno);
      DrainFrames(conn);  // deliver complete frames that beat the failure
      HandleConnectionLoss(conn);
      return;
    }
    conn->recv_buffer.insert(conn->recv_buffer.end(), buf, buf + r);
  }
  DrainFrames(conn);
}

void TcpEndpoint::HandleConnectionLoss(Connection* conn) {
  if (conn->fd < 0) {
    return;
  }
  const bool orderly = stop_.load() || draining_.load();
  {
    std::lock_guard<std::mutex> lock(conn->send_mutex);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    CloseFd(conn->fd);
    // Resend the front frame from byte zero after reconnect: frame-granularity
    // at-least-once. The receiver discards the dead socket's partial frame, so a frame
    // cut mid-write is still delivered exactly once. Deterministic fault tests only sever
    // at quiescent points, so replays cannot duplicate.
    RewindFrontLocked(conn);
    conn->want_write = false;
  }
  conn->recv_buffer.clear();  // a partial frame from the dead socket is garbage
  if (orderly) {
    return;  // the whole mesh is coming down; nothing to heal, nobody to suspect
  }
  counters_.connection_losses.fetch_add(1, std::memory_order_relaxed);
  if (conn->dialer) {
    conn->redial_attempts = 0;
    ScheduleTimer(kRedialBackoffBase, [this, conn]() { TryRedial(conn); });
  }
  // Acceptor side: the original dialer redials; the listening socket re-accepts.
}

void TcpEndpoint::TryRedial(Connection* conn) {
  if (stop_.load() || draining_.load() || conn->fd >= 0 || conn->declared_lost) {
    return;  // torn down, already healed by a concurrent re-accept, or given up
  }
  counters_.redials.fetch_add(1, std::memory_order_relaxed);
  const int fd = DialHello(self_, conn->peer, conn->peer_port);
  if (fd < 0) {
    ++conn->redial_attempts;
    if (conn->redial_attempts >= kMaxRedialAttempts) {
      conn->declared_lost = true;
      if (peer_loss_handler_) {
        peer_loss_handler_(conn->peer);
      }
      return;
    }
    // Exponential backoff: base << attempts.
    ScheduleTimer(kRedialBackoffBase << conn->redial_attempts,
                  [this, conn]() { TryRedial(conn); });
    return;
  }
  counters_.redials_succeeded.fetch_add(1, std::memory_order_relaxed);
  InstallSocket(conn, fd);
}

void TcpEndpoint::AcceptReady() {
  // One accept per EPOLLIN event; the level-triggered loop fires again if more wait.
  NodeAddress peer;
  const int fd = AcceptHello(listen_fd_, &peer);
  if (fd < 0) {
    return;  // raced shutdown or a dialer that gave up mid-handshake
  }
  if (stop_.load() || draining_.load()) {
    ::close(fd);
    return;
  }
  InstallSocket(ConnectionTo(peer), fd);
}

void TcpEndpoint::InstallSocket(Connection* conn, int fd) {
  conn->recv_buffer.clear();
  // epoll ADD before publishing the fd: once conn->fd is set, a concurrent sender's
  // FlushLocked may arm EPOLLOUT via MOD, which requires prior registration.
  WatchReadable(epoll_fd_, fd, conn);
  std::lock_guard<std::mutex> lock(conn->send_mutex);
  if (conn->fd >= 0) {
    // Re-accept only: the peer redialed before we observed the old socket dying.
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
  }
  conn->fd = fd;
  RewindFrontLocked(conn);
  conn->want_write = false;
  conn->redial_attempts = 0;
  conn->declared_lost = false;
  FlushLocked(conn);  // backlogged frames from the outage go out now
}

void TcpEndpoint::FireTimers() {
  std::uint64_t expirations = 0;
  [[maybe_unused]] const ssize_t r = ::read(timer_fd_, &expirations, sizeof(expirations));
  std::vector<std::function<void()>> due;
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    due = timers_.PopDue(NowNanos());
    ArmTimerLocked();
  }
  // Outside the lock: callbacks routinely schedule follow-up timers.
  for (auto& fn : due) {
    fn();
  }
  FlushPending();  // what the callbacks sent: heartbeats, loss-handler fallout
}

void TcpEndpoint::ArmTimerLocked() {
  if (timer_fd_ < 0) {
    return;
  }
  itimerspec spec{};  // all-zero it_value disarms
  const sim::TimePoint next = timers_.NextDeadline();
  if (next != TimerHeap::kNever) {
    spec.it_value.tv_sec = static_cast<time_t>(next / 1000000000);
    spec.it_value.tv_nsec = static_cast<long>(next % 1000000000);
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
      spec.it_value.tv_nsec = 1;  // "now" must still arm, not disarm
    }
  }
  NIMBUS_CHECK_GE(::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr), 0)
      << "timerfd_settime: " << std::strerror(errno);
}

void TcpEndpoint::ScheduleTimer(sim::Duration delay, std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(timer_mutex_);
  timers_.Schedule(NowNanos(), delay, std::move(fn));
  ArmTimerLocked();  // no-op before Start (timer_fd_ not created yet)
}

sim::TimePoint TcpEndpoint::NowNanos() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<sim::TimePoint>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void TcpEndpoint::SetPeerLossHandler(std::function<void(NodeAddress)> fn) {
  NIMBUS_CHECK(!running_.load()) << "set the loss handler before Start";
  peer_loss_handler_ = std::move(fn);
}

void TcpEndpoint::SeverPeer(NodeAddress peer) {
  Connection* conn = ConnectionTo(peer);
  std::lock_guard<std::mutex> lock(conn->send_mutex);
  if (conn->fd >= 0) {
    // shutdown(2), not close: both event loops observe read-zero on a still-valid fd and
    // run their loss paths symmetrically.
    ::shutdown(conn->fd, SHUT_RDWR);
  }
}

void TcpEndpoint::DrainFrames(Connection* conn) {
  std::size_t cursor = 0;
  std::vector<std::uint8_t>& rb = conn->recv_buffer;
  while (rb.size() - cursor >= kFrameHeaderSize) {
    const FrameFields header = ParseFrameHeader(rb.data() + cursor);
    const std::uint32_t payload_len = header.payload_len;
    NIMBUS_CHECK_LE(payload_len, kMaxFramePayload) << "corrupt frame length";
    if (rb.size() - cursor - kFrameHeaderSize < payload_len) {
      break;  // partial frame: wait for more bytes
    }
    NIMBUS_CHECK_EQ(header.dst.value(), self_.value()) << "misrouted frame on " << self_;
    NIMBUS_CHECK_LT(header.kind, kMessageKindCount) << "corrupt frame kind";
    ParameterBlob payload(rb.begin() + static_cast<std::ptrdiff_t>(cursor +
                                                                   kFrameHeaderSize),
                          rb.begin() + static_cast<std::ptrdiff_t>(cursor +
                                                                   kFrameHeaderSize +
                                                                   payload_len));
    cursor += kFrameHeaderSize + payload_len;
    counters_.frames_received.fetch_add(1, std::memory_order_relaxed);
    NIMBUS_CHECK(handler_) << "no delivery handler registered for " << self_;
    handler_(header.src, static_cast<MessageKind>(header.kind), std::move(payload));
    // The handler (and the cluster's node-mutex wrapper) has returned: ship what it sent.
    FlushPending();
  }
  if (cursor > 0) {
    rb.erase(rb.begin(), rb.begin() + static_cast<std::ptrdiff_t>(cursor));
  }
}

TcpEndpoint::Counters TcpEndpoint::counters() const {
  Counters c;
  Counters::ForEachField(
      [](const char*, std::uint64_t& out, const std::atomic<std::uint64_t>& live) {
        out = live.load(std::memory_order_relaxed);
      },
      c, counters_);
  return c;
}

}  // namespace nimbus::net
