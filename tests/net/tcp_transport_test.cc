// TcpEndpoint send path (src/net/tcp_transport.h, DESIGN.md §13.3): sends issued on an
// endpoint's own event-loop thread are deferred and flushed as one gather write per
// connection when the delivery handler returns; sends from any other thread flush eagerly.
// Each test builds a bare loopback mesh of endpoints, bootstrapped the way the cluster
// does it, and pins delivery (exactly once, in order) alongside the writev accounting;
// one checks that a send on a severed socket fails softly (no SIGPIPE).

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/net/tcp_transport.h"

namespace nimbus {
namespace {

using net::NodeAddress;
using net::TcpEndpoint;

constexpr auto kDeadline = std::chrono::seconds(20);

NodeAddress AddressOfDense(int dense) {
  if (dense == 0) {
    return NodeAddress::Driver();
  }
  if (dense == 1) {
    return NodeAddress::Controller();
  }
  return NodeAddress::ForWorker(WorkerId(static_cast<std::uint64_t>(dense - 2)));
}

// Payloads lead with a u32 sequence number; `extra` bytes of a fixed pattern follow.
ParameterBlob Frame(std::uint32_t seq, std::size_t extra = 0) {
  ParameterBlob bytes(sizeof(seq) + extra);
  std::memcpy(bytes.data(), &seq, sizeof(seq));
  for (std::size_t i = 0; i < extra; ++i) {
    bytes[sizeof(seq) + i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  return bytes;
}

std::uint32_t SeqOf(const ParameterBlob& bytes) {
  std::uint32_t seq = 0;
  std::memcpy(&seq, bytes.data(), sizeof(seq));
  return seq;
}

void SendFrame(TcpEndpoint& from, NodeAddress to, ParameterBlob bytes) {
  from.Send(from.self(), to, MessageKind::kCommand, std::move(bytes), -1);
}

std::vector<std::uint32_t> Iota(std::uint32_t first, std::uint32_t count) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < count; ++i) {
    out.push_back(first + i);
  }
  return out;
}

// Polls `pred` until it holds or the deadline passes.
bool Eventually(const std::function<bool()>& pred) {
  const auto until = std::chrono::steady_clock::now() + kDeadline;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > until) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Everything one endpoint received, per source, in arrival order.
class Inbox {
 public:
  void Record(NodeAddress src, const ParameterBlob& bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    frames_.push_back({src, bytes});
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_.size();
  }
  std::vector<std::uint32_t> SeqsFrom(NodeAddress src) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::uint32_t> seqs;
    for (const auto& f : frames_) {
      if (f.src == src) {
        seqs.push_back(SeqOf(f.bytes));
      }
    }
    return seqs;
  }
  ParameterBlob BytesOf(std::uint32_t seq) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& f : frames_) {
      if (SeqOf(f.bytes) == seq) {
        return f.bytes;
      }
    }
    return {};
  }

 private:
  struct Received {
    NodeAddress src;
    ParameterBlob bytes;
  };
  mutable std::mutex mu_;
  std::vector<Received> frames_;
};

// A full loopback mesh of `n` endpoints (dense order: driver, controller, workers). The
// lower dense index dials, as in the cluster. Register handlers, then Start().
class Mesh {
 public:
  explicit Mesh(int n) : inboxes_(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) {
      endpoints_.push_back(std::make_unique<TcpEndpoint>(AddressOfDense(i)));
    }
    std::vector<std::uint16_t> ports;
    for (auto& e : endpoints_) {
      ports.push_back(e->Listen());
    }
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      for (std::size_t j = i + 1; j < endpoints_.size(); ++j) {
        endpoints_[i]->DialPeer(endpoints_[j]->self(), ports[j]);
        endpoints_[j]->AcceptPeer();
      }
    }
  }
  ~Mesh() {
    for (auto& e : endpoints_) {
      e->PrepareShutdown();
    }
    for (auto& e : endpoints_) {
      e->Shutdown();
    }
  }

  TcpEndpoint& at(int i) { return *endpoints_[static_cast<std::size_t>(i)]; }
  NodeAddress addr(int i) { return at(i).self(); }
  Inbox& inbox(int i) { return inboxes_[static_cast<std::size_t>(i)]; }

  // Installs a handler that records every frame, then runs `extra` (may be empty).
  void OnReceive(int i, std::function<void(NodeAddress, const ParameterBlob&)> extra) {
    at(i).RegisterHandler(addr(i), [this, i, extra = std::move(extra)](
                                       NodeAddress src, MessageKind, ParameterBlob bytes) {
      inbox(i).Record(src, bytes);
      if (extra) {
        extra(src, bytes);
      }
    });
  }
  void RecordOnly(int i) { OnReceive(i, nullptr); }

  void Start() {
    for (auto& e : endpoints_) {
      e->Start();
    }
  }

 private:
  std::vector<Inbox> inboxes_;  // outlives the endpoints' handlers (see ~Mesh)
  std::vector<std::unique_ptr<TcpEndpoint>> endpoints_;
};

// (a) A handler's fan-out to one peer is gathered: thousands of frames, a few writevs.
TEST(TcpTransportTest, HandlerFanOutToOnePeerCoalescesWrites) {
  constexpr std::uint32_t kFrames = 3000;
  Mesh mesh(2);
  mesh.RecordOnly(0);
  mesh.OnReceive(1, [&mesh](NodeAddress src, const ParameterBlob&) {
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      SendFrame(mesh.at(1), src, Frame(i));
    }
  });
  mesh.Start();

  SendFrame(mesh.at(0), mesh.addr(1), Frame(0));  // trigger
  ASSERT_TRUE(Eventually([&] { return mesh.inbox(0).size() >= kFrames; }));
  EXPECT_EQ(mesh.inbox(0).SeqsFrom(mesh.addr(1)), Iota(0, kFrames));

  const TcpEndpoint::Counters sender = mesh.at(1).counters();
  EXPECT_EQ(sender.frames_sent, kFrames);
  EXPECT_GE(sender.writev_calls, 1u);
  EXPECT_LE(sender.writev_calls, kFrames / 100);
  EXPECT_TRUE(Eventually([&] { return mesh.at(1).counters().queued_bytes == 0; }));
}

// (b) One handler sending to three peers delivers every frame to each, in order.
TEST(TcpTransportTest, HandlerFanOutToThreePeersDeliversEveryFrame) {
  constexpr std::uint32_t kPerPeer = 500;
  Mesh mesh(4);
  const std::vector<int> peers = {0, 2, 3};
  for (int p : peers) {
    mesh.RecordOnly(p);
  }
  mesh.OnReceive(1, [&mesh, peers](NodeAddress, const ParameterBlob&) {
    for (std::uint32_t i = 0; i < kPerPeer; ++i) {
      for (int p : peers) {
        SendFrame(mesh.at(1), mesh.addr(p), Frame(i));
      }
    }
  });
  mesh.Start();

  SendFrame(mesh.at(0), mesh.addr(1), Frame(0));  // trigger
  for (int p : peers) {
    ASSERT_TRUE(Eventually([&] { return mesh.inbox(p).size() >= kPerPeer; })) << "peer " << p;
    EXPECT_EQ(mesh.inbox(p).SeqsFrom(mesh.addr(1)), Iota(0, kPerPeer)) << "peer " << p;
  }
  const TcpEndpoint::Counters hub = mesh.at(1).counters();
  EXPECT_EQ(hub.frames_sent, kPerPeer * peers.size());
  EXPECT_LE(hub.writev_calls, hub.frames_sent / 100);
}

// (c) Sends from a thread that is not the endpoint's event loop keep the eager flush:
// one writev per frame. The counters also export through the metrics registry.
TEST(TcpTransportTest, NonLoopThreadSendsFlushEagerly) {
  constexpr std::uint32_t kFrames = 200;
  Mesh mesh(2);
  mesh.RecordOnly(0);
  mesh.RecordOnly(1);
  mesh.Start();

  for (std::uint32_t i = 0; i < kFrames; ++i) {
    SendFrame(mesh.at(0), mesh.addr(1), Frame(i));
  }
  ASSERT_TRUE(Eventually([&] { return mesh.inbox(1).size() >= kFrames; }));
  EXPECT_EQ(mesh.inbox(1).SeqsFrom(mesh.addr(0)), Iota(0, kFrames));

  const TcpEndpoint::Counters sender = mesh.at(0).counters();
  EXPECT_EQ(sender.writev_calls, kFrames);
  EXPECT_EQ(sender.partial_writes, 0u);

  metrics::Registry registry;
  registry.Register(&sender);
  const metrics::Snapshot snap = registry.Take();
  std::uint64_t value = 0;
  ASSERT_TRUE(registry.Value(snap, "tcp.writev_calls", &value));
  EXPECT_EQ(value, kFrames);
  ASSERT_TRUE(registry.Value(snap, "tcp.frames_sent", &value));
  EXPECT_EQ(value, kFrames);
}

// (d) A connection cut in the middle of a frame: the front frame resends whole on the
// redialed socket, every frame arrives exactly once and in order, and the sender's
// queued-bytes gauge returns to exactly zero (the partially written bytes are not
// double-subtracted).
TEST(TcpTransportTest, SeverMidFrameResendsWholeFrameAndDrainsQueuedBytes) {
  // Far beyond what a non-reading peer's socket buffers absorb on loopback.
  constexpr std::size_t kBigExtra = 16u << 20;
  constexpr std::uint32_t kTrailing = 4;
  Mesh mesh(2);  // endpoint 0 dials (and redials) endpoint 1
  std::mutex mu;
  std::condition_variable cv;
  bool blocked = false;   // guarded by mu: the receiver's handler is parked
  bool release = false;   // guarded by mu
  mesh.RecordOnly(0);
  mesh.OnReceive(1, [&](NodeAddress, const ParameterBlob& bytes) {
    if (SeqOf(bytes) != 0) {
      return;
    }
    // Park the receiver's event loop so the sender's socket fills mid-frame.
    std::unique_lock<std::mutex> lock(mu);
    blocked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  mesh.Start();
  TcpEndpoint& sender = mesh.at(0);
  const NodeAddress receiver = mesh.addr(1);

  SendFrame(sender, receiver, Frame(0));
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, kDeadline, [&] { return blocked; }));
  }
  SendFrame(sender, receiver, Frame(1, kBigExtra));
  for (std::uint32_t i = 0; i < kTrailing; ++i) {
    SendFrame(sender, receiver, Frame(2 + i));
  }
  // Bytes still queued: the big frame and the trailing ones, minus the big frame's
  // prefix the socket accepted. Strictly between the two means the cut is mid-frame.
  constexpr std::size_t kHeader = 4 + 1 + 8 + 8;
  const std::size_t backlog = kHeader + sizeof(std::uint32_t) + kBigExtra +
                              kTrailing * (kHeader + sizeof(std::uint32_t));
  const TcpEndpoint::Counters before = sender.counters();
  const bool mid_frame = before.queued_bytes > 0 && before.queued_bytes < backlog;

  sender.SeverPeer(receiver);
  const bool lost = Eventually([&] { return sender.counters().connection_losses == 1; });
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(mid_frame) << "queued " << before.queued_bytes << " of " << backlog;
  ASSERT_TRUE(lost);

  ASSERT_TRUE(Eventually([&] { return mesh.inbox(1).size() >= 2 + kTrailing; }));
  EXPECT_EQ(mesh.inbox(1).SeqsFrom(mesh.addr(0)), Iota(0, 2 + kTrailing));
  EXPECT_EQ(mesh.inbox(1).BytesOf(1), Frame(1, kBigExtra));

  EXPECT_TRUE(Eventually([&] { return sender.counters().queued_bytes == 0; }))
      << "queued_bytes " << sender.counters().queued_bytes;
  const TcpEndpoint::Counters after = sender.counters();
  EXPECT_GE(after.redials_succeeded, 1u);
  EXPECT_GE(after.partial_writes, 1u);
  EXPECT_LE(after.peak_queued_bytes, backlog + kHeader + sizeof(std::uint32_t));
}

// (e) A send racing a sever: SeverPeer shuts the local socket down, so the next write
// fails. The endpoints are never started, so the send flushes eagerly on this thread and
// no event loop runs the loss path. The write must come back as EPIPE (the process is not
// killed by SIGPIPE) and leave the frame queued, whole, for the resend after a redial.
TEST(TcpTransportTest, SendAfterSeverKeepsProcessAliveAndFrameQueued) {
  Mesh mesh(2);
  TcpEndpoint& sender = mesh.at(0);
  sender.SeverPeer(mesh.addr(1));
  SendFrame(sender, mesh.addr(1), Frame(7));

  constexpr std::size_t kHeader = 4 + 1 + 8 + 8;
  const TcpEndpoint::Counters after = sender.counters();
  EXPECT_EQ(after.frames_sent, 1u);
  EXPECT_EQ(after.writev_calls, 1u);
  EXPECT_EQ(after.queued_bytes, kHeader + sizeof(std::uint32_t));
  EXPECT_EQ(after.connection_losses, 0u);  // only the (unstarted) event loop declares one
}

}  // namespace
}  // namespace nimbus
