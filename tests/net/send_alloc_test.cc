// TcpEndpoint::Send moves its payload into the connection's queue beside a fixed-size
// header (DESIGN.md §13.3): no frame buffer is built and nothing is copied, so a send
// allocates only when the queue's deque needs a new node. This binary replaces the global
// operator new with a counting one, so it is its own test executable and stays out of the
// sanitizer builds (which interpose operator new too).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "src/net/tcp_transport.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nimbus {
namespace {

using net::NodeAddress;
using net::TcpEndpoint;

// 1,000 sends of prebuilt payloads over a standing connection (bootstrapped, not started:
// every send flushes eagerly on this thread) allocate at most one deque node per eight
// frames. A send that copied each payload into a frame buffer would allocate per frame.
TEST(SendAllocTest, SendsOfPrebuiltPayloadsAllocateOnlyQueueNodes) {
  constexpr int kSends = 1000;
  TcpEndpoint sender(NodeAddress::Controller());
  TcpEndpoint receiver(NodeAddress::ForWorker(WorkerId(0)));
  const std::uint16_t port = receiver.Listen();
  sender.DialPeer(receiver.self(), port);
  receiver.AcceptPeer();

  std::vector<ParameterBlob> payloads;
  for (int i = 0; i < kSends; ++i) {
    payloads.emplace_back(100, static_cast<std::uint8_t>(i));
  }
  const std::uint64_t before = g_allocations.load();
  for (ParameterBlob& payload : payloads) {
    sender.Send(sender.self(), receiver.self(), MessageKind::kCommand, std::move(payload), -1);
  }
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_LE(allocations, static_cast<std::uint64_t>(kSends / 8));
  EXPECT_EQ(sender.counters().frames_sent, static_cast<std::uint64_t>(kSends));

  sender.PrepareShutdown();
  receiver.PrepareShutdown();
  sender.Shutdown();
  receiver.Shutdown();
}

}  // namespace
}  // namespace nimbus
