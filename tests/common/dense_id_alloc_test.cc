// Interning an id the Interner already knows allocates nothing (DESIGN.md §6.6): workers
// intern every object a streaming command names, and every copy receive and data message
// on the template path, so a hit that built and freed a hash node would cost one
// allocation per object per command. This binary replaces the global operator new with a
// counting one, so it is its own test executable and stays out of the sanitizer builds
// (which interpose operator new too).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/common/dense_id.h"
#include "src/common/ids.h"

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

TEST(DenseIdAllocTest, InterningAKnownIdAllocatesNothing) {
  Interner<LogicalObjectId> interner;
  for (std::uint64_t v = 0; v < 64; ++v) {
    interner.Intern(LogicalObjectId(v * 7));
  }
  const std::uint64_t before = g_allocations.load();
  DenseIndex sum = 0;
  for (std::uint64_t v = 0; v < 64; ++v) {
    sum += interner.Intern(LogicalObjectId(v * 7));
  }
  const std::uint64_t allocs = g_allocations.load() - before;
  EXPECT_EQ(allocs, 0u) << "64 hits";
  EXPECT_EQ(sum, 63u * 64u / 2u) << "hits return the first-intern indices";
  EXPECT_EQ(interner.size(), 64u);
}

}  // namespace
}  // namespace nimbus
