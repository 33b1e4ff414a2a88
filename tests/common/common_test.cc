// Unit tests for the common layer: strong ids, dense-id containers, serialization, RNG,
// statistics.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/dense_id.h"
#include "src/common/ids.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/serialize.h"
#include "src/common/stats.h"

namespace nimbus {
namespace {

TEST(StrongIdTest, DefaultIsInvalid) {
  TaskId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, TaskId::Invalid());
}

TEST(StrongIdTest, ComparesByValue) {
  EXPECT_EQ(TaskId(3), TaskId(3));
  EXPECT_NE(TaskId(3), TaskId(4));
  EXPECT_LT(TaskId(3), TaskId(4));
  EXPECT_GE(TaskId(7), TaskId(7));
}

TEST(StrongIdTest, DistinctTagTypesDoNotMix) {
  static_assert(!std::is_convertible_v<TaskId, WorkerId>);
  static_assert(!std::is_convertible_v<LogicalObjectId, TaskId>);
}

TEST(StrongIdTest, Hashable) {
  std::unordered_set<WorkerId> set;
  set.insert(WorkerId(1));
  set.insert(WorkerId(2));
  set.insert(WorkerId(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(IdAllocatorTest, MonotonicAndRangeReservation) {
  IdAllocator<CommandId> alloc;
  EXPECT_EQ(alloc.Next(), CommandId(0));
  EXPECT_EQ(alloc.Next(), CommandId(1));
  const CommandId base = alloc.NextRange(10);
  EXPECT_EQ(base, CommandId(2));
  EXPECT_EQ(alloc.Next(), CommandId(12));
}

TEST(SerializeTest, RoundTripsAllTypes) {
  BlobWriter w;
  w.WriteU8(7);
  w.WriteU32(123456);
  w.WriteU64(0xdeadbeefcafef00dull);
  w.WriteI64(-42);
  w.WriteDouble(3.14159);
  w.WriteString("hello nimbus");
  w.WriteDoubleVector({1.0, 2.5, -3.25});
  const ParameterBlob blob = w.Take();

  BlobReader r(blob);
  EXPECT_EQ(r.ReadU8(), 7);
  EXPECT_EQ(r.ReadU32(), 123456u);
  EXPECT_EQ(r.ReadU64(), 0xdeadbeefcafef00dull);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_DOUBLE_EQ(r.ReadDouble(), 3.14159);
  EXPECT_EQ(r.ReadString(), "hello nimbus");
  EXPECT_EQ(r.ReadDoubleVector(), (std::vector<double>{1.0, 2.5, -3.25}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, EmptyVectorAndString) {
  BlobWriter w;
  w.WriteString("");
  w.WriteDoubleVector({});
  const ParameterBlob blob = w.Take();
  BlobReader r(blob);
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_TRUE(r.ReadDoubleVector().empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, ReadPastEndAborts) {
  ParameterBlob empty;
  BlobReader r(empty);
  EXPECT_DEATH(r.ReadU32(), "Check failed");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(13), 13u);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(23);
  std::unordered_set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.NextBounded(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, GaussianHasReasonableMoments) {
  Rng rng(31);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(SampleStatsTest, BasicMoments) {
  SampleStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 4.0);
  EXPECT_NEAR(s.StdDev(), 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 4.0);
}

TEST(SampleStatsTest, EmptyIsSafe) {
  SampleStats s;
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Percentile(0.5), 0.0);
  EXPECT_EQ(s.StdDev(), 0.0);
}

TEST(SeqWindowTest, SlotFindAndRetire) {
  SeqWindow<int> window;
  EXPECT_EQ(window.Find(5), nullptr);

  window.Slot(5) = 2;
  window.Slot(6) = 1;
  window.Slot(8) = 3;  // gap at 7 is a value-initialized (absent) slot
  EXPECT_EQ(window.base(), 5u);
  EXPECT_EQ(*window.Find(6), 1);
  EXPECT_EQ(*window.Find(7), 0);
  EXPECT_EQ(window.Find(4), nullptr);
  EXPECT_EQ(window.Find(9), nullptr);

  // Completing out of order: retire compacts only the done prefix.
  *window.Find(6) = 0;
  window.Retire();
  EXPECT_EQ(window.base(), 5u);
  *window.Find(5) = 0;
  window.Retire();
  EXPECT_EQ(window.base(), 8u);  // 5, 6 and the gap at 7 all retired
  EXPECT_EQ(*window.Find(8), 3);

  *window.Find(8) = 0;
  window.Retire();
  EXPECT_TRUE(window.empty());
  EXPECT_EQ(window.Find(8), nullptr);
}

TEST(SeqWindowTest, ClearAdvancesPastLiveEntries) {
  SeqWindow<int> window;
  window.Slot(3) = 7;
  window.Slot(4) = 8;
  window.Clear();
  EXPECT_TRUE(window.empty());
  EXPECT_EQ(window.Find(3), nullptr);
  // New sequences keep working after a clear.
  window.Slot(9) = 1;
  EXPECT_EQ(*window.Find(9), 1);
}

TEST(CacheCountersTest, HitRate) {
  CacheCounters c;
  EXPECT_DOUBLE_EQ(c.HitRate(), 0.0);
  c.hits = 3;
  c.misses = 1;
  EXPECT_DOUBLE_EQ(c.HitRate(), 0.75);
  c.Clear();
  EXPECT_EQ(c.lookups(), 0u);
}

TEST(NameInternerTest, InternFindName) {
  metrics::NameInterner interner;
  EXPECT_TRUE(interner.empty());
  const std::uint32_t a = interner.Intern("alpha");
  const std::uint32_t b = interner.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("alpha"), a);  // idempotent
  EXPECT_EQ(interner.Find("beta"), b);
  EXPECT_EQ(interner.Find("gamma"), metrics::NameInterner::kNotFound);
  EXPECT_EQ(interner.Name(a), "alpha");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(MetricsRegistryTest, RegisteredStructsExportEveryField) {
  CacheCounters cache;
  SerializedBatchCounters serialized;
  metrics::Registry registry;
  registry.Register(&cache);
  registry.Register(&serialized);
  EXPECT_EQ(registry.group_count(), 2u);
  EXPECT_EQ(registry.field_count(), 3u + 8u);

  cache.hits = 5;
  cache.misses = 2;
  serialized.batches = 40;
  const metrics::Snapshot snap = registry.Take();
  std::uint64_t value = 0;
  ASSERT_TRUE(registry.Value(snap, "cache.hits", &value));
  EXPECT_EQ(value, 5u);
  ASSERT_TRUE(registry.Value(snap, "serialized.batches", &value));
  EXPECT_EQ(value, 40u);
  EXPECT_FALSE(registry.Value(snap, "cache.nonexistent", &value));
}

TEST(MetricsRegistryTest, DeltaSubtractsElementwise) {
  CacheCounters cache;
  metrics::Registry registry;
  registry.Register(&cache);
  cache.hits = 10;
  const metrics::Snapshot before = registry.Take();
  cache.hits = 17;
  cache.misses = 4;
  const metrics::Snapshot delta = metrics::Registry::Delta(before, registry.Take());
  std::uint64_t value = 0;
  ASSERT_TRUE(registry.Value(delta, "cache.hits", &value));
  EXPECT_EQ(value, 7u);
  ASSERT_TRUE(registry.Value(delta, "cache.misses", &value));
  EXPECT_EQ(value, 4u);
}

TEST(MetricsRegistryTest, ToJsonNestsGroupsInRegistrationOrder) {
  CacheCounters cache;
  metrics::Registry registry;
  registry.Register(&cache);
  cache.hits = 1;
  cache.misses = 2;
  cache.evictions = 3;
  EXPECT_EQ(registry.ToJson(registry.Take()),
            "{\"cache\":{\"hits\":1,\"misses\":2,\"evictions\":3}}");
}

TEST(MetricsRegistryTest, ForEachWalksRegistrationOrder) {
  CacheCounters cache;
  metrics::Registry registry;
  registry.Register(&cache);
  std::vector<std::string> names;
  registry.ForEach(registry.Take(),
                   [&names](const std::string& name, std::uint64_t) {
                     names.push_back(name);
                   });
  const std::vector<std::string> expected = {"cache.hits", "cache.misses",
                                             "cache.evictions"};
  EXPECT_EQ(names, expected);
}

// The pipeline's counters keep their exported `shards.*` names (BENCH_table2.json and
// perfbench read them) as plain scalars.
TEST(MetricsRegistryTest, ShardCountersExportScalarFields) {
  ShardCounters shards;
  shards.preconditions_checked = 12;
  shards.validation_failures = 3;
  shards.deltas_applied = 7;
  metrics::Registry registry;
  registry.Register(&shards);
  EXPECT_EQ(registry.field_count(), 9u);
  const metrics::Snapshot snap = registry.Take();
  std::uint64_t value = 0;
  ASSERT_TRUE(registry.Value(snap, "shards.preconditions_checked", &value));
  EXPECT_EQ(value, 12u);
  ASSERT_TRUE(registry.Value(snap, "shards.validation_failures", &value));
  EXPECT_EQ(value, 3u);
  ASSERT_TRUE(registry.Value(snap, "shards.deltas_applied", &value));
  EXPECT_EQ(value, 7u);
}

TEST(MetricsRegistryTest, NetworkCountersExportPerKindFields) {
  NetworkCounters net;
  net.Record(MessageKind::kCommand, 100);
  net.Record(MessageKind::kCommand, 50);
  net.Record(MessageKind::kData, 7);
  metrics::Registry registry;
  registry.Register(&net);
  const metrics::Snapshot snap = registry.Take();
  std::uint64_t value = 0;
  ASSERT_TRUE(registry.Value(snap, "network.messages_command", &value));
  EXPECT_EQ(value, 2u);
  ASSERT_TRUE(registry.Value(snap, "network.bytes_command", &value));
  EXPECT_EQ(value, 150u);
  ASSERT_TRUE(registry.Value(snap, "network.bytes_data", &value));
  EXPECT_EQ(value, 7u);
}

TEST(MetricsRegistryTest, ClearableCountersResetEveryField) {
  SerializedBatchCounters sbc;
  sbc.half_encodes = 3;
  sbc.bytes_shipped = 999;
  sbc.Clear();
  EXPECT_EQ(sbc.half_encodes, 0u);
  EXPECT_EQ(sbc.bytes_shipped, 0u);
}

}  // namespace
}  // namespace nimbus
