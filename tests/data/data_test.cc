// Unit tests for the data model: version map, object store, payloads, durable store,
// object directory.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/data/durable_store.h"
#include "src/data/object_directory.h"
#include "src/data/object_store.h"
#include "src/data/payload.h"
#include "src/data/version_map.h"

namespace nimbus {
namespace {

TEST(VersionMapTest, CreateAndLookup) {
  VersionMap vm;
  vm.CreateObject(LogicalObjectId(1), WorkerId(0));
  EXPECT_TRUE(vm.Exists(LogicalObjectId(1)));
  EXPECT_EQ(vm.latest(LogicalObjectId(1)), 0u);
  EXPECT_TRUE(vm.WorkerHasLatest(LogicalObjectId(1), WorkerId(0)));
  EXPECT_FALSE(vm.WorkerHasLatest(LogicalObjectId(1), WorkerId(1)));
}

TEST(VersionMapTest, WriteInvalidatesOtherInstances) {
  VersionMap vm;
  vm.CreateObject(LogicalObjectId(1), WorkerId(0));
  vm.RecordCopyToLatest(LogicalObjectId(1), WorkerId(1));
  EXPECT_TRUE(vm.WorkerHasLatest(LogicalObjectId(1), WorkerId(1)));

  vm.RecordWrite(LogicalObjectId(1), WorkerId(2));
  EXPECT_EQ(vm.latest(LogicalObjectId(1)), 1u);
  EXPECT_FALSE(vm.WorkerHasLatest(LogicalObjectId(1), WorkerId(0)));
  EXPECT_FALSE(vm.WorkerHasLatest(LogicalObjectId(1), WorkerId(1)));
  EXPECT_TRUE(vm.WorkerHasLatest(LogicalObjectId(1), WorkerId(2)));
  EXPECT_EQ(vm.AnyLatestHolder(LogicalObjectId(1)), WorkerId(2));
}

TEST(VersionMapTest, LatestHoldersListsAllReplicas) {
  VersionMap vm;
  vm.CreateObject(LogicalObjectId(5), WorkerId(0));
  vm.RecordWrite(LogicalObjectId(5), WorkerId(0));
  vm.RecordCopyToLatest(LogicalObjectId(5), WorkerId(1));
  vm.RecordCopyToLatest(LogicalObjectId(5), WorkerId(2));
  EXPECT_EQ(vm.LatestHolders(LogicalObjectId(5)).size(), 3u);
}

TEST(VersionMapTest, DropWorkerRemovesInstances) {
  VersionMap vm;
  vm.CreateObject(LogicalObjectId(1), WorkerId(0));
  vm.CreateObject(LogicalObjectId(2), WorkerId(0));
  vm.RecordCopyToLatest(LogicalObjectId(1), WorkerId(1));
  vm.DropWorker(WorkerId(0));
  EXPECT_FALSE(vm.WorkerHasLatest(LogicalObjectId(1), WorkerId(0)));
  EXPECT_TRUE(vm.WorkerHasLatest(LogicalObjectId(1), WorkerId(1)));
  // Object 2's only replica is gone.
  EXPECT_FALSE(vm.AnyLatestHolder(LogicalObjectId(2)).valid());
}

TEST(VersionMapTest, SnapshotRestoreRoundTrip) {
  VersionMap vm;
  vm.CreateObject(LogicalObjectId(1), WorkerId(0));
  vm.RecordWrite(LogicalObjectId(1), WorkerId(0));
  auto snapshot = vm.Snapshot();
  vm.RecordWrite(LogicalObjectId(1), WorkerId(1));
  EXPECT_EQ(vm.latest(LogicalObjectId(1)), 2u);
  vm.Restore(std::move(snapshot));
  EXPECT_EQ(vm.latest(LogicalObjectId(1)), 1u);
  EXPECT_TRUE(vm.WorkerHasLatest(LogicalObjectId(1), WorkerId(0)));
}

TEST(VersionMapTest, InstanceCountTracksReplication) {
  VersionMap vm;
  vm.CreateObject(LogicalObjectId(1), WorkerId(0));
  EXPECT_EQ(vm.instance_count(), 1u);
  vm.RecordCopyToLatest(LogicalObjectId(1), WorkerId(1));
  vm.RecordCopyToLatest(LogicalObjectId(1), WorkerId(2));
  EXPECT_EQ(vm.instance_count(), 3u);
}

TEST(ObjectStoreTest, PutGetAndVersions) {
  ObjectStore store;
  store.Put(LogicalObjectId(9), 3, std::make_unique<ScalarPayload>(2.5));
  EXPECT_TRUE(store.Has(LogicalObjectId(9)));
  EXPECT_EQ(store.version(LogicalObjectId(9)), 3u);
  const auto* s = dynamic_cast<const ScalarPayload*>(store.Get(LogicalObjectId(9)));
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value(), 2.5);
}

TEST(ObjectStoreTest, PutReplacesInPlace) {
  ObjectStore store;
  store.Put(LogicalObjectId(9), 1, std::make_unique<ScalarPayload>(1.0));
  store.Put(LogicalObjectId(9), 2, std::make_unique<ScalarPayload>(7.0));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.version(LogicalObjectId(9)), 2u);
  EXPECT_DOUBLE_EQ(
      dynamic_cast<const ScalarPayload*>(store.Get(LogicalObjectId(9)))->value(), 7.0);
}

TEST(ObjectStoreTest, DenseAccessorsMatchSparseShims) {
  ObjectStore store;
  const DenseIndex a = store.Intern(LogicalObjectId(40));
  EXPECT_EQ(store.Intern(LogicalObjectId(40)), a) << "interning is idempotent";
  EXPECT_FALSE(store.HasDense(a));

  store.PutDense(a, 5, std::make_unique<ScalarPayload>(1.25));
  EXPECT_TRUE(store.Has(LogicalObjectId(40)));
  EXPECT_EQ(store.version(LogicalObjectId(40)), 5u);
  EXPECT_EQ(store.VersionDense(a), 5u);
  store.BumpVersionDense(a, 6);
  EXPECT_EQ(store.version(LogicalObjectId(40)), 6u);

  store.EraseDense(a);
  EXPECT_FALSE(store.Has(LogicalObjectId(40)));
  EXPECT_EQ(store.size(), 0u);
  // The dense index survives erasure (never reused) and accepts a new instance.
  store.PutDense(a, 7, std::make_unique<ScalarPayload>(2.5));
  EXPECT_EQ(store.size(), 1u);
}

TEST(VersionMapTest, ChurnEpochTracksResidencyChurnOnly) {
  VersionMap vm;
  const std::uint64_t start = vm.churn_epoch();
  vm.CreateObject(LogicalObjectId(1), WorkerId(0));
  vm.RecordWrite(LogicalObjectId(1), WorkerId(0));
  vm.RecordCopyToLatest(LogicalObjectId(1), WorkerId(1));
  EXPECT_EQ(vm.churn_epoch(), start) << "normal block flow must not bump the epoch";

  vm.DropInstance(LogicalObjectId(1), WorkerId(1));
  EXPECT_GT(vm.churn_epoch(), start);
  const std::uint64_t after_drop = vm.churn_epoch();
  vm.DropWorker(WorkerId(0));
  EXPECT_GT(vm.churn_epoch(), after_drop);
}

TEST(PayloadTest, CloneIsIndependent) {
  VectorPayload v(std::vector<double>{1, 2, 3});
  auto clone = v.Clone();
  v.values()[0] = 42;
  EXPECT_DOUBLE_EQ(dynamic_cast<VectorPayload*>(clone.get())->values()[0], 1.0);
  EXPECT_EQ(clone->ByteSize(), 24);
}

TEST(DurableStoreTest, WriteReadRoundTrip) {
  DurableStore durable;
  VectorPayload v(std::vector<double>{5, 6});
  durable.Write(LogicalObjectId(3), 7, v);
  ASSERT_TRUE(durable.Has(LogicalObjectId(3)));
  const auto& entry = durable.Read(LogicalObjectId(3));
  EXPECT_EQ(entry.version, 7u);
  EXPECT_DOUBLE_EQ(dynamic_cast<const VectorPayload*>(entry.payload.get())->values()[1], 6.0);
}

// Under the TCP backend every worker writes its checkpoint saves from its own event-loop
// thread into the one shared store; no write may be lost.
TEST(DurableStoreTest, ConcurrentWritersLoseNoEntries) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 4000;
  DurableStore durable;
  const VectorPayload v(std::vector<double>{1.0});
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&durable, &v, t] {
      for (int i = 0; i < kPerThread; ++i) {
        durable.Write(LogicalObjectId(static_cast<std::uint64_t>(t * kPerThread + i)), 1, v);
      }
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }
  EXPECT_EQ(durable.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (int id = 0; id < kThreads * kPerThread; ++id) {
    ASSERT_TRUE(durable.Has(LogicalObjectId(static_cast<std::uint64_t>(id)))) << id;
  }
}

TEST(ObjectDirectoryTest, VariablesAndObjects) {
  ObjectDirectory dir;
  const VariableId var = dir.DefineVariable("tdata", 4, 1000);
  EXPECT_EQ(dir.variable(var).partitions, 4);
  EXPECT_EQ(dir.object_count(), 4u);
  const LogicalObjectId obj = dir.ObjectFor(var, 2);
  EXPECT_EQ(dir.object(obj).partition, 2);
  EXPECT_EQ(dir.object(obj).virtual_bytes, 1000);
  EXPECT_TRUE(dir.HasVariable("tdata"));
  EXPECT_FALSE(dir.HasVariable("nope"));
}

TEST(ObjectDirectoryTest, ObjectIdsAreStable) {
  ObjectDirectory dir;
  const VariableId a = dir.DefineVariable("a", 2, 10);
  const VariableId b = dir.DefineVariable("b", 2, 10);
  EXPECT_NE(dir.ObjectFor(a, 0), dir.ObjectFor(b, 0));
  EXPECT_EQ(dir.ObjectFor(a, 1), dir.ObjectFor(a, 1));
}

}  // namespace
}  // namespace nimbus
