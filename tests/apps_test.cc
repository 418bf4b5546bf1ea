// MiniLevelDB, MiniKyoto and MiniProxy: functional correctness plus concurrent
// stress through composed CLoF locks (end-to-end through the type-erased registry
// path).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/apps/mini_kyoto.h"
#include "src/apps/mini_leveldb.h"
#include "src/apps/mini_proxy.h"
#include "src/clof/registry.h"
#include "src/mem/native.h"
#include "src/runtime/rng.h"
#include "src/topo/topology.h"

namespace clof::apps {
namespace {

std::shared_ptr<Lock> MakeLock(const std::string& name) {
  static topo::Topology topology = topo::Topology::PaperArm();
  static topo::Hierarchy h1 = topo::Hierarchy::Select(topology, {"system"});
  static topo::Hierarchy h3 = topo::Hierarchy::Select(topology, {"cache", "numa", "system"});
  const Registry& reg = NativeRegistry(false);
  return reg.Make(name, name.find('-') == std::string::npos &&
                            name != "hmcs" && name != "cna" && name != "shfl"
                        ? h1
                        : h3);
}

TEST(MiniLevelDbTest, PutGetDelete) {
  MiniLevelDb db(MakeLock("mcs"));
  MiniLevelDb::Session session(db);
  EXPECT_FALSE(db.Get(session, "a").has_value());
  db.Put(session, "a", "1");
  db.Put(session, "b", "2");
  EXPECT_EQ(db.Get(session, "a").value(), "1");
  EXPECT_EQ(db.Get(session, "b").value(), "2");
  EXPECT_EQ(db.size(), 2u);
  db.Put(session, "a", "updated");
  EXPECT_EQ(db.Get(session, "a").value(), "updated");
  EXPECT_EQ(db.size(), 2u);
  EXPECT_TRUE(db.Delete(session, "a"));
  EXPECT_FALSE(db.Delete(session, "a"));
  EXPECT_FALSE(db.Get(session, "a").has_value());
  EXPECT_EQ(db.size(), 1u);
  // Re-insert over a tombstone.
  db.Put(session, "a", "again");
  EXPECT_EQ(db.Get(session, "a").value(), "again");
  EXPECT_EQ(db.size(), 2u);
}

TEST(MiniLevelDbTest, ScanIsOrdered) {
  MiniLevelDb db(MakeLock("mcs"));
  MiniLevelDb::Session session(db);
  for (int i = 99; i >= 0; --i) {
    db.Put(session, MiniLevelDb::KeyFor(i), std::to_string(i));
  }
  auto rows = db.Scan(session, MiniLevelDb::KeyFor(10), 5);
  ASSERT_EQ(rows.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rows[i].first, MiniLevelDb::KeyFor(10 + i));
    EXPECT_EQ(rows[i].second, std::to_string(10 + i));
  }
  // Scan skips tombstones.
  db.Delete(session, MiniLevelDb::KeyFor(11));
  rows = db.Scan(session, MiniLevelDb::KeyFor(10), 3);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1].first, MiniLevelDb::KeyFor(12));
}

TEST(MiniLevelDbTest, KeyForIsFixedWidthAndOrdered) {
  EXPECT_EQ(MiniLevelDb::KeyFor(7).size(), 16u);
  EXPECT_LT(MiniLevelDb::KeyFor(9), MiniLevelDb::KeyFor(10));
  EXPECT_LT(MiniLevelDb::KeyFor(99), MiniLevelDb::KeyFor(100));
  EXPECT_EQ(MiniLevelDb::KeyFor(0), "0000000000000000");
  EXPECT_EQ(MiniLevelDb::KeyFor(42), "0000000000000042");
  // The widest key: 10^16 - 1 fills all 16 digits and still orders after 10^15.
  constexpr uint64_t kMax = 9'999'999'999'999'999ull;
  EXPECT_EQ(MiniLevelDb::KeyFor(kMax), "9999999999999999");
  EXPECT_EQ(MiniLevelDb::KeyFor(1'000'000'000'000'000ull), "1000000000000000");
  EXPECT_LT(MiniLevelDb::KeyFor(1'000'000'000'000'000ull), MiniLevelDb::KeyFor(kMax));
  // 10^16 needs a 17th digit: rejected instead of truncated into a collision with 10^15.
  EXPECT_THROW(MiniLevelDb::KeyFor(kMax + 1), std::out_of_range);
  EXPECT_THROW(MiniLevelDb::KeyFor(UINT64_MAX), std::out_of_range);
}

TEST(MiniLevelDbTest, ConcurrentMixedWorkloadThroughClofLock) {
  MiniLevelDb db(MakeLock("tkt-clh-tkt"));
  constexpr int kThreads = 4;
  constexpr int kOps = 3000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      mem::NativeMemory::ScopedCpu cpu(t * 32);
      MiniLevelDb::Session session(db);
      runtime::Xoshiro256 rng(t);
      for (int i = 0; i < kOps; ++i) {
        uint64_t k = rng.NextBounded(500);
        if (rng.NextBounded(3) == 0) {
          db.Put(session, MiniLevelDb::KeyFor(k), std::to_string(k));
        } else {
          auto value = db.Get(session, MiniLevelDb::KeyFor(k));
          if (value.has_value()) {
            EXPECT_EQ(*value, std::to_string(k));
          }
        }
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  EXPECT_LE(db.size(), 500u);
}

TEST(MiniKyotoTest, SetGetRemove) {
  MiniKyoto db(MakeLock("mcs"));
  MiniKyoto::Session session(db);
  EXPECT_FALSE(db.Get(session, "x").has_value());
  db.Set(session, "x", "1");
  db.Set(session, "y", "2");
  EXPECT_EQ(db.Get(session, "x").value(), "1");
  db.Set(session, "x", "3");
  EXPECT_EQ(db.Get(session, "x").value(), "3");
  EXPECT_EQ(db.size(), 2u);
  EXPECT_TRUE(db.Remove(session, "x"));
  EXPECT_FALSE(db.Remove(session, "x"));
  EXPECT_EQ(db.size(), 1u);
}

TEST(MiniKyotoTest, IncrementCreatesAndAccumulates) {
  MiniKyoto db(MakeLock("mcs"));
  MiniKyoto::Session session(db);
  EXPECT_EQ(db.Increment(session, "n", 5), 5);
  EXPECT_EQ(db.Increment(session, "n", -2), 3);
  EXPECT_EQ(db.Get(session, "n").value(), "3");
}

TEST(MiniKyotoTest, LruEvictionRespectsCapacity) {
  MiniKyoto db(MakeLock("mcs"), /*buckets=*/16, /*capacity=*/10);
  MiniKyoto::Session session(db);
  for (int i = 0; i < 25; ++i) {
    db.Set(session, "k" + std::to_string(i), "v");
  }
  EXPECT_EQ(db.size(), 10u);
  EXPECT_EQ(db.evictions(), 15u);
  // The most recent keys survive.
  EXPECT_TRUE(db.Get(session, "k24").has_value());
  EXPECT_FALSE(db.Get(session, "k0").has_value());
  // Touching an old-ish key protects it from the next eviction.
  EXPECT_TRUE(db.Get(session, "k15").has_value());
  db.Set(session, "fresh", "v");
  EXPECT_TRUE(db.Get(session, "k15").has_value());
}

TEST(MiniKyotoTest, HashCollisionsAcrossFewBuckets) {
  MiniKyoto db(MakeLock("mcs"), /*buckets=*/2);
  MiniKyoto::Session session(db);
  for (int i = 0; i < 100; ++i) {
    db.Set(session, std::to_string(i), std::to_string(i * i));
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(db.Get(session, std::to_string(i)).value(), std::to_string(i * i));
  }
  for (int i = 0; i < 100; i += 2) {
    EXPECT_TRUE(db.Remove(session, std::to_string(i)));
  }
  EXPECT_EQ(db.size(), 50u);
  for (int i = 1; i < 100; i += 2) {
    EXPECT_TRUE(db.Get(session, std::to_string(i)).has_value());
  }
}

TEST(MiniKyotoTest, ConcurrentIncrementsAreExact) {
  MiniKyoto db(MakeLock("c-tkt-tkt"));
  constexpr int kThreads = 4;
  constexpr int kOps = 2500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      mem::NativeMemory::ScopedCpu cpu(t * 16);
      MiniKyoto::Session session(db);
      for (int i = 0; i < kOps; ++i) {
        db.Increment(session, "shared", 1);
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  MiniKyoto::Session session(db);
  EXPECT_EQ(db.Get(session, "shared").value(), std::to_string(kThreads * kOps));
}

MiniProxy MakeProxy(size_t shards, MiniProxy::Options options) {
  std::vector<std::shared_ptr<Lock>> shard_locks;
  for (size_t i = 0; i < shards; ++i) {
    shard_locks.push_back(MakeLock("mcs-tkt-tkt"));
  }
  return MiniProxy(std::move(shard_locks), MakeLock("clh-clh-clh"),
                   MakeLock("mcs-mcs-mcs"), options);
}

MiniProxy MakeProxy(size_t shards) { return MakeProxy(shards, MiniProxy::Options{}); }

TEST(MiniProxyTest, CacheRoundTrip) {
  MiniProxy proxy = MakeProxy(4);
  MiniProxy::Session session(proxy);
  EXPECT_FALSE(proxy.CacheGet(session, "k").has_value());
  proxy.CacheSet(session, "k", "v1");
  EXPECT_EQ(proxy.CacheGet(session, "k").value(), "v1");
  proxy.CacheSet(session, "k", "v2");  // replace in place
  EXPECT_EQ(proxy.CacheGet(session, "k").value(), "v2");
  auto stats = proxy.ReadStats(session);
  EXPECT_EQ(stats.sets, 2u);
  EXPECT_EQ(stats.gets, 3u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(MiniProxyTest, FifoEvictionPerShard) {
  // One shard, capacity 3: the oldest insertion leaves first, replacement does not
  // refresh insertion order (FIFO, not LRU).
  MiniProxy proxy = MakeProxy(1, {.buckets_per_shard = 8, .capacity_per_shard = 3});
  MiniProxy::Session session(proxy);
  proxy.CacheSet(session, "a", "1");
  proxy.CacheSet(session, "b", "2");
  proxy.CacheSet(session, "c", "3");
  proxy.CacheSet(session, "a", "1'");  // replace; "a" keeps its FIFO slot
  proxy.CacheSet(session, "d", "4");   // evicts "a"
  EXPECT_FALSE(proxy.CacheGet(session, "a").has_value());
  EXPECT_EQ(proxy.CacheGet(session, "b").value(), "2");
  EXPECT_EQ(proxy.CacheGet(session, "c").value(), "3");
  EXPECT_EQ(proxy.CacheGet(session, "d").value(), "4");
  EXPECT_EQ(proxy.ReadStats(session).evictions, 1u);
}

TEST(MiniProxyTest, ShardRoutingIsStable) {
  const size_t shards = 8;
  for (const auto& key : {"alpha", "beta", "gamma", "delta"}) {
    const size_t shard = MiniProxy::ShardOf(key, shards);
    EXPECT_LT(shard, shards);
    EXPECT_EQ(shard, MiniProxy::ShardOf(key, shards));
  }
}

TEST(MiniProxyTest, ConnectDisconnect) {
  MiniProxy proxy = MakeProxy(2);
  MiniProxy::Session session(proxy);
  const uint64_t a = proxy.Connect(session, "client-a");
  const uint64_t b = proxy.Connect(session, "client-b");
  EXPECT_NE(a, b);
  EXPECT_EQ(proxy.open_connections(), 2u);
  EXPECT_TRUE(proxy.Disconnect(session, a));
  EXPECT_FALSE(proxy.Disconnect(session, a));  // double close
  EXPECT_FALSE(proxy.Disconnect(session, 9999));
  EXPECT_EQ(proxy.open_connections(), 1u);
  auto stats = proxy.ReadStats(session);
  EXPECT_EQ(stats.connects, 2u);
  EXPECT_EQ(stats.disconnects, 1u);
}

TEST(MiniProxyTest, ConcurrentMixedTrafficCountsAreExact) {
  // Four threads hammer all three sites through different CLoF compositions; the
  // stats block must account for every operation exactly.
  MiniProxy proxy = MakeProxy(4);
  constexpr int kThreads = 4;
  constexpr int kOps = 1500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      mem::NativeMemory::ScopedCpu cpu(t * 16);
      MiniProxy::Session session(proxy);
      for (int i = 0; i < kOps; ++i) {
        const std::string key = std::to_string(t) + ":" + std::to_string(i % 64);
        proxy.CacheSet(session, key, "v");
        proxy.CacheGet(session, key);
        const uint64_t id = proxy.Connect(session, key);
        proxy.Disconnect(session, id);
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  MiniProxy::Session session(proxy);
  const auto stats = proxy.ReadStats(session);
  EXPECT_EQ(stats.sets, static_cast<uint64_t>(kThreads * kOps));
  EXPECT_EQ(stats.gets, static_cast<uint64_t>(kThreads * kOps));
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads * kOps));
  EXPECT_EQ(stats.connects, static_cast<uint64_t>(kThreads * kOps));
  EXPECT_EQ(stats.disconnects, static_cast<uint64_t>(kThreads * kOps));
  EXPECT_EQ(proxy.open_connections(), 0u);
}

}  // namespace
}  // namespace clof::apps
