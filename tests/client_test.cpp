// Tests for object classes, algorithmic placement, and the end-to-end
// client -> engine -> VOS data path on a small simulated cluster.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "cluster/testbed.hpp"
#include "discard_stack.hpp"

namespace daosim::client {
namespace {

using cluster::ClusterConfig;
using cluster::kPoolUuid;
using cluster::Testbed;
using sim::CoTask;

std::vector<std::byte> bytes(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}
std::string str(std::span<const std::byte> s) {
  return std::string(reinterpret_cast<const char*>(s.data()), s.size());
}

ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.server_nodes = 2;
  cfg.engines_per_server = 2;
  cfg.targets_per_engine = 4;
  cfg.client_nodes = 1;
  return cfg;
}

// ---------------------------------------------------------------------------
// Object classes & placement (pure functions)

TEST(ObjClass, ShardCounts) {
  EXPECT_EQ(shard_count(ObjClass::S1, 128), 1u);
  EXPECT_EQ(shard_count(ObjClass::S2, 128), 2u);
  EXPECT_EQ(shard_count(ObjClass::S4, 128), 4u);
  EXPECT_EQ(shard_count(ObjClass::S8, 128), 8u);
  EXPECT_EQ(shard_count(ObjClass::SX, 128), 128u);
  EXPECT_EQ(shard_count(ObjClass::SX, 16), 16u);
  EXPECT_EQ(shard_count(ObjClass::S8, 4), 4u);  // clamped to pool size
}

TEST(ObjClass, OidRoundTrip) {
  const auto oid = make_oid(12345, ObjClass::S2);
  EXPECT_EQ(class_of(oid), ObjClass::S2);
  EXPECT_EQ(oid.lo, 12345u);
  EXPECT_THROW(class_of(vos::ObjId{0, 1}), DaosimError);
}

TEST(Placement, DeterministicLayout) {
  const auto oid = make_oid(7, ObjClass::S4);
  const auto l1 = compute_layout(oid, 4, 64);
  const auto l2 = compute_layout(oid, 4, 64);
  EXPECT_EQ(l1, l2);
  EXPECT_EQ(l1.size(), 4u);
}

TEST(Placement, MultiShardLayoutIsCollisionFree) {
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    const auto layout = compute_layout(make_oid(seq, ObjClass::SX), 128, 128);
    std::set<std::uint32_t> distinct(layout.begin(), layout.end());
    ASSERT_EQ(distinct.size(), layout.size()) << "oid seq " << seq;
  }
}

TEST(Placement, SingleShardObjectsSpreadAcrossTargets) {
  // Balls-into-bins: 4096 S1 objects over 128 targets. Expect every target
  // used and a max load far below a pathological pile-up.
  std::map<std::uint32_t, int> load;
  const std::uint32_t n = 128;
  for (std::uint64_t seq = 0; seq < 4096; ++seq) {
    load[compute_layout(make_oid(seq, ObjClass::S1), 1, n)[0]]++;
  }
  EXPECT_EQ(load.size(), n);
  int max_load = 0;
  for (auto& [t, c] : load) max_load = std::max(max_load, c);
  EXPECT_LT(max_load, 70);  // mean is 32
  EXPECT_GT(max_load, 32);  // but it is not perfectly uniform (hash-based)
}

TEST(Placement, JumpHashIsStableUnderGrowth) {
  // Jump consistent hash: growing the pool only moves keys to new targets.
  for (std::uint64_t k = 0; k < 500; ++k) {
    const auto h = mix64(k);
    const auto b1 = jump_consistent_hash(h, 100);
    const auto b2 = jump_consistent_hash(h, 101);
    if (b2 != b1) { EXPECT_EQ(b2, 100u) << k; }
  }
}

TEST(Placement, DkeyShardBalance) {
  std::map<std::uint32_t, int> counts;
  for (std::uint64_t c = 0; c < 8000; ++c) counts[dkey_to_shard(c, 8)]++;
  for (auto& [s, n] : counts) EXPECT_NEAR(n, 1000, 220) << "shard " << s;
}

// ---------------------------------------------------------------------------
// End-to-end through the testbed

TEST(Cluster, StartsAndElectsPoolServiceLeader) {
  Testbed tb(small_cluster());
  tb.start();
  int leaders = 0;
  for (std::uint32_t i = 0; i < tb.engine_count(); ++i) leaders += 0;  // silence unused
  (void)leaders;
  EXPECT_EQ(tb.pool_map().target_count(), 16u);
  tb.stop();
}

TEST(Cluster, ContainerLifecycle) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    auto created = co_await cl.cont_create(vos::Uuid{9, 9}, pool::ContProps{1 << 20, 2});
    EXPECT_TRUE(created.ok());
    auto dup = co_await cl.cont_create(vos::Uuid{9, 9}, {});
    EXPECT_EQ(dup.error(), Errno::exists);
    auto opened = co_await cl.cont_open(vos::Uuid{9, 9});
    CO_ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened->props.chunk_size, std::uint64_t{1} << 20);
    EXPECT_EQ(opened->props.oclass, 2);
    auto missing = co_await cl.cont_open(vos::Uuid{1, 2});
    EXPECT_EQ(missing.error(), Errno::no_entry);
    auto destroyed = co_await cl.cont_destroy(vos::Uuid{9, 9});
    EXPECT_TRUE(destroyed.ok());
  });
  tb.stop();
}

TEST(Cluster, OidAllocationIsDisjoint) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    auto a = co_await cl.alloc_oids(kPoolUuid, 100);
    auto b = co_await cl.alloc_oids(kPoolUuid, 100);
    CO_ASSERT_TRUE(a.ok());
    CO_ASSERT_TRUE(b.ok());
    EXPECT_GE(*b, *a + 100);
  });
  tb.stop();
}

TEST(Cluster, KvPutGetRoundTrip) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    KvObject kv(cl, kPoolUuid, make_oid(1, ObjClass::S1));
    auto v = bytes("hello-daos");
    EXPECT_EQ(co_await kv.put("dir", "entry", v), Errno::ok);
    auto got = co_await kv.get("dir", "entry");
    CO_ASSERT_TRUE(got.ok());
    EXPECT_EQ(str(*got), "hello-daos");
    auto missing = co_await kv.get("dir", "nope");
    EXPECT_EQ(missing.error(), Errno::no_entry);
  });
  tb.stop();
}

TEST(Cluster, KvEnumerationAcrossShards) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    KvObject kv(cl, kPoolUuid, make_oid(2, ObjClass::S8));  // multi-shard dir
    auto v = bytes("x");
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(co_await kv.put(strfmt("entry-%02d", i), "e", v), Errno::ok);
    }
    auto keys = co_await kv.list_dkeys();
    CO_ASSERT_TRUE(keys.ok());
    CO_ASSERT_EQ(keys->size(), 20u);
    EXPECT_EQ(keys->front(), "entry-00");  // merged sorted
    EXPECT_EQ(keys->back(), "entry-19");
    // Punch one dkey: disappears from enumeration.
    EXPECT_EQ(co_await kv.punch_dkey("entry-07"), Errno::ok);
    keys = co_await kv.list_dkeys();
    CO_ASSERT_TRUE(keys.ok());
    EXPECT_EQ(keys->size(), 19u);
  });
  tb.stop();
}

TEST(Cluster, ArrayWriteReadRoundTrip) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    ArrayObject arr(cl, kPoolUuid, make_oid(3, ObjClass::S2), /*chunk=*/4096);
    // Write a pattern spanning several chunks, unaligned.
    std::vector<std::byte> data(10'000);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::byte(i % 251);
    EXPECT_EQ(co_await arr.write(1000, data.size(), data), Errno::ok);

    std::vector<std::byte> out(data.size());
    auto filled = co_await arr.read(1000, out);
    CO_ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, data.size());
    EXPECT_EQ(std::memcmp(out.data(), data.data(), data.size()), 0);

    auto sz = co_await arr.size();
    CO_ASSERT_TRUE(sz.ok());
    EXPECT_EQ(*sz, 11'000u);
  });
  tb.stop();
}

TEST(Cluster, ArrayHolesReadZero) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    ArrayObject arr(cl, kPoolUuid, make_oid(4, ObjClass::SX), 4096);
    auto d = bytes("marker");
    EXPECT_EQ(co_await arr.write(100'000, d.size(), d), Errno::ok);
    std::vector<std::byte> out(16);
    auto filled = co_await arr.read(0, out);
    CO_ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, 0u);
    for (auto b : out) EXPECT_EQ(b, std::byte{0});
  });
  tb.stop();
}

TEST(Cluster, ArrayPunchResetsSize) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    ArrayObject arr(cl, kPoolUuid, make_oid(5, ObjClass::S2), 4096);
    auto d = bytes("0123456789");
    EXPECT_EQ(co_await arr.write(0, d.size(), d), Errno::ok);
    EXPECT_EQ(co_await arr.punch(), Errno::ok);
    std::vector<std::byte> out(10);
    auto filled = co_await arr.read(0, out);
    CO_ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, 0u);
  });
  tb.stop();
}

TEST(Cluster, MetadataOnlyWritesTrackSizes) {
  auto cfg = small_cluster();
  cfg.payload = vos::PayloadMode::discard;
  Testbed tb(cfg);
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    ArrayObject arr(cl, kPoolUuid, make_oid(6, ObjClass::SX), 1 << 20);
    EXPECT_EQ(co_await arr.write(0, 64 << 20, {}), Errno::ok);  // 64 MiB, no payload
    auto sz = co_await arr.size();
    CO_ASSERT_TRUE(sz.ok());
    EXPECT_EQ(*sz, std::uint64_t{64} << 20);
    std::vector<std::byte> out(128);
    auto filled = co_await arr.read(0, out);
    CO_ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, 128u);  // extent metadata says data exists
  });
  tb.stop();
}

TEST(Cluster, DiscardModeReadLeavesSinkUntouched) {
  Testbed tb(testkit::discard_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    ArrayObject arr(cl, kPoolUuid, make_oid(9, ObjClass::SX), 64 * 1024);
    const std::uint64_t len = 1 << 20;  // 16 chunks across every engine
    EXPECT_EQ(co_await arr.write(0, len, {}), Errno::ok);
    auto sink = testkit::sentinel_sink(len);
    auto filled = co_await arr.read(0, sink);
    CO_ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, len);
    EXPECT_TRUE(testkit::sink_untouched(sink));
  });
  tb.stop();
}

TEST(Cluster, SxWritesTouchManyEngines) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    ArrayObject arr(cl, kPoolUuid, make_oid(7, ObjClass::SX), 4096);
    std::vector<std::byte> data(64 * 4096);
    EXPECT_EQ(co_await arr.write(0, data.size(), data), Errno::ok);
  });
  int engines_hit = 0;
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
    if (tb.engine(e).updates_served() > 0) ++engines_hit;
  }
  EXPECT_EQ(engines_hit, 4);  // all engines participate under SX
  tb.stop();
}

TEST(Cluster, S1WritesStayOnOneTarget) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    ArrayObject arr(cl, kPoolUuid, make_oid(8, ObjClass::S1), 4096);
    std::vector<std::byte> data(64 * 4096);
    EXPECT_EQ(co_await arr.write(0, data.size(), data), Errno::ok);
  });
  int engines_hit = 0;
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
    if (tb.engine(e).updates_served() > 0) ++engines_hit;
  }
  EXPECT_EQ(engines_hit, 1);
  tb.stop();
}

TEST(Cluster, EventQueueBackpressureBlocksLaunch) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    constexpr std::size_t kDepth = 2;
    EventQueue eq(tb.sched(), kDepth);
    auto started = std::make_shared<std::vector<sim::Time>>();
    auto finished = std::make_shared<std::vector<sim::Time>>();
    for (int i = 0; i < 8; ++i) {
      auto op = [started, finished, &tb]() -> CoTask<void> {
        started->push_back(tb.sched().now());
        co_await tb.sched().delay(100 * sim::kUs);
        finished->push_back(tb.sched().now());
      };
      co_await eq.launch(std::move(op));
    }
    co_await eq.wait_all();
    CO_ASSERT_EQ(started->size(), 8u);
    // With kDepth slots, op i can only start once op i-kDepth released its
    // slot: launch() blocked the producer instead of queueing unboundedly.
    for (std::size_t i = kDepth; i < started->size(); ++i) {
      EXPECT_GE((*started)[i], (*finished)[i - kDepth]) << "op " << i << " jumped the window";
    }
  });
  tb.stop();
}

TEST(Cluster, EventQueueCompletionsAreOutOfOrderButWaitAllIsABarrier) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    // Unbounded queue, descending delays: completions must reverse the launch
    // order, and wait_all() must still hold until the slowest (first) op ends.
    EventQueue eq(tb.sched(), /*max_inflight=*/0);
    auto done = std::make_shared<std::vector<int>>();
    for (int i = 0; i < 4; ++i) {
      auto op = [done, i, &tb]() -> CoTask<void> {
        co_await tb.sched().delay(sim::Time(4 - i) * 10 * sim::kUs);
        done->push_back(i);
      };
      co_await eq.launch(std::move(op));
    }
    co_await eq.wait_all();
    CO_ASSERT_EQ(done->size(), 4u);
    EXPECT_EQ(*done, (std::vector<int>{3, 2, 1, 0}));
    EXPECT_EQ(eq.inflight(), 0u);
  });
  tb.stop();
}

TEST(Cluster, EventQueueBoundsInflight) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    EventQueue eq(tb.sched(), /*max_inflight=*/4);
    auto peak = std::make_shared<std::size_t>(0);
    for (int i = 0; i < 32; ++i) {
      // Hoisted: GCC 12 double-destroys non-trivial prvalues nested in
      // co_await operands (see co_task.hpp).
      auto op = [&eq, peak, &tb]() -> CoTask<void> {
        *peak = std::max(*peak, eq.inflight());
        co_await tb.sched().delay(10 * sim::kUs);
      };
      co_await eq.launch(std::move(op));
      *peak = std::max(*peak, eq.inflight());
    }
    co_await eq.wait_all();
    EXPECT_LE(*peak, 4u);
    EXPECT_EQ(eq.inflight(), 0u);
  });
  tb.stop();
}

// ---------------------------------------------------------------------------
// Vectorized I/O: chunk pieces coalesce into multi-extent RPCs per
// (target, replica), bounded by ClientConfig::max_batch_extents.

std::uint64_t total_updates(Testbed& tb) {
  std::uint64_t n = 0;
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) n += tb.engine(e).updates_served();
  return n;
}

std::uint64_t total_fetches(Testbed& tb) {
  std::uint64_t n = 0;
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) n += tb.engine(e).fetches_served();
  return n;
}

TEST(Batch, CoalescesChunkPiecesIntoOneRpc) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    // 16 chunks on an S1 object: one target, one redundancy group — with the
    // default cap of 16 extents the whole write fits in a single RPC.
    ArrayObject arr(cl, kPoolUuid, make_oid(40, ObjClass::S1), /*chunk=*/4096);
    std::vector<std::byte> data(16 * 4096);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::byte(i % 241);
    EXPECT_EQ(co_await arr.write(0, data.size(), data), Errno::ok);
    EXPECT_EQ(total_updates(tb), 1u);

    std::vector<std::byte> out(data.size());
    auto filled = co_await arr.read(0, out);
    CO_ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, data.size());
    EXPECT_EQ(std::memcmp(out.data(), data.data(), data.size()), 0);
    EXPECT_EQ(total_fetches(tb), 1u);
  });
  tb.stop();
}

TEST(Batch, CapOneRecoversLegacyPerPieceRpcs) {
  auto cfg = small_cluster();
  cfg.client.max_batch_extents = 1;  // the A/B knob: one RPC per extent
  Testbed tb(cfg);
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    ArrayObject arr(cl, kPoolUuid, make_oid(41, ObjClass::S1), 4096);
    std::vector<std::byte> data(16 * 4096, std::byte{7});
    EXPECT_EQ(co_await arr.write(0, data.size(), data), Errno::ok);
    EXPECT_EQ(total_updates(tb), 16u);
    std::vector<std::byte> out(data.size());
    auto filled = co_await arr.read(0, out);
    CO_ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, data.size());
    EXPECT_EQ(total_fetches(tb), 16u);
  });
  tb.stop();
}

TEST(Batch, SplitsAtTheConfiguredCap) {
  auto cfg = small_cluster();
  cfg.client.max_batch_extents = 4;
  Testbed tb(cfg);
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    ArrayObject arr(cl, kPoolUuid, make_oid(42, ObjClass::S1), 4096);
    // 10 pieces under a cap of 4 -> sub-batches of 4 + 4 + 2.
    std::vector<std::byte> data(10 * 4096, std::byte{9});
    EXPECT_EQ(co_await arr.write(0, data.size(), data), Errno::ok);
    EXPECT_EQ(total_updates(tb), 3u);
  });
  tb.stop();
}

TEST(Batch, UnalignedWriteSplitsAtChunkBoundaries) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    ArrayObject arr(cl, kPoolUuid, make_oid(43, ObjClass::S1), 4096);
    // [1000, 12000): pieces of 3096 + 4096 + 2904 bytes — three extents in
    // one RPC, visible in the engine's extents-per-RPC histogram.
    std::vector<std::byte> data(11'000);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::byte(i % 251);
    EXPECT_EQ(co_await arr.write(1000, data.size(), data), Errno::ok);
    EXPECT_EQ(total_updates(tb), 1u);

    const telemetry::DurationHistogram* h = nullptr;
    for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
      if (tb.engine(e).updates_served() == 0) continue;
      h = tb.engine(e).telemetry().find<telemetry::DurationHistogram>(
          "rpc/obj_update/extents_per_rpc");
    }
    CO_ASSERT_TRUE(h != nullptr);
    EXPECT_EQ(h->state().count, 1u);
    EXPECT_EQ(h->state().sum_ns, 3u);  // extent count rides the ns axis

    std::vector<std::byte> out(data.size());
    auto filled = co_await arr.read(1000, out);
    CO_ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, data.size());
    EXPECT_EQ(std::memcmp(out.data(), data.data(), data.size()), 0);
  });
  tb.stop();
}

TEST(Batch, ReplicaFanOutSendsOneRpcPerReplica) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    // RP_2G1: one group, two replicas. Eight pieces fan out to exactly two
    // batched updates — one per replica target. The read hashes each piece to
    // a starting replica for load spreading, so it may split across both
    // replicas — but never into more RPCs than replicas, and the batches must
    // carry all eight extents between them.
    ArrayObject arr(cl, kPoolUuid, make_oid(44, ObjClass::RP_2G1), 4096);
    std::vector<std::byte> data(8 * 4096);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::byte(i % 127);
    EXPECT_EQ(co_await arr.write(0, data.size(), data), Errno::ok);
    EXPECT_EQ(total_updates(tb), 2u);
    int engines_hit = 0;
    for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
      if (tb.engine(e).updates_served() > 0) ++engines_hit;
    }
    EXPECT_EQ(engines_hit, 2);  // replicas live on distinct engines

    std::vector<std::byte> out(data.size());
    auto filled = co_await arr.read(0, out);
    CO_ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, data.size());
    EXPECT_EQ(std::memcmp(out.data(), data.data(), data.size()), 0);
    EXPECT_GE(total_fetches(tb), 1u);
    EXPECT_LE(total_fetches(tb), 2u);
    std::uint64_t fetched_extents = 0;
    for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
      if (const auto* h = tb.engine(e).telemetry().find<telemetry::DurationHistogram>(
              "rpc/obj_fetch/extents_per_rpc")) {
        fetched_extents += h->state().sum_ns;
      }
    }
    EXPECT_EQ(fetched_extents, 8u);
  });
  tb.stop();
}

TEST(Batch, DegradedTargetMidBatchFallsBackPerExtent) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_TRUE((co_await cl.cont_create(kPoolUuid, {})).ok());
    ArrayObject arr(cl, kPoolUuid, make_oid(45, ObjClass::RP_2G1), 4096);
    std::vector<std::byte> data(8 * 4096);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::byte(i % 199);
    EXPECT_EQ(co_await arr.write(0, data.size(), data), Errno::ok);

    // Silence one of the two replica engines for fetches only: pieces hashed
    // to it fail inside their batch and must individually fall back to the
    // surviving replica, while their batch-mates succeed untouched.
    net::NodeId dead{};
    for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
      if (tb.engine(e).updates_served() > 0) {
        dead = tb.engine(e).node();
        break;
      }
    }
    tb.domain().set_fault_hook([dead](net::NodeId, net::NodeId dst, std::uint16_t op) {
      net::CallFault f;
      f.drop = op == engine::kOpObjFetch && dst == dead;
      return f;
    });

    std::vector<std::byte> out(data.size());
    auto filled = co_await arr.read(0, out);
    tb.domain().set_fault_hook({});
    CO_ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, data.size());
    EXPECT_EQ(std::memcmp(out.data(), data.data(), data.size()), 0);
    // The pieces aimed at the silenced replica burned their retry budget,
    // reported the engine, and were individually re-driven — their
    // batch-mates on the healthy replica never re-sent.
    EXPECT_GE(cl.evictions_reported(), 1u);
  });
  tb.stop();
}

TEST(Cluster, ConcurrentClientsFromTwoNodes) {
  auto cfg = small_cluster();
  cfg.client_nodes = 2;
  Testbed tb(cfg);
  tb.start();
  tb.run([&]() -> CoTask<void> {
    (void)co_await tb.client(0).cont_create(kPoolUuid, {});
    sim::WaitGroup wg(tb.sched());
    for (std::uint32_t c = 0; c < 2; ++c) {
      wg.spawn([&tb, c]() -> CoTask<void> {
        ArrayObject arr(tb.client(c), kPoolUuid, make_oid(100 + c, ObjClass::S2), 4096);
        std::vector<std::byte> data(32 * 4096, std::byte(c));
        EXPECT_EQ(co_await arr.write(0, data.size(), data), Errno::ok);
        std::vector<std::byte> out(data.size());
        auto filled = co_await arr.read(0, out);
        CO_ASSERT_TRUE(filled.ok());
        EXPECT_EQ(*filled, data.size());
        EXPECT_EQ(out[17], std::byte(c));
      });
    }
    co_await wg.wait();
  });
  tb.stop();
}

}  // namespace
}  // namespace daosim::client
