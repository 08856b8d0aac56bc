// Background aggregation service tests: the per-engine loop flattens
// sustained overwrite history down to the visible image, strictly honors
// snapshot / prepared-DTX / crash-recovery floors, keeps same-seed runs
// bit-identical (and off-runs identical to a build without the service),
// and survives an engine crash mid-aggregation with byte-correct readback.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "client/client.hpp"
#include "cluster/testbed.hpp"
#include "common/units.hpp"

namespace daosim {
namespace {

using cluster::kPoolUuid;
using sim::CoTask;

constexpr std::uint64_t kObjSize = 512 * kKiB;
constexpr std::uint64_t kXfer = 16 * kKiB;
constexpr std::uint64_t kChunk = 64 * kKiB;

cluster::ClusterConfig small_cfg(bool agg_on) {
  cluster::ClusterConfig cfg;
  cfg.server_nodes = 2;
  cfg.engines_per_server = 2;
  cfg.targets_per_engine = 4;
  cfg.client_nodes = 1;
  cfg.agg.enabled = agg_on;
  cfg.agg.tick = 100 * sim::kMs;
  cfg.agg.shards_per_run = 64;  // small testbed: every shard, every pass
  return cfg;
}

std::byte pat(std::uint32_t pass, std::uint64_t byte_off) {
  return std::byte(std::uint8_t(pass * 37 + byte_off % 251));
}

CoTask<void> write_pass(client::ArrayObject& arr, std::uint32_t pass) {
  std::vector<std::byte> buf(kXfer);
  for (std::uint64_t off = 0; off < kObjSize; off += kXfer) {
    for (std::uint64_t i = 0; i < kXfer; ++i) buf[i] = pat(pass, off + i);
    const Errno st = co_await arr.write(off, kXfer, buf);
    DAOSIM_REQUIRE(st == Errno::ok, "write: %s", errno_name(st));
  }
}

CoTask<void> verify_pass(client::ArrayObject& arr, std::uint32_t pass,
                         vos::Epoch epoch = vos::kEpochMax) {
  std::vector<std::byte> out(kXfer);
  for (std::uint64_t off = 0; off < kObjSize; off += kXfer) {
    auto got = co_await arr.read(off, out, epoch);
    DAOSIM_REQUIRE(got.ok() && *got == kXfer, "read at %llu",
                   static_cast<unsigned long long>(off));
    for (std::uint64_t i = 0; i < kXfer; i += 131) {
      DAOSIM_REQUIRE(out[i] == pat(pass, off + i), "mismatch pass %u off %llu i %llu", pass,
                     static_cast<unsigned long long>(off), static_cast<unsigned long long>(i));
    }
  }
}

std::uint64_t cluster_stored_bytes(cluster::Testbed& tb) {
  std::uint64_t total = 0;
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
    for (std::uint32_t t = 0; t < tb.engine(e).target_count(); ++t) {
      total += tb.engine(e).vos_target(t).stored_bytes();
    }
  }
  return total;
}

std::uint64_t total_extents_retired(cluster::Testbed& tb) {
  std::uint64_t total = 0;
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
    total += tb.agg_service(e).extents_retired();
  }
  return total;
}

std::string metric_dump(cluster::Testbed& tb) {
  std::ostringstream os;
  tb.dump_metrics(os);
  return os.str();
}

TEST(AggService, FlattensOverwriteHistoryToVisibleImage) {
  cluster::Testbed tb(small_cfg(/*agg_on=*/true));
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto created = co_await tb.client(0).cont_create(kPoolUuid, {});
    DAOSIM_REQUIRE(created.ok(), "cont_create");
    client::ArrayObject arr(tb.client(0), kPoolUuid,
                            client::make_oid(1, client::ObjClass::SX), kChunk);
    for (std::uint32_t pass = 0; pass < 6; ++pass) {
      co_await write_pass(arr, pass);
      co_await tb.sched().delay(300 * sim::kMs);
    }
    co_await tb.sched().delay(1 * sim::kSec);  // final settle
    co_await verify_pass(arr, 5);
  });
  std::uint64_t runs = 0;
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) runs += tb.agg_service(e).runs();
  EXPECT_GT(runs, 0u);
  EXPECT_GT(total_extents_retired(tb), 0u);
  // Six passes wrote 6x the object; flattening leaves exactly the visible
  // image (plus nothing else — coalescing collapses each chunk to one extent).
  EXPECT_GE(cluster_stored_bytes(tb), kObjSize);
  EXPECT_LE(cluster_stored_bytes(tb), kObjSize + 4 * kKiB);
  EXPECT_NE(metric_dump(tb).find("vos/agg/runs"), std::string::npos);
  tb.stop();
}

TEST(AggService, DisabledKeepsFullHistoryAndMetricTree) {
  cluster::Testbed tb(small_cfg(/*agg_on=*/false));
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto created = co_await tb.client(0).cont_create(kPoolUuid, {});
    DAOSIM_REQUIRE(created.ok(), "cont_create");
    client::ArrayObject arr(tb.client(0), kPoolUuid,
                            client::make_oid(1, client::ObjClass::SX), kChunk);
    for (std::uint32_t pass = 0; pass < 6; ++pass) {
      co_await write_pass(arr, pass);
      co_await tb.sched().delay(300 * sim::kMs);
    }
    co_await tb.sched().delay(1 * sim::kSec);
    co_await verify_pass(arr, 5);
  });
  // Every pass's versions are still held: multi-version history intact.
  EXPECT_GE(cluster_stored_bytes(tb), 6 * kObjSize);
  // The disabled service registers nothing in the metric tree.
  EXPECT_EQ(metric_dump(tb).find("vos/agg"), std::string::npos);
  tb.stop();
}

// One deterministic workload run, returning the trace hash after teardown.
std::uint64_t run_workload_hash(bool agg_on) {
  cluster::Testbed tb(small_cfg(agg_on));
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto created = co_await tb.client(0).cont_create(kPoolUuid, {});
    DAOSIM_REQUIRE(created.ok(), "cont_create");
    client::ArrayObject arr(tb.client(0), kPoolUuid,
                            client::make_oid(1, client::ObjClass::SX), kChunk);
    for (std::uint32_t pass = 0; pass < 4; ++pass) {
      co_await write_pass(arr, pass);
      co_await tb.sched().delay(300 * sim::kMs);
    }
    co_await verify_pass(arr, 3);
  });
  tb.stop();
  return tb.sched().trace_hash();
}

TEST(AggDeterminism, SameSeedBitIdenticalWithAggOn) {
  EXPECT_EQ(run_workload_hash(true), run_workload_hash(true));
}

TEST(AggDeterminism, SameSeedBitIdenticalWithAggOff) {
  EXPECT_EQ(run_workload_hash(false), run_workload_hash(false));
}

TEST(AggDeterminism, KnobPerturbsTrace) {
  // The service's RPCs, media charges, and trace notes all fold into the
  // hash: enabling aggregation must change it, so "off" provably runs the
  // exact pre-service event stream.
  EXPECT_NE(run_workload_hash(true), run_workload_hash(false));
}

TEST(AggFloors, SnapshotPinsHistoryUntilDestroyed) {
  cluster::Testbed tb(small_cfg(/*agg_on=*/true));
  tb.start();
  vos::Epoch snap = 0;
  tb.run([&]() -> CoTask<void> {
    auto created = co_await tb.client(0).cont_create(kPoolUuid, {});
    DAOSIM_REQUIRE(created.ok(), "cont_create");
    client::ArrayObject arr(tb.client(0), kPoolUuid,
                            client::make_oid(1, client::ObjClass::SX), kChunk);
    for (std::uint32_t pass = 0; pass < 3; ++pass) co_await write_pass(arr, pass);
    auto s = co_await tb.client(0).snapshot_create(kPoolUuid);
    DAOSIM_REQUIRE(s.ok(), "snapshot_create");
    snap = *s;
    for (std::uint32_t pass = 3; pass < 6; ++pass) {
      co_await write_pass(arr, pass);
      co_await tb.sched().delay(300 * sim::kMs);
    }
    co_await tb.sched().delay(1 * sim::kSec);
    // The snapshot cut still reads the pre-snapshot image byte-for-byte,
    // and the live view reads the newest pass.
    co_await verify_pass(arr, 2, snap);
    co_await verify_pass(arr, 5);
  });
  // Aggregation ran, but everything at or above the snapshot epoch was
  // pinned: the three post-snapshot passes are all still stored.
  EXPECT_GT(total_extents_retired(tb), 0u);
  EXPECT_GE(cluster_stored_bytes(tb), 3 * kObjSize);
  const std::uint64_t pinned = cluster_stored_bytes(tb);
  // Destroying the snapshot unpins the floor; the next passes flatten the
  // backlog down to the visible image.
  tb.run([&]() -> CoTask<void> {
    auto d = co_await tb.client(0).snapshot_destroy(kPoolUuid, snap);
    DAOSIM_REQUIRE(d.ok(), "snapshot_destroy");
    co_await tb.sched().delay(1 * sim::kSec);
  });
  EXPECT_LT(cluster_stored_bytes(tb), pinned);
  EXPECT_LE(cluster_stored_bytes(tb), kObjSize + 4 * kKiB);
  tb.stop();
}

TEST(AggFloors, PreparedDtxPinsFloorUntilCommit) {
  cluster::ClusterConfig cfg = small_cfg(/*agg_on=*/true);
  cfg.dtx.orphan_timeout = 3600 * sim::kSec;  // the reaper must not settle for us
  cluster::Testbed tb(cfg);
  tb.start();
  std::optional<client::ArrayObject> arr;
  tb.run([&]() -> CoTask<void> {
    auto created = co_await tb.client(0).cont_create(kPoolUuid, {});
    DAOSIM_REQUIRE(created.ok(), "cont_create");
    arr.emplace(tb.client(0), kPoolUuid, client::make_oid(1, client::ObjClass::SX), kChunk);
    for (std::uint32_t pass = 0; pass < 3; ++pass) co_await write_pass(*arr, pass);
  });

  // Stage an undecided transaction on every shard at an epoch just above
  // phase 1 (a dedicated key, so it conflicts with nothing). Its prepared
  // epoch is each shard's aggregation ceiling until the decision lands.
  vos::Epoch pin = 0;
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
    for (std::uint32_t t = 0; t < tb.engine(e).target_count(); ++t) {
      const vos::VosContainer* c = tb.engine(e).vos_target(t).find_container(kPoolUuid);
      if (c != nullptr) pin = std::max(pin, c->current_epoch());
    }
  }
  pin += 1;
  std::uint64_t seq = 0;
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
    for (std::uint32_t t = 0; t < tb.engine(e).target_count(); ++t) {
      vos::DtxEntry entry;
      entry.id = vos::DtxId{999, seq++};
      entry.epoch = pin;
      entry.leader = 0;
      entry.ops.push_back(
          vos::DtxOp{.oid = vos::ObjId{9999, 1}, .dkey = "pin", .akey = "a", .data = nullptr});
      ASSERT_EQ(tb.engine(e).vos_target(t).container(kPoolUuid).dtx_prepare(std::move(entry)),
                Errno::ok);
    }
  }

  tb.run([&]() -> CoTask<void> {
    for (std::uint32_t pass = 3; pass < 6; ++pass) {
      co_await write_pass(*arr, pass);
      co_await tb.sched().delay(300 * sim::kMs);
    }
    co_await tb.sched().delay(1 * sim::kSec);
    co_await verify_pass(*arr, 5);
  });
  // Nothing above the prepared epoch may merge: the three post-prepare
  // passes are all still stored.
  EXPECT_GE(cluster_stored_bytes(tb), 3 * kObjSize);

  // Decide the transaction everywhere; the floors lift and the backlog
  // flattens to the visible image.
  seq = 0;
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
    for (std::uint32_t t = 0; t < tb.engine(e).target_count(); ++t) {
      EXPECT_TRUE(tb.engine(e).vos_target(t).container(kPoolUuid).dtx_commit(
          vos::DtxId{999, seq++}));
    }
  }
  tb.run([&]() -> CoTask<void> {
    co_await tb.sched().delay(1 * sim::kSec);
    co_await verify_pass(*arr, 5);
  });
  EXPECT_LE(cluster_stored_bytes(tb), kObjSize + 4 * kKiB);
  tb.stop();
}

TEST(AggFault, CrashMidAggregationHealsByteCorrect) {
  cluster::ClusterConfig cfg = small_cfg(/*agg_on=*/true);
  cfg.agg.tick = 50 * sim::kMs;  // keep the service hot around the crash
  cluster::Testbed tb(cfg);
  tb.start();
  vos::Epoch snap = 0;
  tb.run([&]() -> CoTask<void> {
    auto created = co_await tb.client(0).cont_create(kPoolUuid, {});
    DAOSIM_REQUIRE(created.ok(), "cont_create");
    client::ArrayObject arr(tb.client(0), kPoolUuid,
                            client::make_oid(1, client::ObjClass::SX), kChunk);
    for (std::uint32_t pass = 0; pass < 2; ++pass) {
      co_await write_pass(arr, pass);
      co_await tb.sched().delay(120 * sim::kMs);
    }
    auto s = co_await tb.client(0).snapshot_create(kPoolUuid);
    DAOSIM_REQUIRE(s.ok(), "snapshot_create");
    snap = *s;
    // Crash the non-pool-service engine while its aggregation loop is live
    // (VOS survives, as on persistent media), let the cluster tick through
    // the outage, then heal and keep overwriting.
    tb.crash_engine(3);
    co_await tb.sched().delay(200 * sim::kMs);
    tb.restart_engine(3);
    for (std::uint32_t pass = 2; pass < 5; ++pass) {
      co_await write_pass(arr, pass);
      co_await tb.sched().delay(120 * sim::kMs);
    }
    co_await tb.sched().delay(1 * sim::kSec);
    // Byte-correct after heal: the snapshot cut still reads the
    // pre-crash image, the live view the newest pass.
    co_await verify_pass(arr, 1, snap);
    co_await verify_pass(arr, 4);
  });
  EXPECT_GT(total_extents_retired(tb), 0u);
  tb.stop();
}

}  // namespace
}  // namespace daosim
