// Self-healing redundancy suite: replicated-class placement invariants, the
// Raft-replicated rebuild-task state machine, data-loss surfacing when a
// whole redundancy group is gone, the end-to-end crash -> scan -> pull ->
// rebuild_done healing path under a live IOR job, and reintegration resync
// (epoch-diff catch-up of writes the evicted engine missed).
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "co_assert.hpp"
#include "engine/proto.hpp"
#include "fault/fault.hpp"
#include "ior/ior.hpp"

namespace daosim {
namespace {

using client::ObjClass;
using cluster::ClusterConfig;
using cluster::kPoolUuid;
using cluster::Testbed;
using sim::CoTask;

ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.server_nodes = 2;
  cfg.engines_per_server = 2;   // 4 engines; svc replicas on engines 0..2
  cfg.targets_per_engine = 4;   // 16 targets
  cfg.client_nodes = 2;
  return cfg;
}

pool::PoolMap unit_map(std::uint32_t engines, std::uint32_t tpe) {
  pool::PoolMap map;
  map.pool = kPoolUuid;
  for (std::uint32_t e = 0; e < engines; ++e) {
    for (std::uint32_t t = 0; t < tpe; ++t) {
      map.targets.push_back(pool::TargetRef{e, t, pool::TargetHealth::up});
    }
  }
  return map;
}

std::vector<std::byte> bytes(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

std::string str(const std::vector<std::byte>& v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

/// Finds an RP_2G1 object whose single redundancy group has one replica on
/// `want_engine` (by testbed index). Returns the OID sequence and reports the
/// other replica's engine index through `other`. Lets tests crash both
/// replica engines while at most one pool-service replica goes with them.
std::uint64_t find_group_on_engine(Testbed& tb, std::uint32_t want_engine,
                                   std::uint32_t& other) {
  const pool::PoolMap& map = tb.pool_map();
  const net::NodeId want = tb.engine(want_engine).node();
  for (std::uint64_t seq = 1; seq < 500; ++seq) {
    const auto oid = client::make_oid(seq, ObjClass::RP_2G1);
    const auto nom = client::compute_nominal_layout(oid, 1, 2, map);
    const net::NodeId ea = map.targets[nom.at(0, 0)].engine;
    const net::NodeId eb = map.targets[nom.at(0, 1)].engine;
    if (ea != want && eb != want) continue;
    const net::NodeId oth = ea == want ? eb : ea;
    for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
      if (tb.engine(e).node() == oth) other = e;
    }
    return seq;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Replicated placement (pure functions)

TEST(GroupPlacement, ReplicasOnDistinctEngines) {
  const pool::PoolMap map = unit_map(4, 4);
  for (std::uint64_t seq = 1; seq <= 50; ++seq) {
    const auto oid = client::make_oid(seq, ObjClass::RP_2GX);
    const std::uint32_t groups = client::group_count(ObjClass::RP_2GX, map.target_count());
    ASSERT_EQ(groups, 8u);  // 16 targets / 2 replicas
    const auto layout = client::compute_nominal_layout(oid, groups, 2, map);
    for (std::uint32_t g = 0; g < groups; ++g) {
      EXPECT_NE(map.targets[layout.at(g, 0)].engine, map.targets[layout.at(g, 1)].engine)
          << "oid " << seq << " group " << g << " replicas share an engine";
    }
    // Deterministic: recomputation is byte-identical.
    EXPECT_EQ(layout.targets, client::compute_nominal_layout(oid, groups, 2, map).targets);
  }
}

TEST(GroupPlacement, SingleReplicaMatchesClassicLayout) {
  pool::PoolMap map = unit_map(4, 4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    map.targets[4 + t].health = pool::TargetHealth::excluded;  // engine 1 out
  }
  for (std::uint64_t seq = 1; seq <= 50; ++seq) {
    const auto oid = client::make_oid(seq, ObjClass::SX);
    const auto grouped = client::compute_group_layout(oid, 16, 1, map);
    EXPECT_EQ(grouped.targets, client::compute_layout(oid, 16, map))
        << "R=1 group layout diverged from the classic walk for oid " << seq;
  }
}

TEST(GroupPlacement, SurvivorsNeverMoveUnderExclusion) {
  pool::PoolMap map = unit_map(4, 4);
  const pool::PoolMap healthy = map;
  for (std::uint32_t t = 0; t < 4; ++t) {
    map.targets[8 + t].health = pool::TargetHealth::excluded;  // engine 2 out
  }
  for (std::uint64_t seq = 1; seq <= 50; ++seq) {
    const auto oid = client::make_oid(seq, ObjClass::RP_2GX);
    const std::uint32_t groups = client::group_count(ObjClass::RP_2GX, map.target_count());
    const auto nominal = client::compute_nominal_layout(oid, groups, 2, healthy);
    const auto degraded = client::compute_group_layout(oid, groups, 2, map);
    for (std::uint32_t g = 0; g < groups; ++g) {
      for (std::uint32_t r = 0; r < 2; ++r) {
        const std::uint32_t nom = nominal.at(g, r);
        const std::uint32_t cur = degraded.at(g, r);
        if (map.targets[nom].health == pool::TargetHealth::up) {
          EXPECT_EQ(cur, nom) << "healthy replica moved (oid " << seq << ")";
        } else {
          EXPECT_EQ(map.targets[cur].health, pool::TargetHealth::up)
              << "substitute is excluded (oid " << seq << ")";
        }
      }
      // Post-substitution the group still spans two engines.
      EXPECT_NE(map.targets[degraded.at(g, 0)].engine, map.targets[degraded.at(g, 1)].engine);
    }
  }
}

// ---------------------------------------------------------------------------
// Rebuild-task state machine (Raft-replicated pool metadata)

TEST(RebuildSm, EvictionCreatesTaskAndDoneIsGuarded) {
  pool::PoolMetaSm sm;
  sm.set_engines({10, 11, 12, 13});
  EXPECT_EQ(sm.map_version(), 1u);

  EXPECT_EQ(sm.execute(pool::PoolEvict{11}).value(), 2u);
  ASSERT_EQ(sm.rebuild_tasks().size(), 1u);
  const auto* task = sm.rebuild_task(2);
  ASSERT_NE(task, nullptr);
  EXPECT_FALSE(task->resync);
  EXPECT_EQ(task->node, 11u);
  EXPECT_EQ(task->participants, (std::set<net::NodeId>{10, 12, 13}));
  EXPECT_FALSE(task->complete());
  EXPECT_EQ(sm.rebuilds_incomplete(), 1u);

  // Idempotent eviction: same version, no second task.
  EXPECT_EQ(sm.execute(pool::PoolEvict{11}).value(), 2u);
  EXPECT_EQ(sm.rebuild_tasks().size(), 1u);

  // Duplicate and stale reports are absorbed, not double-counted.
  EXPECT_EQ(sm.execute(pool::RebuildDone{10, 2}).value(), pool::RebuildAck::done);
  EXPECT_EQ(sm.execute(pool::RebuildDone{10, 2}).value(), pool::RebuildAck::dup);
  EXPECT_EQ(sm.execute(pool::RebuildDone{10, 7}).value(), pool::RebuildAck::stale);
  EXPECT_EQ(task->done.size(), 1u);

  EXPECT_EQ(sm.execute(pool::RebuildDone{12, 2}).value(), pool::RebuildAck::done);
  EXPECT_FALSE(task->complete());
  EXPECT_EQ(sm.execute(pool::RebuildDone{13, 2}).value(), pool::RebuildAck::done);
  EXPECT_TRUE(task->complete());
  EXPECT_EQ(sm.rebuilds_incomplete(), 0u);
}

TEST(RebuildSm, NewerMapChangeSupersedesAndReintResyncs) {
  pool::PoolMetaSm sm;
  sm.set_engines({1, 2, 3, 4});

  EXPECT_EQ(sm.execute(pool::PoolEvict{3}).value(), 2u);
  EXPECT_EQ(sm.execute(pool::PoolEvict{4}).value(), 3u);
  // The v2 scan is invalidated by the newer map; v3 covers its work.
  EXPECT_TRUE(sm.rebuild_task(2)->superseded);
  EXPECT_TRUE(sm.rebuild_task(2)->complete());
  ASSERT_TRUE(sm.newest_incomplete_rebuild().has_value());
  EXPECT_EQ(*sm.newest_incomplete_rebuild(), 3u);

  EXPECT_EQ(sm.execute(pool::RebuildDone{1, 3}).value(), pool::RebuildAck::done);
  EXPECT_EQ(sm.execute(pool::RebuildDone{2, 3}).value(), pool::RebuildAck::done);
  EXPECT_EQ(sm.rebuilds_incomplete(), 0u);

  // Reintegration starts a resync task remembering the eviction's version,
  // so participants copy only the epoch window the engine missed.
  EXPECT_EQ(sm.execute(pool::PoolReint{3}).value(), 4u);
  const auto* resync = sm.rebuild_task(4);
  ASSERT_NE(resync, nullptr);
  EXPECT_TRUE(resync->resync);
  EXPECT_EQ(resync->node, 3u);
  EXPECT_EQ(resync->since_version, 2u);
  EXPECT_EQ(resync->participants, (std::set<net::NodeId>{1, 2, 3}));  // 4 still out
  EXPECT_EQ(sm.rebuilds_incomplete(), 1u);
}

TEST(RebuildSm, EvictionRequeuesSupersededResync) {
  pool::PoolMetaSm sm;
  sm.set_engines({1, 2, 3, 4});
  EXPECT_EQ(sm.execute(pool::PoolEvict{3}).value(), 2u);
  EXPECT_EQ(sm.execute(pool::RebuildDone{1, 2}).value(), pool::RebuildAck::done);
  EXPECT_EQ(sm.execute(pool::RebuildDone{2, 2}).value(), pool::RebuildAck::done);
  EXPECT_EQ(sm.execute(pool::RebuildDone{4, 2}).value(), pool::RebuildAck::done);
  EXPECT_EQ(sm.rebuilds_incomplete(), 0u);
  EXPECT_EQ(sm.execute(pool::PoolReint{3}).value(), 3u);
  ASSERT_NE(sm.rebuild_task(3), nullptr);
  EXPECT_TRUE(sm.rebuild_task(3)->resync);

  // An unrelated eviction supersedes the pending resync, but must not drop
  // its work: the eviction scan covers re-replication for the new exclusion
  // set, not engine 3's window diff. The resync is re-queued at a fresh map
  // version — hence "ok 5", one bump for the eviction, one for the re-queue.
  EXPECT_EQ(sm.execute(pool::PoolEvict{4}).value(), 5u);
  EXPECT_TRUE(sm.rebuild_task(3)->superseded);
  const auto* repair = sm.rebuild_task(4);
  ASSERT_NE(repair, nullptr);
  EXPECT_FALSE(repair->resync);
  EXPECT_EQ(repair->node, 4u);
  const auto* requeued = sm.rebuild_task(5);
  ASSERT_NE(requeued, nullptr);
  EXPECT_TRUE(requeued->resync);
  EXPECT_EQ(requeued->node, 3u);
  EXPECT_EQ(requeued->since_version, 2u);
  EXPECT_EQ(requeued->participants, (std::set<net::NodeId>{1, 2, 3}));
  EXPECT_EQ(sm.incomplete_rebuilds(), (std::vector<std::uint32_t>{4, 5}));

  // Re-evicting the resyncing engine itself drops its resync for good: the
  // eviction rebuild restores its replicas from the survivors instead.
  EXPECT_EQ(sm.execute(pool::PoolEvict{3}).value(), 6u);
  EXPECT_EQ(sm.incomplete_rebuilds(), (std::vector<std::uint32_t>{6}));
}

TEST(RebuildSm, ReintRequeuesSupersededEvictionRepair) {
  pool::PoolMetaSm sm;
  sm.set_engines({1, 2, 3, 4});
  EXPECT_EQ(sm.execute(pool::PoolEvict{3}).value(), 2u);
  // A second eviction's scan runs against the full exclusion set, so the
  // superseded v2 task needs no re-queue.
  EXPECT_EQ(sm.execute(pool::PoolEvict{4}).value(), 3u);
  EXPECT_EQ(sm.incomplete_rebuilds(), (std::vector<std::uint32_t>{3}));

  // Reintegrating 3 supersedes the v3 repair, but a resync scan does not
  // re-replicate data for engine 4 (still excluded): the repair is re-queued
  // against the new map alongside the resync task.
  EXPECT_EQ(sm.execute(pool::PoolReint{3}).value(), 5u);
  const auto* resync = sm.rebuild_task(4);
  ASSERT_NE(resync, nullptr);
  EXPECT_TRUE(resync->resync);
  EXPECT_EQ(resync->node, 3u);
  EXPECT_EQ(resync->since_version, 2u);
  const auto* repair = sm.rebuild_task(5);
  ASSERT_NE(repair, nullptr);
  EXPECT_FALSE(repair->resync);
  EXPECT_EQ(repair->excluded, (std::set<net::NodeId>{4}));
  EXPECT_EQ(repair->participants, (std::set<net::NodeId>{1, 2, 3}));
  EXPECT_EQ(sm.incomplete_rebuilds(), (std::vector<std::uint32_t>{4, 5}));

  // A new leader restoring a snapshot resumes both re-queued tasks.
  const std::string snap = sm.snapshot();
  pool::PoolMetaSm fresh;
  fresh.set_engines({1, 2, 3, 4});
  fresh.restore(snap);
  EXPECT_EQ(fresh.incomplete_rebuilds(), (std::vector<std::uint32_t>{4, 5}));
  EXPECT_EQ(fresh.snapshot(), snap);
}

TEST(RebuildSm, SnapshotRoundTripsRebuildState) {
  pool::PoolMetaSm sm;
  sm.set_engines({1, 2, 3, 4});
  EXPECT_TRUE(sm.execute(pool::ContCreate{{9, 9}, {1048576, 5}}).ok());
  EXPECT_EQ(sm.execute(pool::PoolEvict{2}).value(), 2u);
  EXPECT_EQ(sm.execute(pool::RebuildDone{1, 2}).value(), pool::RebuildAck::done);

  const std::string snap = sm.snapshot();
  pool::PoolMetaSm fresh;
  fresh.set_engines({1, 2, 3, 4});
  fresh.restore(snap);

  EXPECT_EQ(fresh.map_version(), 2u);
  EXPECT_TRUE(fresh.excluded_engines().contains(2u));
  const auto* task = fresh.rebuild_task(2);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->participants, (std::set<net::NodeId>{1, 3, 4}));
  EXPECT_EQ(task->done, (std::set<net::NodeId>{1}));
  EXPECT_FALSE(task->complete());
  // A leader restoring this snapshot resumes where the old one stopped.
  EXPECT_EQ(fresh.execute(pool::RebuildDone{1, 2}).value(), pool::RebuildAck::dup);
  EXPECT_EQ(fresh.snapshot(), snap);
}

// ---------------------------------------------------------------------------
// Data-loss surfacing

TEST(Rebuild, ReadSurfacesDataLossWhenGroupIsGone) {
  Testbed tb(small_cluster());
  tb.start();
  std::uint32_t other = 0;
  const std::uint64_t seq = find_group_on_engine(tb, 3, other);
  ASSERT_NE(seq, 0u);
  ASSERT_NE(other, 3u);

  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    client::KvObject kv(cl, kPoolUuid, client::make_oid(seq, ObjClass::RP_2G1));
    auto v = bytes("survives-one-crash-not-two");
    CO_ASSERT_ERRNO(co_await kv.put("d", "a", v), Errno::ok);

    // Both replica engines die in the same instant: nothing is left to pull
    // from, so rebuild cannot resurrect the group.
    tb.crash_engine(3);
    tb.crash_engine(other);

    auto got = co_await kv.get("d", "a");
    CO_ASSERT_TRUE(!got.ok());
    EXPECT_EQ(got.error(), Errno::data_loss);
    EXPECT_GE(cl.data_loss_events(), 1u);
    // The diagnostic names the object so an operator can find the victim.
    EXPECT_NE(cl.last_data_loss().find("group"), std::string::npos) << cl.last_data_loss();
  });
  tb.stop();
}

// A miss is only definitive when every replica answered. Here one replica's
// engine — and every walk-forward substitute the re-placement loop tries
// after the resulting eviction — drops fetches on the wire, so the surviving
// replica's ok-but-missing answer must surface the failure rather than a
// confident no_entry (the unreachable replica could hold the key). The pool
// is sized so the substitute walk still has fresh engines when the
// re-placement rounds run out; a smaller pool would relax the walk back onto
// the answering engine and legitimately conclude no_entry.
TEST(Rebuild, MissWithFailedReplicaIsNotNoEntry) {
  ClusterConfig cfg = small_cluster();
  cfg.server_nodes = 3;  // 6 engines
  Testbed tb(cfg);
  tb.start();
  std::uint32_t other = 0;
  const std::uint64_t seq = find_group_on_engine(tb, 3, other);
  ASSERT_NE(seq, 0u);
  const auto oid = client::make_oid(seq, ObjClass::RP_2G1);
  const net::NodeId ok_node = tb.engine(other).node();

  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    client::KvObject kv(cl, kPoolUuid, oid);
    auto v1 = bytes("present");
    CO_ASSERT_ERRNO(co_await kv.put("k1", "a", v1), Errno::ok);
    // With every replica answering, a miss is a definitive no_entry.
    auto miss = co_await kv.get("absent", "a");
    CO_ASSERT_ERRNO(miss.error(), Errno::no_entry);
    // Now only `other` answers object fetches.
    tb.domain().set_fault_hook([&](net::NodeId, net::NodeId dst, std::uint16_t op) {
      net::CallFault f;
      f.drop = op == engine::kOpObjFetch && dst != ok_node;
      return f;
    });
    auto g = co_await kv.get("absent", "a");
    tb.domain().set_fault_hook({});
    CO_ASSERT_TRUE(!g.ok());
    EXPECT_NE(g.error(), Errno::no_entry);
  });
  tb.stop();
}

// ---------------------------------------------------------------------------
// End-to-end healing (the headline scenario)

TEST(Rebuild, SelfHealsAfterCrashMidWrite) {
  ClusterConfig cfg = small_cluster();
  cfg.payload = vos::PayloadMode::store;
  Testbed tb(cfg);
  tb.start();

  ior::IorConfig job;
  job.api = ior::Api::daos_array;
  job.transfer_size = 256 * kKiB;
  job.block_size = 1 * kMiB;
  job.segments = 2;
  job.file_per_process = false;  // hard mode: one shared replicated file
  job.verify = true;
  job.oclass = std::uint8_t(ObjClass::RP_2G2);

  ior::IorRunner runner(tb, /*ppn=*/4);

  // A fault-free warm-up job pins down the deterministic OID sequence: each
  // daos_array job leases ranks+1 OIDs, so the next job's shared file sits at
  // oid_base + ranks + 1. That lets us crash an engine that actually hosts
  // one of the file's replicas (a 2-group object only touches 4 of the 16
  // targets, so a fixed victim could miss the layout entirely).
  const ior::IorResult warm = runner.run(job);
  EXPECT_EQ(warm.verify_errors, 0u);
  const std::uint64_t next_base = runner.last_job().oid_base + runner.ranks() + 1;
  const auto oid = client::make_oid(next_base, ObjClass::RP_2G2);
  const std::uint32_t groups = client::group_count(ObjClass::RP_2G2, tb.pool_map().target_count());
  const auto nominal = client::compute_nominal_layout(oid, groups, 2, tb.pool_map());
  std::uint32_t victim = tb.engine_count();
  for (std::uint32_t s = 0; s < nominal.size(); ++s) {
    const net::NodeId host = tb.pool_map().targets[nominal.targets[s]].engine;
    for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
      if (tb.engine(e).node() != host) continue;
      if (victim == tb.engine_count()) victim = e;  // fallback: any replica engine
      if (e >= tb.svc_replica_count()) victim = e;  // prefer non-pool-service engines
    }
  }
  ASSERT_LT(victim, tb.engine_count());

  // The victim dies 5 ms into the real job's write phase.
  auto sched = fault::Schedule::parse(strfmt("crash@5ms:e%u", victim));
  ASSERT_TRUE(sched.ok());
  tb.inject_faults(*sched, /*seed=*/1);

  const ior::IorResult res = runner.run(job);
  ASSERT_EQ(runner.last_job().oid_base, next_base);

  // The job rides out the crash: replicas keep every group readable, and
  // foreground bandwidth stays above zero while rebuild traffic flows.
  EXPECT_GT(res.write.gib_per_sec(), 0.0);
  EXPECT_EQ(res.verify_errors, 0u);
  EXPECT_EQ(res.read_fill_errors, 0u);
  EXPECT_EQ(res.data_loss_events, 0u);

  ASSERT_TRUE(tb.wait_rebuild());

  // Redundancy restored: under the healed map every group again has two
  // non-excluded replicas on distinct engines.
  const auto leader = tb.svc_leader();
  ASSERT_TRUE(leader.has_value());
  const auto& sm = tb.svc_replica(*leader).meta();
  EXPECT_TRUE(sm.excluded_engines().contains(tb.engine(victim).node()));
  pool::PoolMap healed = tb.pool_map();
  for (auto& t : healed.targets) {
    if (sm.excluded_engines().contains(t.engine)) t.health = pool::TargetHealth::excluded;
  }
  const auto layout = client::compute_group_layout(oid, groups, 2, healed);
  for (std::uint32_t g = 0; g < groups; ++g) {
    const auto& t0 = healed.targets[layout.at(g, 0)];
    const auto& t1 = healed.targets[layout.at(g, 1)];
    EXPECT_EQ(t0.health, pool::TargetHealth::up);
    EXPECT_EQ(t1.health, pool::TargetHealth::up);
    EXPECT_NE(t0.engine, t1.engine) << "group " << g << " lost engine diversity";
  }

  // The rebuilt replicas hold real data: with the victim still down, a full
  // readback of the shared file is byte-correct.
  const std::uint64_t total =
      std::uint64_t(runner.ranks()) * job.block_size * job.segments;
  const std::uint64_t file_seed = runner.last_job().file_seed;
  tb.run([&]() -> CoTask<void> {
    client::ArrayObject arr(tb.client(1), kPoolUuid, oid, 1 * kMiB);
    std::vector<std::byte> buf(256 * kKiB);
    std::uint64_t bad = 0;
    std::uint64_t short_reads = 0;
    for (std::uint64_t off = 0; off < total; off += buf.size()) {
      auto n = co_await arr.read(off, buf);
      CO_ASSERT_TRUE(n.ok());
      if (*n != buf.size()) ++short_reads;
      bad += ior::check_pattern(buf, off, file_seed);
    }
    EXPECT_EQ(bad, 0u);
    EXPECT_EQ(short_reads, 0u);
  });

  // Data actually moved, and never more than max_inflight pulls at once.
  std::uint64_t moved = 0;
  std::uint32_t peak = 0;
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
    moved += tb.rebuild_service(e).bytes_rebuilt();
    peak = std::max(peak, tb.rebuild_service(e).peak_inflight());
  }
  EXPECT_GT(moved, 0u);
  EXPECT_GT(peak, 0u);
  EXPECT_LE(peak, cfg.rebuild.max_inflight);
  tb.stop();
}

// ---------------------------------------------------------------------------
// Reintegration resync

TEST(Rebuild, ReintegrationResyncsWindowWrites) {
  Testbed tb(small_cluster());
  tb.start();
  std::uint32_t other = 0;
  const std::uint64_t seq = find_group_on_engine(tb, 3, other);
  ASSERT_NE(seq, 0u);
  const auto oid = client::make_oid(seq, ObjClass::RP_2G1);

  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    client::KvObject kv(cl, kPoolUuid, oid);
    auto v1 = bytes("pre-eviction");
    CO_ASSERT_ERRNO(co_await kv.put("k1", "a", v1), Errno::ok);

    tb.crash_engine(3);
    // This put rides the crash: the client reports the eviction and fans the
    // write to the walk-forward substitute. Engine 3 never sees it.
    auto v2 = bytes("written-while-engine3-was-out");
    CO_ASSERT_ERRNO(co_await kv.put("k2", "a", v2), Errno::ok);
  });
  ASSERT_TRUE(tb.wait_rebuild());  // eviction rebuild converges

  tb.restart_engine(3);  // back up, still EXCLUDED from placement
  tb.run([&]() -> CoTask<void> {
    auto r = co_await tb.client(0).pool_reint(tb.engine(3).node());
    CO_ASSERT_TRUE(r.ok());
  });
  ASSERT_TRUE(tb.wait_rebuild());  // resync copies the missed epoch window

  // The resynced replica alone must now serve both generations of data:
  // take the other nominal replica's engine away and read.
  tb.crash_engine(other);
  tb.run([&]() -> CoTask<void> {
    client::KvObject kv(tb.client(1), kPoolUuid, oid);
    auto g1 = co_await kv.get("k1", "a");
    CO_ASSERT_TRUE(g1.ok());
    EXPECT_EQ(str(*g1), "pre-eviction");
    auto g2 = co_await kv.get("k2", "a");
    CO_ASSERT_TRUE(g2.ok());
    EXPECT_EQ(str(*g2), "written-while-engine3-was-out");
  });
  tb.stop();
}

// A write that lands after pool_reint but before the resync image is applied
// must survive: the apply is epoch-floor-guarded, not a blind overwrite. The
// race window is widened deterministically by wedging the resync source's
// target, so the pulled window image arrives hundreds of milliseconds after
// the post-reintegration put.
TEST(Rebuild, ResyncPreservesPostReintegrationWrites) {
  Testbed tb(small_cluster());
  tb.start();
  std::uint32_t other = 0;
  const std::uint64_t seq = find_group_on_engine(tb, 3, other);
  ASSERT_NE(seq, 0u);
  const auto oid = client::make_oid(seq, ObjClass::RP_2G1);
  const net::NodeId reint_node = tb.engine(3).node();

  // The walk-forward substitute that covered engine 3's replica during the
  // outage holds the window diff, so it is the resync source.
  pool::PoolMap wmap = tb.pool_map();
  for (auto& t : wmap.targets) {
    if (t.engine == reint_node) t.health = pool::TargetHealth::excluded;
  }
  const auto nominal = client::compute_nominal_layout(oid, 1, 2, tb.pool_map());
  const auto windowl = client::compute_group_layout(oid, 1, 2, wmap);
  std::uint32_t sub = std::uint32_t(wmap.targets.size());
  for (std::uint32_t r = 0; r < 2; ++r) {
    if (tb.pool_map().targets[nominal.at(0, r)].engine == reint_node) sub = windowl.at(0, r);
  }
  ASSERT_LT(sub, wmap.targets.size());
  std::uint32_t sub_engine = tb.engine_count();
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
    if (tb.engine(e).node() == wmap.targets[sub].engine) sub_engine = e;
  }
  ASSERT_LT(sub_engine, tb.engine_count());

  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    client::KvObject kv(cl, kPoolUuid, oid);
    auto v1 = bytes("pre-eviction");
    CO_ASSERT_ERRNO(co_await kv.put("k1", "a", v1), Errno::ok);
    tb.crash_engine(3);
    auto v2 = bytes("written-while-engine3-was-out");
    CO_ASSERT_ERRNO(co_await kv.put("k2", "a", v2), Errno::ok);
  });
  ASSERT_TRUE(tb.wait_rebuild());

  // A second window write after the eviction rebuild settled: the first k2
  // put races ahead of the eviction scan and lands below the substitute's
  // epoch mark, but this one lands above it, so the resync diff carries it
  // back to the reintegrated replica.
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    client::KvObject kv(cl, kPoolUuid, oid);
    auto v2b = bytes("late-window-write");
    CO_ASSERT_ERRNO(co_await kv.put("k2", "a", v2b), Errno::ok);
  });

  tb.restart_engine(3);
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    auto r = co_await cl.pool_reint(reint_node);
    CO_ASSERT_TRUE(r.ok());
    // Wedge the source before the resync fetch can stream: the window image
    // is exported promptly but applied only after the stall clears, long
    // after this put has been acknowledged on the reintegrated replica.
    tb.engine(sub_engine).stall_target(tb.pool_map().targets[sub].target, 500 * sim::kMs);
    client::KvObject kv(cl, kPoolUuid, oid);
    auto v3 = bytes("overwritten-after-reintegration");
    CO_ASSERT_ERRNO(co_await kv.put("k2", "a", v3), Errno::ok);
  });
  ASSERT_TRUE(tb.wait_rebuild());

  // The window image did reach the reintegrated engine (the guard was
  // exercised, not bypassed) ...
  EXPECT_GT(tb.rebuild_service(3).bytes_rebuilt(), 0u);
  // ... but its replica keeps the newest generation: the stale image lost to
  // the post-reintegration put. Assert the VOS directly — a client read could
  // be served by the other replica and mask a clobbered one.
  std::uint32_t reint_target = std::uint32_t(wmap.targets.size());
  for (std::uint32_t r = 0; r < 2; ++r) {
    const auto& t = tb.pool_map().targets[nominal.at(0, r)];
    if (t.engine == reint_node) reint_target = t.target;
  }
  ASSERT_LT(reint_target, wmap.targets.size());
  const vos::VosContainer* cont =
      tb.engine(3).vos_target(reint_target).find_container(kPoolUuid);
  ASSERT_NE(cont, nullptr);
  const auto g1 = cont->kv_get(oid, "k1", "a", vos::kEpochMax);
  ASSERT_TRUE(g1.exists);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(g1.data.data()), g1.data.size()),
            "pre-eviction");
  const auto g2 = cont->kv_get(oid, "k2", "a", vos::kEpochMax);
  ASSERT_TRUE(g2.exists);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(g2.data.data()), g2.data.size()),
            "overwritten-after-reintegration");
  tb.stop();
}

// A re-driven task must re-scan participants that already reported done:
// sources with empty assignments report done almost immediately, and their
// scans feed other destinations' assignments. Here the destination's first
// pull round is dropped on the wire, forcing a re-drive after every source
// is done — the substitute must still receive the records.
TEST(Rebuild, RedrivenTaskRescansDoneSources) {
  Testbed tb(small_cluster());
  tb.start();
  std::uint32_t other = 0;
  const std::uint64_t seq = find_group_on_engine(tb, 3, other);
  ASSERT_NE(seq, 0u);
  const auto oid = client::make_oid(seq, ObjClass::RP_2G1);

  // Where the rebuild lands: the substitute for engine 3's replica slot.
  pool::PoolMap emap = tb.pool_map();
  const net::NodeId victim_node = tb.engine(3).node();
  for (auto& t : emap.targets) {
    if (t.engine == victim_node) t.health = pool::TargetHealth::excluded;
  }
  const auto nominal = client::compute_nominal_layout(oid, 1, 2, tb.pool_map());
  const auto degraded = client::compute_group_layout(oid, 1, 2, emap);
  std::uint32_t sub = std::uint32_t(emap.targets.size());
  for (std::uint32_t r = 0; r < 2; ++r) {
    if (tb.pool_map().targets[nominal.at(0, r)].engine == victim_node) sub = degraded.at(0, r);
  }
  ASSERT_LT(sub, emap.targets.size());
  std::uint32_t sub_engine = tb.engine_count();
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
    if (tb.engine(e).node() == emap.targets[sub].engine) sub_engine = e;
  }
  ASSERT_LT(sub_engine, tb.engine_count());

  // Swallow the destination's first pull round (kFetchAttempts = 3): its
  // assignment fails after the sources have long reported done, and the
  // coordinator re-drives the task from scratch.
  int fetch_drops = 0;
  tb.domain().set_fault_hook([&fetch_drops](net::NodeId, net::NodeId, std::uint16_t opcode) {
    net::CallFault f;
    if (opcode == engine::kOpRebuildFetch && fetch_drops < 3) {
      ++fetch_drops;
      f.drop = true;
    }
    return f;
  });

  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    client::KvObject kv(cl, kPoolUuid, oid);
    auto v1 = bytes("needs-rebuild");
    CO_ASSERT_ERRNO(co_await kv.put("k1", "a", v1), Errno::ok);
    tb.crash_engine(3);
    // Rides the crash, reports the eviction, and starts the rebuild.
    auto v2 = bytes("degraded-window-write");
    CO_ASSERT_ERRNO(co_await kv.put("k2", "a", v2), Errno::ok);
  });
  ASSERT_TRUE(tb.wait_rebuild());
  EXPECT_EQ(fetch_drops, 3);  // the dropped round actually happened
  tb.domain().set_fault_hook({});

  // The re-driven assignment carried the done source's entries: the
  // substitute's VOS holds both generations of the group's data.
  const vos::VosContainer* cont =
      tb.engine(sub_engine).vos_target(emap.targets[sub].target).find_container(kPoolUuid);
  ASSERT_NE(cont, nullptr);
  const auto g1 = cont->kv_get(oid, "k1", "a", vos::kEpochMax);
  ASSERT_TRUE(g1.exists);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(g1.data.data()), g1.data.size()),
            "needs-rebuild");
  const auto g2 = cont->kv_get(oid, "k2", "a", vos::kEpochMax);
  ASSERT_TRUE(g2.exists);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(g2.data.data()), g2.data.size()),
            "degraded-window-write");
  tb.stop();
}

}  // namespace
}  // namespace daosim
