// Fault-injection suite: deterministic fault schedules (crash / restart /
// drop / delay / stall), the client's deadline+retry+backoff machinery, the
// eviction path as clients see it (SWIM evicts, pool-map version bumps,
// EXCLUDED targets, stale re-placement), and the bit-reproducibility of
// whole IOR runs under seeded fault schedules.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "co_assert.hpp"
#include "eviction_check.hpp"
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

/// Map-target indices are engine-major: engine e owns [e*tpe, (e+1)*tpe).
std::uint32_t first_target_of_engine(const ClusterConfig& cfg, std::uint32_t engine) {
  return engine * cfg.targets_per_engine;
}

// ---------------------------------------------------------------------------
// Schedule grammar

TEST(FaultSchedule, ParseAcceptsFullGrammar) {
  auto parsed = fault::Schedule::parse(
      "crash@200ms:e3,restart@1.5s:e3,drop@0s-500ms:e1:0.25,delay@100ms-1s:*:200us,"
      "stall@50ms:e0.2:30ms");
  ASSERT_TRUE(parsed.ok());
  const auto& ev = parsed->events();
  ASSERT_EQ(ev.size(), 5u);

  EXPECT_EQ(ev[0].kind, fault::Kind::crash);
  EXPECT_EQ(ev[0].at, 200 * sim::kMs);
  EXPECT_EQ(ev[0].engine, 3u);

  EXPECT_EQ(ev[1].kind, fault::Kind::restart);
  EXPECT_EQ(ev[1].at, 1500 * sim::kMs);

  EXPECT_EQ(ev[2].kind, fault::Kind::drop);
  EXPECT_EQ(ev[2].at, 0u);
  EXPECT_EQ(ev[2].until, 500 * sim::kMs);
  EXPECT_EQ(ev[2].engine, 1u);
  EXPECT_DOUBLE_EQ(ev[2].probability, 0.25);

  EXPECT_EQ(ev[3].kind, fault::Kind::delay);
  EXPECT_EQ(ev[3].engine, fault::kAllEngines);
  EXPECT_EQ(ev[3].amount, 200 * sim::kUs);

  EXPECT_EQ(ev[4].kind, fault::Kind::stall);
  EXPECT_EQ(ev[4].engine, 0u);
  EXPECT_EQ(ev[4].target, 2u);
  EXPECT_EQ(ev[4].amount, 30 * sim::kMs);
}

TEST(FaultSchedule, ParsePartitionSymmetricAndOneWay) {
  auto parsed = fault::Schedule::parse("partition@1s-4s:e0+e1|e2+e3,partition@2s-3s:e0>e3");
  ASSERT_TRUE(parsed.ok());
  const auto& ev = parsed->events();
  ASSERT_EQ(ev.size(), 2u);

  EXPECT_EQ(ev[0].kind, fault::Kind::partition);
  EXPECT_EQ(ev[0].at, 1 * sim::kSec);
  EXPECT_EQ(ev[0].until, 4 * sim::kSec);
  EXPECT_EQ(ev[0].group_a, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(ev[0].group_b, (std::vector<std::uint32_t>{2, 3}));
  EXPECT_FALSE(ev[0].oneway);

  EXPECT_EQ(ev[1].kind, fault::Kind::partition);
  EXPECT_EQ(ev[1].group_a, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(ev[1].group_b, (std::vector<std::uint32_t>{3}));
  EXPECT_TRUE(ev[1].oneway);
}

TEST(FaultSchedule, ParseRejectsMalformedPartitions) {
  const char* bad[] = {
      "partition@1s:e0|e1",          // point time on a window event
      "partition@2s-1s:e0|e1",       // reversed window
      "partition@1s-2s:e0",          // no group separator
      "partition@1s-2s:e0|",         // empty right group
      "partition@1s-2s:|e1",         // empty left group
      "partition@1s-2s:e0+|e1",      // trailing '+' in a group
      "partition@1s-2s:*|e1",        // wildcard is not a group member
      "partition@1s-2s:e0.1|e1",     // targets don't partition
      "partition@1s-2s:e0|e0",       // overlapping groups
      "partition@1s-2s:e0+e1|e1",    // overlapping groups
      "partition@1s-2s:e0|e1:0.5",   // partition takes no argument
      "partition@1s-2s:e0|e1>e2",    // mixing both separators
  };
  for (const char* spec : bad) {
    auto parsed = fault::Schedule::parse(spec);
    EXPECT_FALSE(parsed.ok()) << "spec accepted: '" << spec << "'";
    EXPECT_EQ(parsed.error(), Errno::invalid) << spec;
  }
}

TEST(FaultSchedule, ValidateChecksPartitionGroupBounds) {
  auto sched = fault::Schedule::parse("partition@1s-2s:e0+e3|e1");
  ASSERT_TRUE(sched.ok());
  EXPECT_TRUE(sched->validate(4, 8).ok());
  EXPECT_EQ(sched->validate(3, 8).error(), Errno::invalid);  // e3 out of range
}

TEST(FaultSchedule, BareNumbersAreSeconds) {
  auto parsed = fault::Schedule::parse("crash@2:e0");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->events()[0].at, 2 * sim::kSec);
}

TEST(FaultSchedule, ParseRejectsMalformedSpecs) {
  const char* bad[] = {
      "",                      // empty
      "boom@1s:e0",            // unknown kind
      "crash@:e0",             // missing time
      "crash@1s",              // missing selector
      "crash@1s:*",            // crash needs a concrete engine
      "crash@1s:x3",           // bad selector syntax
      "crash@1s:e0.1",         // crash takes no target
      "crash@1s:e0:junk",      // crash takes no argument
      "crash@1s-2s:e0",        // point event with a window
      "drop@1s:e0:0.5",        // window event with a point time
      "drop@1s-2s:e0:1.5",     // probability out of (0,1]
      "drop@2s-1s:e0:0.5",     // reversed window
      "delay@1s-2s:e0:0s",     // zero delay amount
      "stall@1s:e0:10ms",      // stall needs engine.target
      "stall@1s:*:10ms",       // stall cannot be wildcard
      "crash@1s:e0,,crash@2s:e1",  // empty item
  };
  for (const char* spec : bad) {
    auto parsed = fault::Schedule::parse(spec);
    EXPECT_FALSE(parsed.ok()) << "spec accepted: '" << spec << "'";
    EXPECT_EQ(parsed.error(), Errno::invalid) << spec;
  }
}

// The grammar cannot know the cluster shape; validate() checks a parsed
// schedule against it so CLI front-ends can reject out-of-range selectors
// instead of tripping the Injector's invariant.
TEST(FaultSchedule, ValidateChecksEngineAndTargetBounds) {
  auto sched = fault::Schedule::parse("crash@1s:e3,stall@1s:e0.7:10ms,delay@0s-1s:*:50us");
  ASSERT_TRUE(sched.ok());
  EXPECT_TRUE(sched->validate(4, 8).ok());
  EXPECT_EQ(sched->validate(3, 8).error(), Errno::invalid);  // e3 out of range
  EXPECT_EQ(sched->validate(4, 7).error(), Errno::invalid);  // target 7 out of range
  // The wildcard selector never constrains the engine count.
  EXPECT_TRUE(fault::Schedule().delay(0, sim::kSec, fault::kAllEngines, 50 * sim::kUs)
                  .validate(1, 1)
                  .ok());
}

// ---------------------------------------------------------------------------
// Retry backoff (pure function)

TEST(RetryBackoff, DeterministicDoublingCappedSequence) {
  client::RetryPolicy p;
  p.backoff_base = 10 * sim::kMs;
  p.backoff_cap = 60 * sim::kMs;
  EXPECT_EQ(retry_backoff(p, 1), 10 * sim::kMs);
  EXPECT_EQ(retry_backoff(p, 2), 20 * sim::kMs);
  EXPECT_EQ(retry_backoff(p, 3), 40 * sim::kMs);
  EXPECT_EQ(retry_backoff(p, 4), 60 * sim::kMs);  // capped
  EXPECT_EQ(retry_backoff(p, 5), 60 * sim::kMs);  // stays capped
}

// ---------------------------------------------------------------------------
// Health-aware placement (pure function)

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

TEST(Placement, MapOverloadMatchesPlainOverloadWhileHealthy) {
  const pool::PoolMap map = unit_map(4, 4);
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    for (ObjClass cls : {ObjClass::S1, ObjClass::S2, ObjClass::S4, ObjClass::SX}) {
      const auto oid = client::make_oid(seq, cls);
      const std::uint32_t shards = client::shard_count(cls, map.target_count());
      EXPECT_EQ(client::compute_layout(oid, shards, map.target_count()),
                client::compute_layout(oid, shards, map))
          << "seq " << seq;
    }
  }
}

TEST(Placement, ExcludedTargetsAreRemappedDeterministically) {
  pool::PoolMap map = unit_map(4, 4);
  for (std::uint32_t t = 8; t < 12; ++t) map.targets[t].health = pool::TargetHealth::excluded;

  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    const auto oid = client::make_oid(seq, ObjClass::SX);
    const auto healthy = client::compute_layout(oid, 16, std::uint32_t(16));
    const auto degraded = client::compute_layout(oid, 16, map);
    ASSERT_EQ(degraded.size(), healthy.size());
    for (std::uint32_t s = 0; s < 16; ++s) {
      EXPECT_NE(map.targets[degraded[s]].health, pool::TargetHealth::excluded)
          << "shard " << s << " of seq " << seq << " placed on an excluded target";
      if (map.targets[healthy[s]].health == pool::TargetHealth::up) {
        EXPECT_EQ(degraded[s], healthy[s]) << "healthy shard " << s << " moved (seq " << seq
                                           << ") — re-placement must be local";
      }
    }
    EXPECT_EQ(degraded, client::compute_layout(oid, 16, map)) << "nondeterministic remap";
  }
}

// ---------------------------------------------------------------------------
// RPC in-flight bound (unit level, no cluster)

TEST(RpcInflight, CallsBeyondTheCapFailBusy) {
  sim::Scheduler s;
  net::Fabric fabric(s, {});
  net::RpcDomain domain(fabric);
  const net::NodeId a = fabric.add_node();
  const net::NodeId ghost = fabric.add_node();  // no endpoint: calls time out
  net::RpcEndpoint ep(domain, a);
  ep.set_max_inflight(4);

  int busy = 0, timed_out = 0;
  for (int i = 0; i < 10; ++i) {
    s.spawn([&ep, &busy, &timed_out, ghost]() -> CoTask<void> {
      // Raw endpoint call on purpose: this unit test exercises RpcEndpoint
      // itself (only DaosClient seals its endpoint behind the retry wrappers).
      const net::Reply r = co_await ep.call(ghost, 0x1, {}, 64);
      if (r.status == Errno::busy) ++busy;
      if (r.status == Errno::timed_out) ++timed_out;
    });
  }
  s.run();
  EXPECT_EQ(busy, 6);
  EXPECT_EQ(timed_out, 4);
  EXPECT_EQ(ep.busy_rejections(), 6u);
  EXPECT_EQ(ep.inflight_calls(), 0u);  // guards all released
  EXPECT_EQ(ep.calls_made(), 4u);      // busy rejections never count as calls
}

// ---------------------------------------------------------------------------
// Client retry budget + deadline against a crashed engine

TEST(RetryPath, BudgetExhaustionReturnsTimedOutAfterExactAttempts) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    const std::uint32_t victim = 3;  // not a pool-service replica
    tb.crash_engine(victim);

    const std::uint64_t calls_before = cl.rpcs_sent();
    const sim::Time t0 = tb.sched().now();
    // call_retry is the bare deadline+backoff loop (no eviction side effects).
    const net::Reply r =
        co_await cl.call_retry(tb.engine(victim).node(), engine::kOpObjFetch, {}, 64);
    const sim::Time elapsed = tb.sched().now() - t0;

    EXPECT_EQ(r.status, Errno::timed_out);
    EXPECT_EQ(cl.rpcs_sent() - calls_before,
              std::uint64_t(cl.retry_policy().max_attempts));
    // 4 attempts burning kRpcTimeout each + backoffs 20+40+80ms, plus a few
    // microseconds of fabric transfer per attempt.
    const sim::Time floor = 4 * net::kRpcTimeout + (20 + 40 + 80) * sim::kMs;
    EXPECT_GE(elapsed, floor);
    EXPECT_LT(elapsed, floor + 10 * sim::kMs);
  });
  tb.stop();
}

TEST(RetryPath, CallTargetEvictsRefreshesAndFailsFastAfterwards) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    const std::uint32_t victim = 3;
    const std::uint32_t mt = first_target_of_engine(tb.config(), victim);
    tb.crash_engine(victim);

    // The retry budget burns, the client marks the engine DOWN and waits for
    // SWIM to evict it.
    net::Body body = net::Body::make(engine::ObjFetchReq{});
    const net::Reply r = co_await cl.call_target(mt, engine::kOpObjFetch, std::move(body), 64);
    EXPECT_EQ(r.status, Errno::stale);
    EXPECT_EQ(cl.pool_map().version, 2u);
    EXPECT_TRUE(testkit::client_sees_excluded(cl, tb.engine(victim).node()));
    EXPECT_GE(testkit::swim_deaths(tb), 1u);

    // A second call to the excluded target fails fast: zero RPCs issued.
    const std::uint64_t calls_before = cl.rpcs_sent();
    net::Body body2 = net::Body::make(engine::ObjFetchReq{});
    const net::Reply r2 = co_await cl.call_target(mt, engine::kOpObjFetch, std::move(body2), 64);
    EXPECT_EQ(r2.status, Errno::stale);
    EXPECT_EQ(cl.rpcs_sent(), calls_before);
    EXPECT_EQ(cl.pool_map().version, 2u);
  });
  tb.stop();
}

TEST(RetryPath, KvPutSurvivesCrashByReplacingShards) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const std::uint32_t victim = 3;
    tb.crash_engine(victim);

    // S8 object: some shards land on the crashed engine with high probability;
    // put/get must still succeed end to end via stale -> refresh -> re-place.
    client::KvObject kv(cl, kPoolUuid, client::make_oid(42, ObjClass::S8));
    std::vector<std::byte> v(8, std::byte{0x5A});
    for (int i = 0; i < 16; ++i) {
      CO_ASSERT_EQ(co_await kv.put(strfmt("k%02d", i), "a", v), Errno::ok);
    }
    for (int i = 0; i < 16; ++i) {
      auto got = co_await kv.get(strfmt("k%02d", i), "a");
      CO_ASSERT_OK(got);
      CO_ASSERT_EQ(got->size(), 8u);
    }
    EXPECT_EQ(cl.pool_map().version, 2u);
  });
  tb.stop();
}

// ---------------------------------------------------------------------------
// Idempotency: a stalled target forces duplicate applies; state stays correct

TEST(Idempotency, RetriedUpdateAppliesTwiceWithoutHarm) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));

    const auto oid = client::make_oid(7, ObjClass::S1);
    const auto layout =
        client::compute_layout(oid, 1, cl.pool_map().target_count());
    const std::uint32_t mt = layout[0];
    const std::uint32_t eng = mt / tb.config().targets_per_engine;
    const std::uint32_t tgt = cl.pool_map().targets[mt].target;
    const std::uint64_t updates_before = tb.engine(eng).updates_served();

    // Shrink the per-attempt deadline so the stall forces duplicates (the
    // default deadline is deliberately larger than any legitimate queueing).
    client::RetryPolicy aggressive = cl.retry_policy();
    aggressive.deadline = 150 * sim::kMs;
    cl.set_retry_policy(aggressive);

    // Wedge the target for 400ms: with a 150ms deadline and 20/40ms backoffs,
    // attempts 1 and 2 expire while queued behind the stall; attempt 3 starts
    // at ~360ms and completes once the stall clears at 400ms. All three
    // eventually apply against VOS — the put must still read back correctly.
    fault::Schedule sched;
    sched.stall(0, eng, tgt, 400 * sim::kMs);
    tb.inject_faults(sched, /*seed=*/1);

    client::KvObject kv(cl, kPoolUuid, oid);
    std::vector<std::byte> v(16, std::byte{0x77});
    const sim::Time t0 = tb.sched().now();
    CO_ASSERT_EQ(co_await kv.put("dkey", "akey", v), Errno::ok);
    EXPECT_GE(tb.sched().now() - t0, 400 * sim::kMs);

    // Let the abandoned duplicate attempts drain through the target queue.
    co_await tb.sched().delay(50 * sim::kMs);
    EXPECT_GE(tb.engine(eng).updates_served() - updates_before, 2u)
        << "expected the retry to duplicate-apply behind the stall";

    auto got = co_await kv.get("dkey", "akey");
    CO_ASSERT_OK(got);
    CO_ASSERT_EQ(got->size(), 16u);
    EXPECT_EQ((*got)[0], std::byte{0x77});
    EXPECT_EQ(cl.pool_map().version, 1u) << "a stall must not escalate to eviction";
    EXPECT_EQ(testkit::swim_deaths(tb), 0u);
  });
  tb.stop();
}

// ---------------------------------------------------------------------------
// Raft failover: leader crash mid-run, eviction commits exactly once

TEST(RaftFailover, LeaderCrashStillCommitsEvictionExactlyOnce) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    const auto leader = tb.svc_leader();
    CO_ASSERT_TRUE(leader.has_value());
    const std::uint32_t victim = *leader;  // replica index == engine index
    const std::uint32_t mt = first_target_of_engine(tb.config(), victim);
    tb.crash_engine(victim);

    // Client 0 trips over the dead engine: the retry budget burns, and
    // SWIM's eviction must be committed by a NEW leader elected meanwhile.
    auto& c0 = tb.client(0);
    net::Body b0 = net::Body::make(engine::ObjFetchReq{});
    const net::Reply r0 = co_await c0.call_target(mt, engine::kOpObjFetch, std::move(b0), 64);
    EXPECT_EQ(r0.status, Errno::stale);
    EXPECT_EQ(c0.pool_map().version, 2u);
    EXPECT_TRUE(testkit::client_sees_excluded(c0, tb.engine(victim).node()));
    EXPECT_GE(testkit::swim_deaths(tb), 1u);

    const auto new_leader = tb.svc_leader();
    CO_ASSERT_TRUE(new_leader.has_value());
    EXPECT_NE(*new_leader, victim);
    const auto& meta = tb.svc_replica(*new_leader).meta();
    EXPECT_EQ(meta.map_version(), 2u);
    EXPECT_EQ(meta.excluded_engines().count(tb.engine(victim).node()), 1u);

    // Client 1 trips over the same engine: every SWIM verdict on it (one per
    // declaring engine) must land as one eviction — the version bumps
    // exactly once.
    auto& c1 = tb.client(1);
    net::Body b1 = net::Body::make(engine::ObjFetchReq{});
    const net::Reply r1 = co_await c1.call_target(mt, engine::kOpObjFetch, std::move(b1), 64);
    EXPECT_EQ(r1.status, Errno::stale);
    EXPECT_EQ(c1.pool_map().version, 2u);
    EXPECT_EQ(tb.svc_replica(*new_leader).meta().map_version(), 2u);
  });
  tb.stop();
}

TEST(RaftFailover, RestartDoesNotReintegrateUntilPoolReint) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    const std::uint32_t victim = 3;
    const std::uint32_t mt = first_target_of_engine(tb.config(), victim);
    tb.crash_engine(victim);

    net::Body b0 = net::Body::make(engine::ObjFetchReq{});
    const net::Reply r0 = co_await cl.call_target(mt, engine::kOpObjFetch, std::move(b0), 64);
    EXPECT_EQ(r0.status, Errno::stale);
    EXPECT_EQ(cl.pool_map().version, 2u);

    // Restart alone leaves the engine EXCLUDED (DAOS requires an explicit
    // reintegration): calls to its targets still fail fast with stale.
    tb.restart_engine(victim);
    net::Body b1 = net::Body::make(engine::ObjFetchReq{});
    const net::Reply r1 = co_await cl.call_target(mt, engine::kOpObjFetch, std::move(b1), 64);
    EXPECT_EQ(r1.status, Errno::stale);

    CO_ASSERT_OK(co_await cl.pool_reint(tb.engine(victim).node()));
    EXPECT_EQ(cl.pool_map().version, 3u);
    EXPECT_EQ(cl.pool_map().targets[mt].health, pool::TargetHealth::up);

    net::Body b2 = net::Body::make(engine::ObjFetchReq{});
    const net::Reply r2 = co_await cl.call_target(mt, engine::kOpObjFetch, std::move(b2), 64);
    EXPECT_EQ(r2.status, Errno::ok) << "reintegrated target must serve again";
  });
  tb.stop();
}

// ---------------------------------------------------------------------------
// Partition windows: engine groups severed symmetrically or one-way

TEST(PartitionFault, IsolatedLeaderLosesLeadershipAndClusterHeals) {
  Testbed tb(small_cluster());
  tb.start();
  const auto leader0 = tb.svc_leader();
  ASSERT_TRUE(leader0.has_value());
  const std::uint32_t old_leader = *leader0;  // replica index == engine index
  std::vector<std::uint32_t> others;
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
    if (e != old_leader) others.push_back(e);
  }
  fault::Schedule sched;
  sched.partition(0, 2 * sim::kSec, {old_leader}, others);
  fault::Injector& inj = tb.inject_faults(sched, /*seed=*/5);

  tb.run([&]() -> CoTask<void> {
    // The majority side must elect a new leader while the old one is cut off.
    bool new_leader_seen = false;
    const sim::Time deadline = tb.sched().now() + 2 * sim::kSec;
    while (tb.sched().now() < deadline && !new_leader_seen) {
      for (std::uint32_t s = 0; s < tb.svc_replica_count(); ++s) {
        if (s != old_leader && tb.svc_replica(s).is_leader()) new_leader_seen = true;
      }
      if (!new_leader_seen) co_await tb.sched().delay(20 * sim::kMs);
    }
    EXPECT_TRUE(new_leader_seen) << "no failover while the leader was partitioned";
    EXPECT_GT(inj.calls_partitioned(), 0u);
    // After the window closes the old leader rejoins as a follower and the
    // service keeps working — no engine was evicted by the partition itself.
    co_await tb.sched().delay(2500 * sim::kMs);
    CO_ASSERT_OK(co_await tb.client(0).cont_create(kPoolUuid, {}));
    const auto leader = tb.svc_leader();
    CO_ASSERT_TRUE(leader.has_value());
    EXPECT_EQ(tb.svc_replica(*leader).meta().map_version(), 1u);
  });
  tb.stop();
}

TEST(PartitionFault, OneWayPartitionSeversOnlyForwardDirection) {
  Testbed tb(small_cluster());
  tb.start();
  fault::Schedule sched;
  sched.partition(0, sim::kSec, {3}, {0}, /*oneway=*/true);
  tb.inject_faults(sched, /*seed=*/5);
  tb.run([&]() -> CoTask<void> {
    // Raw endpoint calls on purpose: this exercises the injector's call hook
    // directly (only DaosClient seals its endpoint behind the retry wrappers).
    net::Body fwd = net::Body::make(engine::SwimPingReq{});
    const net::Reply r1 = co_await tb.engine(3).endpoint().call(
        tb.engine(0).node(), engine::kOpSwimPing, std::move(fwd), 64);
    EXPECT_EQ(r1.status, Errno::timed_out) << "e3 -> e0 must be severed";
    net::Body rev = net::Body::make(engine::SwimPingReq{});
    const net::Reply r2 = co_await tb.engine(0).endpoint().call(
        tb.engine(3).node(), engine::kOpSwimPing, std::move(rev), 64);
    EXPECT_EQ(r2.status, Errno::ok) << "e0 -> e3 must still cross one-way";
  });
  tb.stop();
}

// ---------------------------------------------------------------------------
// Seeded fault schedules over IOR scenarios: bit-reproducible, seed-sensitive

ior::IorConfig fault_job(bool fpp) {
  ior::IorConfig cfg;
  cfg.api = ior::Api::daos_array;
  cfg.transfer_size = 256 * kKiB;
  cfg.block_size = 4 * kMiB;
  cfg.segments = 2;
  cfg.file_per_process = fpp;
  cfg.verify = false;  // degraded reads legitimately lose unreplicated shards
  return cfg;
}

struct FaultDigest {
  std::uint64_t trace_hash = 0;
  std::uint64_t events = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t injected = 0;
  std::uint64_t dropped = 0;
  std::uint32_t map_version = 0;
};

FaultDigest run_fault_scenario(bool fpp, std::uint64_t fault_seed) {
  Testbed tb(small_cluster());
  tb.start();
  // Crash lands 5ms in (mid-write: the whole healthy write phase is ~11ms of
  // virtual time); the stuck writers then burn their 540ms retry budget and
  // wait for SWIM to evict e3 (~2.7s: a suspicion plus the 2s
  // suspect_timeout), so the run is alive for the drop window. The restart
  // comes after the eviction, which it therefore cannot refute.
  const sim::Time t0 = tb.sched().now();
  auto sched = fault::Schedule::parse(
      "crash@5ms:e3,restart@4s:e3,drop@50ms-250ms:e1:0.5,delay@0s-400ms:*:50us");
  EXPECT_TRUE(sched.ok());
  fault::Injector& inj = tb.inject_faults(*sched, fault_seed);
  ior::IorRunner runner(tb, /*ppn=*/4);
  const ior::IorResult res = runner.run(fault_job(fpp));
  // Keep the clock running until the whole schedule has fired, then let the
  // eviction's rebuild settle.
  tb.run([&]() -> CoTask<void> {
    const sim::Time end = t0 + 5 * sim::kSec;
    if (tb.sched().now() < end) co_await tb.sched().delay(end - tb.sched().now());
  });
  EXPECT_TRUE(tb.wait_rebuild());

  FaultDigest d;
  d.write_bytes = res.write.bytes;
  d.read_bytes = res.read.bytes;
  d.injected = inj.faults_injected();
  d.dropped = inj.calls_dropped();
  if (const auto leader = tb.svc_leader()) {
    d.map_version = tb.svc_replica(*leader).meta().map_version();
  }
  tb.stop();
  d.trace_hash = tb.sched().trace_hash();
  d.events = tb.sched().events_processed();
  return d;
}

class FaultDeterminism : public ::testing::TestWithParam<bool /*file_per_process*/> {};

TEST_P(FaultDeterminism, SameSeedReplaysBitIdentically) {
  const bool fpp = GetParam();
  const FaultDigest a = run_fault_scenario(fpp, 1234);
  const FaultDigest b = run_fault_scenario(fpp, 1234);

  EXPECT_EQ(a.trace_hash, b.trace_hash)
      << "fault runs diverged — injection reached the scheduler nondeterministically";
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.write_bytes, b.write_bytes);
  EXPECT_EQ(a.read_bytes, b.read_bytes);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.map_version, b.map_version);

  EXPECT_EQ(a.injected, 2u);  // crash + restart fired
  EXPECT_EQ(a.map_version, 2u) << "the crashed engine was never evicted";
  EXPECT_GT(a.dropped, 0u) << "the drop window never bit — schedule mistimed";
}

TEST_P(FaultDeterminism, DifferentSeedPerturbsTheTrace) {
  const bool fpp = GetParam();
  const FaultDigest a = run_fault_scenario(fpp, 1234);
  const FaultDigest b = run_fault_scenario(fpp, 99991);
  EXPECT_NE(a.trace_hash, b.trace_hash)
      << "drop decisions ignored the seed — fault RNG is not wired through";
}

INSTANTIATE_TEST_SUITE_P(EasyAndHard, FaultDeterminism, ::testing::Values(true, false),
                         [](const auto& tp) { return tp.param ? std::string("easy")
                                                              : std::string("hard"); });

// ---------------------------------------------------------------------------
// Acceptance: IOR hard mode with an engine crashed mid-write completes with
// the target evicted and non-zero bandwidth

TEST(FaultAcceptance, HardModeRunSurvivesMidWriteCrash) {
  Testbed tb(small_cluster());
  tb.start();
  fault::Schedule sched;
  sched.crash(5 * sim::kMs, 3);  // mid-write: the healthy phase takes ~11ms
  tb.inject_faults(sched, /*seed=*/7);

  ior::IorRunner runner(tb, /*ppn=*/4);
  ior::IorConfig cfg = fault_job(/*fpp=*/false);  // shared file (hard mode)
  cfg.do_read = false;                            // isolate the write phase
  const ior::IorResult res = runner.run(cfg);

  EXPECT_EQ(res.write.bytes, 8ull * 4 * 2 * kMiB);  // every rank finished
  EXPECT_GT(res.write.gib_per_sec(), 0.0);
  // The stuck writers burned the full retry budget before re-placing, so the
  // degraded write phase must span at least that long.
  EXPECT_GE(res.write.seconds, 0.3) << "crash landed after the write phase ended";

  const auto leader = tb.svc_leader();
  ASSERT_TRUE(leader.has_value());
  EXPECT_EQ(tb.svc_replica(*leader).meta().map_version(), 2u);
  EXPECT_EQ(tb.svc_replica(*leader).meta().excluded_engines().count(tb.engine(3).node()), 1u);
  tb.stop();
}

// The same crash against the vectorized path: multi-extent batches in flight
// (32 KiB chunks -> 8 extents per transfer) plus an async window of two
// transfers per rank. A batch that dies mid-flight must be retried or
// re-placed as a unit without losing any member extent's bytes.
TEST(FaultAcceptance, BatchedPipelinedWriteSurvivesMidWriteCrash) {
  Testbed tb(small_cluster());
  tb.start();
  fault::Schedule sched;
  sched.crash(5 * sim::kMs, 3);
  tb.inject_faults(sched, /*seed=*/7);

  ior::IorRunner runner(tb, /*ppn=*/4, /*chunk_size=*/32 * kKiB);
  ior::IorConfig cfg = fault_job(/*fpp=*/false);
  cfg.do_read = false;
  cfg.eq_depth = 2;
  const ior::IorResult res = runner.run(cfg);

  EXPECT_EQ(res.write.bytes, 8ull * 4 * 2 * kMiB);  // every rank finished
  EXPECT_GT(res.write.gib_per_sec(), 0.0);

  const auto leader = tb.svc_leader();
  ASSERT_TRUE(leader.has_value());
  EXPECT_EQ(tb.svc_replica(*leader).meta().map_version(), 2u);
  EXPECT_EQ(tb.svc_replica(*leader).meta().excluded_engines().count(tb.engine(3).node()), 1u);
  tb.stop();
}

// ---------------------------------------------------------------------------
// Delay-only schedules degrade latency without triggering evictions

TEST(FaultDelayOnly, DfsRunCompletesWithoutEviction) {
  Testbed tb(small_cluster());
  tb.start();
  auto sched = fault::Schedule::parse("delay@0s-300ms:*:100us");
  ASSERT_TRUE(sched.ok());
  fault::Injector& inj = tb.inject_faults(*sched, /*seed=*/3);

  ior::IorRunner runner(tb, /*ppn=*/4);
  ior::IorConfig cfg;
  cfg.api = ior::Api::dfs;
  cfg.transfer_size = 256 * kKiB;
  cfg.block_size = 1 * kMiB;
  cfg.segments = 2;
  cfg.file_per_process = true;
  cfg.verify = true;  // no data is lost under pure delay
  const ior::IorResult res = runner.run(cfg);

  EXPECT_EQ(res.verify_errors, 0u);
  EXPECT_EQ(res.read_fill_errors, 0u);
  EXPECT_GT(inj.calls_delayed(), 0u);
  const auto leader = tb.svc_leader();
  ASSERT_TRUE(leader.has_value());
  EXPECT_EQ(tb.svc_replica(*leader).meta().map_version(), 1u)
      << "pure delays must never escalate to eviction";
  EXPECT_EQ(testkit::swim_deaths(tb), 0u);
  tb.stop();
}

}  // namespace
}  // namespace daosim
