// SWIM failure-detector + IV map-dissemination suite: bounded-time detection
// and auto-eviction of a crashed engine with zero client traffic, incarnation
// refutation keeping briefly-down or packet-lossy engines alive, partition
// heal without duplicate or stale evictions, client-side piggyback staleness
// detection with a single-flight delta fetch, and bit-identical same-seed
// replay with SWIM enabled. Protocol spec: docs/membership.md.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "co_assert.hpp"
#include "cluster/testbed.hpp"
#include "eviction_check.hpp"
#include "fault/fault.hpp"

namespace daosim {
namespace {

using cluster::ClusterConfig;
using cluster::kPoolUuid;
using cluster::Testbed;
using sim::CoTask;

/// 6 engines (svc replicas on e0..e2 = IV tree roots), fast SWIM timings so
/// detection fits in a few simulated seconds. iv_fanout=2 gives the tree a
/// second level: e3/e4 fetch from e1, e5 from e2.
ClusterConfig swim_cluster() {
  ClusterConfig cfg;
  cfg.server_nodes = 3;
  cfg.engines_per_server = 2;
  cfg.targets_per_engine = 4;
  cfg.client_nodes = 1;
  cfg.swim.probe_period = 100 * sim::kMs;
  cfg.swim.suspect_timeout = 1 * sim::kSec;
  cfg.swim.witnesses = 2;
  cfg.swim.iv_fanout = 2;
  return cfg;
}

/// Polls the pool-service leader until its committed map version reaches `v`.
CoTask<bool> wait_map_version(Testbed* tb, std::uint32_t v, sim::Time timeout) {
  const sim::Time deadline = tb->sched().now() + timeout;
  while (tb->sched().now() < deadline) {
    if (const auto l = tb->svc_leader()) {
      if (tb->svc_replica(*l).meta().map_version() >= v) co_return true;
    }
    co_await tb->sched().delay(20 * sim::kMs);
  }
  co_return false;
}

std::uint64_t total_suspects(Testbed& tb) {
  std::uint64_t n = 0;
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) n += tb.swim_service(e).suspects_raised();
  return n;
}

// ---------------------------------------------------------------------------
// Detection: a crashed engine is auto-evicted with zero client traffic

TEST(SwimDetect, CrashedEngineAutoEvictedWithinSuspicionBound) {
  Testbed tb(swim_cluster());
  tb.start();
  const std::uint32_t victim = 4;  // non-root, non-svc
  tb.run([&]() -> CoTask<void> {
    const sim::Time t0 = tb.sched().now();
    tb.crash_engine(victim);
    // Bound: worst-case probe rotation (~5 periods to hit the victim) + the
    // suspicion timeout + eviction submission/commit slack.
    const bool evicted = co_await wait_map_version(&tb, 2, 3 * sim::kSec);
    EXPECT_TRUE(evicted) << "SWIM never evicted the crashed engine";
    const sim::Time detect = tb.sched().now() - t0;
    EXPECT_LE(detect, 3 * sim::kSec);
    EXPECT_GE(detect, tb.config().swim.suspect_timeout) << "death declared before the timeout";

    const auto leader = tb.svc_leader();
    CO_ASSERT_TRUE(leader.has_value());
    const auto& excluded = tb.svc_replica(*leader).meta().excluded_engines();
    EXPECT_EQ(excluded.size(), 1u) << "an engine other than the victim was evicted";
    EXPECT_EQ(excluded.count(tb.engine(victim).node()), 1u);

    // Detection was engine-driven: the client never sent a single RPC.
    EXPECT_EQ(tb.client(0).rpcs_sent(), 0u);
    EXPECT_GE(total_suspects(tb), 1u);
    EXPECT_GE(testkit::swim_deaths(tb), 1u);

    // IV dissemination: every live engine converges on version 2 — roots by
    // polling their co-located replica, non-roots by fetching deltas over the
    // tree (at least one real delta fetch must have happened).
    co_await tb.sched().delay(1 * sim::kSec);
    std::uint64_t fetches = 0;
    for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
      if (e == victim) continue;
      EXPECT_EQ(tb.engine(e).cached_map_version(), 2u) << "engine " << e << " is stale";
      fetches += tb.swim_service(e).delta_fetches();
    }
    EXPECT_GE(fetches, 1u) << "no engine ever took the tree fetch path";
  });
  EXPECT_TRUE(tb.wait_rebuild()) << "auto-eviction never triggered rebuild";
  tb.stop();
}

// ---------------------------------------------------------------------------
// Eviction across an election: the pool-service leader dies the instant the
// first death verdict's pool_evict campaign starts. That one-shot campaign
// must ride out the election and commit on the new leader.

/// One election episode: the victim crashes, and the pool-service leader dies
/// the instant the first other engine sends the pool service anything (the
/// first declarer's campaign). From then on the old leader is unreachable and
/// every other engine's pool-service traffic is lost, so only that one
/// campaign can commit the eviction.
void run_election_episode(std::uint64_t seed, std::uint32_t victim) {
  ClusterConfig cfg = swim_cluster();
  cfg.seed = seed;
  Testbed tb(cfg);
  tb.start();
  const auto leader0 = tb.svc_leader();
  ASSERT_TRUE(leader0.has_value());
  const net::NodeId leader_node = tb.engine(*leader0).node();
  std::set<net::NodeId> engines;
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) engines.insert(tb.engine(e).node());
  std::optional<net::NodeId> declarer;
  tb.domain().set_fault_hook([&](net::NodeId src, net::NodeId dst, std::uint16_t op) {
    net::CallFault f;
    if (op == engine::kOpPoolSvc && engines.contains(src) && src != leader_node) {
      if (!declarer) declarer = src;
      f.drop = dst == leader_node || src != *declarer;
    }
    return f;
  });
  tb.run([&]() -> CoTask<void> {
    tb.crash_engine(victim);
    while (!declarer) co_await tb.sched().delay(1 * sim::kMs);
    tb.crash_engine(*leader0);
    CO_ASSERT_TRUE(co_await wait_map_version(&tb, 2, 3 * sim::kSec));
    const auto leader = tb.svc_leader();
    CO_ASSERT_TRUE(leader.has_value());
    EXPECT_NE(*leader, *leader0);
    EXPECT_EQ(tb.svc_replica(*leader).meta().excluded_engines().count(tb.engine(victim).node()),
              1u);
  });
  tb.domain().set_fault_hook({});
  tb.stop();
}

TEST(SwimDetect, EvictionCampaignSurvivesLeaderElection) {
  // Where the campaign lands in the election varies with the seed and the
  // victim, so the test sweeps both: a campaign that gave up after one
  // round of the pool-service budget loses the race for some of these.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const std::uint32_t victim : {3u, 4u, 5u}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " victim " << victim);
      run_election_episode(seed, victim);
    }
  }
}

// ---------------------------------------------------------------------------
// Refutation: a stalled-but-alive engine — its endpoint is up but the network
// drops most of its traffic, with ambient delay/stall noise on top — gets
// suspected, hears the suspicion through gossip, and refutes it by bumping
// its incarnation. Zero evictions, the map never moves.

TEST(SwimRefute, LossyButAliveEngineRefutesInsteadOfDying) {
  ClusterConfig cfg = swim_cluster();
  // Refutation needs one gossip round trip through a 60%-lossy link, so give
  // the suspicion timeout some slack over the probe period.
  cfg.swim.suspect_timeout = 1500 * sim::kMs;
  Testbed tb(cfg);
  tb.start();
  auto sched = fault::Schedule::parse(
      "drop@0s-2s:e4:0.6,delay@0s-2s:*:200us,stall@100ms:e3.1:300ms");
  ASSERT_TRUE(sched.ok());
  ASSERT_TRUE(sched->validate(tb.engine_count(), tb.config().targets_per_engine).ok());
  tb.inject_faults(*sched, /*seed=*/11);

  tb.run([&]() -> CoTask<void> {
    co_await tb.sched().delay(5 * sim::kSec);
    // Suspicion was raised against the lossy engine...
    EXPECT_GE(total_suspects(tb), 1u) << "the lossy window was never noticed";
    // ...and it heard about itself and refuted with an incarnation bump.
    EXPECT_GE(tb.swim_service(4).refutations(), 1u) << "no refutation ever happened";
    // Zero evictions: the map never moved and nobody is excluded.
    EXPECT_EQ(testkit::swim_deaths(tb), 0u);
    const auto leader = tb.svc_leader();
    CO_ASSERT_TRUE(leader.has_value());
    EXPECT_EQ(tb.svc_replica(*leader).meta().map_version(), 1u)
        << "a stalled-but-alive engine was falsely evicted";
    EXPECT_TRUE(tb.svc_replica(*leader).meta().excluded_engines().empty());
  });
  tb.stop();
}

// ---------------------------------------------------------------------------
// Partition: the majority side evicts the unreachable minority exactly once;
// the minority's stale death verdicts are never replayed after the heal.

/// Engine `e`'s pool-service RPCs (only its SWIM evict campaigns send any).
std::uint64_t engine_svc_rpcs(Testbed& tb, std::uint32_t e) {
  const auto* sent = tb.engine(e).telemetry().find<telemetry::Counter>("rpc/pool_svc/sent");
  return sent != nullptr ? sent->value() : 0;
}

/// Cuts the minority engines `a` and `b` off from the rest for 6 s — long
/// past the suspicion timeout on both sides. The majority must evict both
/// exactly once; the minority's evict campaigns must burn out in one round
/// of the pool-service budget (4 sends) each, and must NOT be replayed once
/// the partition heals.
void partition_heal_episode(const char* spec, std::uint32_t a, std::uint32_t b) {
  Testbed tb(swim_cluster());
  tb.start();
  auto sched = fault::Schedule::parse(spec);
  ASSERT_TRUE(sched.ok());
  ASSERT_TRUE(sched->validate(tb.engine_count(), tb.config().targets_per_engine).ok());
  fault::Injector& inj = tb.inject_faults(*sched, /*seed=*/13);

  tb.run([&]() -> CoTask<void> {
    // Wait for BOTH minority engines to be evicted (version counting would be
    // fragile here: evicting one mid-rebuild of the other's eviction requeues
    // tasks, which legitimately bumps the map version without a membership
    // change).
    const sim::Time deadline = tb.sched().now() + 6 * sim::kSec;
    while (tb.sched().now() < deadline) {
      if (const auto l = tb.svc_leader()) {
        if (tb.svc_replica(*l).meta().excluded_engines().size() >= 2) break;
      }
      co_await tb.sched().delay(20 * sim::kMs);
    }
    const auto leader = tb.svc_leader();
    CO_ASSERT_TRUE(leader.has_value());
    const auto& excluded = tb.svc_replica(*leader).meta().excluded_engines();
    EXPECT_EQ(excluded.size(), 2u) << "majority never evicted the partitioned minority";
    EXPECT_EQ(excluded.count(tb.engine(a).node()), 1u);
    EXPECT_EQ(excluded.count(tb.engine(b).node()), 1u);
    EXPECT_GT(inj.calls_partitioned(), 0u);
    // Every minority campaign so far gave up after its first round, even
    // where a pool-service replica on the minority's side answered it.
    while (tb.sched().now() < 6 * sim::kSec) co_await tb.sched().delay(100 * sim::kMs);
    for (const std::uint32_t e : {a, b}) {
      EXPECT_GE(tb.swim_service(e).deaths_declared(), 1u) << "engine " << e;
      EXPECT_LE(engine_svc_rpcs(tb, e), 4 * tb.swim_service(e).deaths_declared())
          << "engine " << e << " kept campaigning from the minority";
    }
  });
  EXPECT_TRUE(tb.wait_rebuild());

  tb.run([&]() -> CoTask<void> {
    // Outlive the partition window, then reintegrate both minority engines.
    while (tb.sched().now() < 7 * sim::kSec) co_await tb.sched().delay(100 * sim::kMs);
    CO_ASSERT_OK(co_await tb.client(0).pool_reint(tb.engine(a).node()));
    CO_ASSERT_OK(co_await tb.client(0).pool_reint(tb.engine(b).node()));
    EXPECT_TRUE(tb.client(0).pool_map().version >= 5u);  // 2 evicts + 2 reints (+ requeues)
  });
  EXPECT_TRUE(tb.wait_rebuild());

  std::uint32_t settled_version = 0;
  tb.run([&]() -> CoTask<void> {
    // Long settle: the minority declared the ENTIRE majority dead during the
    // partition, so if its stale verdicts were replayed after the heal the
    // map version would move and healthy engines would be excluded. The one
    // bounded evict campaign per death declaration makes both impossible.
    const auto l0 = tb.svc_leader();
    CO_ASSERT_TRUE(l0.has_value());
    settled_version = tb.svc_replica(*l0).meta().map_version();
    co_await tb.sched().delay(5 * sim::kSec);
    const auto leader = tb.svc_leader();
    CO_ASSERT_TRUE(leader.has_value());
    EXPECT_EQ(tb.svc_replica(*leader).meta().map_version(), settled_version)
        << "a stale partition-era eviction was replayed after the heal";
    EXPECT_TRUE(tb.svc_replica(*leader).meta().excluded_engines().empty());
  });
  tb.stop();
}

TEST(SwimPartition, HealRejoinsWithoutDuplicateEvictions) {
  // {e4,e5} hold no pool-service replica: the whole service is out of reach.
  partition_heal_episode("partition@0s-6s:e0+e1+e2+e3|e4+e5", 4, 5);
}

TEST(SwimPartition, MinorityWithReplicaGivesUpAfterOneRound) {
  // e2 hosts a pool-service replica, which keeps answering the minority
  // (again: it is a candidate that never wins) while e0/e1 elect a leader.
  partition_heal_episode("partition@0s-6s:e0+e1+e3+e4|e2+e5", 2, 5);
}

TEST(SwimPartition, HealAfterMinorityCampaignsEvictsNoMajorityEngine) {
  // The minority {e4,e5} declares the four majority engines dead two to a
  // sweep. Each verdict's evict campaign (4 sends, ~0.6 s) must end within
  // its own verdict's window: the heal at 3.5 s comes after those windows,
  // but campaigns run back to back would still be going, reach the pool
  // service and evict a healthy majority engine.
  Testbed tb(swim_cluster());
  tb.start();
  auto sched = fault::Schedule::parse("partition@0s-3500ms:e0+e1+e2+e3|e4+e5");
  ASSERT_TRUE(sched.ok());
  tb.inject_faults(*sched, /*seed=*/13);
  tb.run([&]() -> CoTask<void> {
    while (tb.sched().now() < 6 * sim::kSec) co_await tb.sched().delay(100 * sim::kMs);
    for (const std::uint32_t e : {4u, 5u}) {
      EXPECT_EQ(tb.swim_service(e).deaths_declared(), 4u) << "engine " << e;
    }
    const auto leader = tb.svc_leader();
    CO_ASSERT_TRUE(leader.has_value());
    const auto& excluded = tb.svc_replica(*leader).meta().excluded_engines();
    for (std::uint32_t e = 0; e < 4; ++e) {
      EXPECT_EQ(excluded.count(tb.engine(e).node()), 0u)
          << "healthy engine " << e << " evicted by a stale minority verdict";
    }
  });
  tb.stop();
}

// ---------------------------------------------------------------------------
// IV piggyback on the client: staleness detected passively from a stamped
// object reply, resolved by ONE delta fetch (single-flight) from an engine —
// never by querying the pool-service leader.

CoTask<void> one_fetch(client::DaosClient* cl, std::uint32_t mt) {
  net::Body b = net::Body::make(engine::ObjFetchReq{});
  (void)co_await cl->call_target(mt, engine::kOpObjFetch, std::move(b), 64);
}

TEST(IvPiggyback, ConcurrentStaleOpsCoalesceIntoOneDeltaFetch) {
  Testbed tb(swim_cluster());
  tb.start();
  const std::uint32_t victim = 4;
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    tb.crash_engine(victim);
    CO_ASSERT_TRUE(co_await wait_map_version(&tb, 2, 3 * sim::kSec));
    co_await tb.sched().delay(1 * sim::kSec);  // let every engine converge on v2

    // The client slept through the whole eviction: its map is still v1.
    EXPECT_EQ(cl.pool_map().version, 1u);
    EXPECT_EQ(cl.map_staleness_detected(), 0u);

    // 8 concurrent ops against a healthy engine: every reply is stamped v2,
    // at least one op detects the staleness, and the single-flight gate
    // allows exactly ONE delta fetch for all of them.
    sim::WaitGroup wg(tb.sched());
    for (int i = 0; i < 8; ++i) wg.spawn(one_fetch(&cl, /*map_target=*/0));
    co_await wg.wait();

    EXPECT_EQ(cl.pool_map().version, 2u);
    EXPECT_GE(cl.map_staleness_detected(), 1u);
    EXPECT_EQ(cl.map_delta_fetches(), 1u) << "single-flight gate failed to coalesce";
    EXPECT_EQ(testkit::svc_rpcs_sent(cl), 0u) << "the pool service was asked for the map";
    for (std::uint32_t t = victim * tb.config().targets_per_engine;
         t < (victim + 1) * tb.config().targets_per_engine; ++t) {
      EXPECT_EQ(cl.pool_map().targets[t].health, pool::TargetHealth::excluded) << t;
    }
  });
  tb.stop();
}

// ---------------------------------------------------------------------------
// The default profile: SWIM is the only way an engine leaves the map. An
// engine crashes under client traffic on an untouched ClusterConfig; the
// client never talks to the pool service, SWIM evicts the engine once, and
// the client's timed-out call waits for that eviction.

CoTask<void> kv_writer(client::KvObject* kv, int puts, int* failures) {
  const std::vector<std::byte> v(64, std::byte{0x3C});
  for (int i = 0; i < puts; ++i) {
    if (co_await kv->put(strfmt("k%03d", i), "a", v) != Errno::ok) ++*failures;
  }
}

struct EpisodeDigest {
  std::uint64_t trace_hash = 0;
  std::uint64_t events = 0;
  std::uint32_t map_version = 0;
  std::uint64_t deaths = 0;
};

EpisodeDigest run_default_crash_episode() {
  Testbed tb(ClusterConfig{});
  tb.start();
  const std::uint32_t victim = 5;  // no pool-service replica there
  const std::uint32_t mt = victim * tb.config().targets_per_engine;
  const net::NodeId victim_node = tb.engine(victim).node();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const std::uint64_t svc_before = testkit::svc_rpcs_sent(cl);

    // A replicated KV writer runs across the crash.
    client::KvObject kv(cl, kPoolUuid, client::make_oid(11, client::ObjClass::RP_2GX));
    int failures = 0;
    sim::WaitGroup wg(tb.sched());
    wg.spawn(kv_writer(&kv, 64, &failures));
    co_await tb.sched().delay(1 * sim::kMs);
    tb.crash_engine(victim);

    // The retry budget burns, the engine goes DOWN locally, and the call
    // waits for SWIM's eviction before answering stale.
    net::Body body = net::Body::make(engine::ObjFetchReq{});
    const net::Reply r = co_await cl.call_target(mt, engine::kOpObjFetch, std::move(body), 64);
    EXPECT_EQ(r.status, Errno::stale);
    EXPECT_EQ(cl.pool_map().version, 2u);
    EXPECT_TRUE(testkit::client_sees_excluded(cl, victim_node));

    // Afterwards the EXCLUDED target fails fast: no RPC leaves the client.
    const std::uint64_t calls_before = cl.rpcs_sent();
    net::Body body2 = net::Body::make(engine::ObjFetchReq{});
    const net::Reply r2 = co_await cl.call_target(mt, engine::kOpObjFetch, std::move(body2), 64);
    EXPECT_EQ(r2.status, Errno::stale);
    EXPECT_EQ(cl.rpcs_sent(), calls_before);

    co_await wg.wait();
    EXPECT_EQ(failures, 0);
    for (int i = 0; i < 64; ++i) {
      auto got = co_await kv.get(strfmt("k%03d", i), "a");
      CO_ASSERT_OK(got);
      EXPECT_EQ(got->size(), 64u);
    }
    EXPECT_EQ(testkit::svc_rpcs_sent(cl), svc_before) << "the client talked to the pool service";
  });
  EXPECT_TRUE(tb.wait_rebuild()) << "the eviction's rebuild never converged";
  EpisodeDigest d;
  const auto leader = tb.svc_leader();
  EXPECT_TRUE(leader.has_value());
  if (leader) {
    const auto& meta = tb.svc_replica(*leader).meta();
    d.map_version = meta.map_version();
    // Exactly one eviction: one delta, naming the victim.
    const auto deltas = meta.deltas_since(0);
    EXPECT_EQ(deltas.size(), 1u);
    EXPECT_EQ(meta.excluded_engines(), (std::set<net::NodeId>{victim_node}));
  }
  d.deaths = testkit::swim_deaths(tb);
  tb.stop();
  d.trace_hash = tb.sched().trace_hash();
  d.events = tb.sched().events_processed();
  return d;
}

TEST(SwimDetect, DefaultProfileEvictsCrashedEngineUnderClientTraffic) {
  const EpisodeDigest d = run_default_crash_episode();
  EXPECT_EQ(d.map_version, 2u);
  EXPECT_GE(d.deaths, 1u);
}

// ---------------------------------------------------------------------------
// Determinism: same seed, same faults, SWIM on -> bit-identical trace

struct SwimDigest {
  std::uint64_t trace_hash = 0;
  std::uint64_t events = 0;
  std::uint32_t map_version = 0;
  std::uint64_t suspects = 0;
  std::uint64_t deaths = 0;
};

SwimDigest run_swim_scenario(std::uint64_t fault_seed) {
  Testbed tb(swim_cluster());
  tb.start();
  auto sched = fault::Schedule::parse("crash@100ms:e4,drop@0s-1s:e1:0.2");
  EXPECT_TRUE(sched.ok());
  tb.inject_faults(*sched, fault_seed);
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    client::KvObject kv(cl, kPoolUuid, client::make_oid(9, client::ObjClass::S4));
    std::vector<std::byte> v(32, std::byte{0x5C});
    for (int i = 0; i < 8; ++i) {
      (void)co_await kv.put(strfmt("k%d", i), "a", v);  // stale mid-eviction is fine
    }
    (void)co_await wait_map_version(&tb, 2, 5 * sim::kSec);
    co_await tb.sched().delay(1 * sim::kSec);
  });
  tb.wait_rebuild();
  SwimDigest d;
  if (const auto l = tb.svc_leader()) d.map_version = tb.svc_replica(*l).meta().map_version();
  d.suspects = total_suspects(tb);
  d.deaths = testkit::swim_deaths(tb);
  tb.stop();
  d.trace_hash = tb.sched().trace_hash();
  d.events = tb.sched().events_processed();
  return d;
}

TEST(SwimDeterminism, SameSeedReplaysBitIdentically) {
  const SwimDigest a = run_swim_scenario(77);
  const SwimDigest b = run_swim_scenario(77);
  EXPECT_EQ(a.trace_hash, b.trace_hash)
      << "SWIM runs diverged — probe order or gossip reached the scheduler nondeterministically";
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.map_version, b.map_version);
  EXPECT_EQ(a.suspects, b.suspects);
  EXPECT_EQ(a.deaths, b.deaths);
  EXPECT_EQ(a.map_version, 2u);
  EXPECT_GE(a.deaths, 1u);
}

TEST(SwimDeterminism, DifferentSeedPerturbsTheTrace) {
  const SwimDigest a = run_swim_scenario(77);
  const SwimDigest b = run_swim_scenario(31337);
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

TEST(SwimDeterminism, DefaultProfileCrashEpisodeReplaysBitIdentically) {
  const EpisodeDigest a = run_default_crash_episode();
  const EpisodeDigest b = run_default_crash_episode();
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.map_version, b.map_version);
  EXPECT_EQ(a.deaths, b.deaths);
}

}  // namespace
}  // namespace daosim
