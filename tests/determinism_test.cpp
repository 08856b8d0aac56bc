// Determinism audit: the simulator's core claim is that a scenario replays
// bit-identically from its configuration. Scheduler::trace_hash() folds every
// dispatched event (virtual time, sequence, kind) into an FNV-1a digest;
// running the same scenario twice in one process must produce the same digest.
// Address-order nondeterminism (hash-map iteration feeding the event queue),
// wall-clock leakage, or unseeded randomness all diverge the digest, because
// the second run allocates at different addresses than the first.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "co_assert.hpp"
#include "fault/fault.hpp"
#include "ior/ior.hpp"
#include "sim/scheduler.hpp"

namespace daosim::ior {
namespace {

using cluster::ClusterConfig;
using cluster::Testbed;
using sim::CoTask;
using sim::Scheduler;

// ---------------------------------------------------------------------------
// Unit-level properties of the trace digest itself.

TEST(TraceHash, FreshSchedulerHasStableSeed) {
  Scheduler a, b;
  EXPECT_EQ(a.trace_hash(), b.trace_hash());
  a.run();
  EXPECT_EQ(a.trace_hash(), b.trace_hash()) << "empty run must not perturb the digest";
}

TEST(TraceHash, IdenticalSchedulesProduceIdenticalDigests) {
  auto drive = [] {
    Scheduler s;
    int hits = 0;
    s.schedule_callback(10, [&] { ++hits; });
    s.schedule_callback(20, [&] { ++hits; });
    s.spawn([&s]() -> CoTask<void> {
      co_await s.delay(15);
      co_await s.delay(15);
    });
    s.run();
    return s.trace_hash();
  };
  EXPECT_EQ(drive(), drive());
}

TEST(TraceHash, DifferentTimingsDiverge) {
  auto drive = [](sim::Time t) {
    Scheduler s;
    s.schedule_callback(t, [] {});
    s.run();
    return s.trace_hash();
  };
  EXPECT_NE(drive(10), drive(11));
}

TEST(TraceHash, DifferentOrderDiverges) {
  auto drive = [](bool swap) {
    Scheduler s;
    // Same two events; scheduling order decides the (time, seq) pairing.
    if (swap) {
      s.schedule_callback(20, [] {});
      s.schedule_callback(10, [] {});
    } else {
      s.schedule_callback(10, [] {});
      s.schedule_callback(20, [] {});
    }
    s.run();
    return s.trace_hash();
  };
  EXPECT_NE(drive(false), drive(true));
}

// A cancelled timer leaves the queue, so it is never folded: the digest
// differs from the run in which the same timer fires.
TEST(TraceHash, CancelledTimerChangesEventKind) {
  auto drive = [](bool cancel) {
    Scheduler s;
    sim::Timer t = s.schedule_callback(10, [] {});
    if (cancel) t.cancel();
    s.run();
    return s.trace_hash();
  };
  EXPECT_NE(drive(false), drive(true));
}

// ---------------------------------------------------------------------------
// End-to-end: each paper scenario (easy/hard x DFS/MPI-IO/HDF5) replays with a
// bit-identical event trace and bandwidth result.

ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.server_nodes = 2;
  cfg.engines_per_server = 2;
  cfg.targets_per_engine = 4;
  cfg.client_nodes = 2;
  return cfg;
}

IorConfig small_job(Api api, bool fpp) {
  IorConfig cfg;
  cfg.api = api;
  cfg.transfer_size = 256 * kKiB;
  cfg.block_size = 1 * kMiB;
  cfg.segments = 2;
  cfg.file_per_process = fpp;
  cfg.verify = true;
  return cfg;
}

struct RunDigest {
  std::uint64_t trace_hash;
  std::uint64_t events;
  std::uint64_t write_bytes;
  std::uint64_t read_bytes;
  double write_seconds;
  double read_seconds;
};

RunDigest run_scenario(Api api, bool fpp) {
  Testbed tb(small_cluster());
  tb.start();
  IorRunner runner(tb, /*ppn=*/4);
  const IorResult res = runner.run(small_job(api, fpp));
  tb.stop();
  return RunDigest{tb.sched().trace_hash(), tb.sched().events_processed(),
                   res.write.bytes,         res.read.bytes,
                   res.write.seconds,       res.read.seconds};
}

class DeterminismAudit
    : public ::testing::TestWithParam<std::tuple<Api, bool /*file_per_process*/>> {};

TEST_P(DeterminismAudit, BackToBackRunsReplayBitIdentically) {
  const auto [api, fpp] = GetParam();
  const RunDigest first = run_scenario(api, fpp);
  const RunDigest second = run_scenario(api, fpp);

  EXPECT_EQ(first.trace_hash, second.trace_hash)
      << to_string(api) << (fpp ? " easy" : " hard")
      << ": event traces diverged — hidden nondeterminism reached the scheduler";
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.write_bytes, second.write_bytes);
  EXPECT_EQ(first.read_bytes, second.read_bytes);
  EXPECT_EQ(first.write_seconds, second.write_seconds);
  EXPECT_EQ(first.read_seconds, second.read_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    EasyAndHard, DeterminismAudit,
    ::testing::Combine(::testing::Values(Api::dfs, Api::mpiio, Api::hdf5),
                       ::testing::Values(true, false)),
    [](const auto& tp) {
      return std::string(to_string(std::get<0>(tp.param))) +
             (std::get<1>(tp.param) ? "_easy" : "_hard");
    });

// ---------------------------------------------------------------------------
// Rebuild determinism: crash -> eviction -> scan -> throttled pulls ->
// rebuild_done all run through the scheduler, so a seeded crash + rebuild +
// readback scenario must fold into a bit-identical digest on replay.

/// Crashes whichever engine leads the pool service the moment a rebuild task
/// is in flight (replica index == engine index). Gives up after `timeout`,
/// so a run that never rebuilds cannot keep the scheduler busy forever.
CoTask<void> crash_leader_mid_rebuild(Testbed* tb, sim::Time timeout) {
  const sim::Time deadline = tb->sched().now() + timeout;
  while (tb->sched().now() < deadline) {
    co_await tb->sched().delay(1 * sim::kMs);
    const auto l = tb->svc_leader();
    if (l && tb->svc_replica(*l).meta().rebuilds_incomplete() > 0) {
      tb->crash_engine(*l);
      co_return;
    }
  }
}

std::uint64_t run_rebuild_scenario(const std::string& faults, bool readback,
                                   bool crash_leader = false) {
  Testbed tb(small_cluster());
  tb.start();
  auto schedule = fault::Schedule::parse(faults);
  EXPECT_TRUE(schedule.ok());
  tb.inject_faults(*schedule, /*seed=*/7);
  if (crash_leader) tb.sched().spawn(crash_leader_mid_rebuild(&tb, 30 * sim::kSec));

  IorRunner runner(tb, /*ppn=*/4);
  IorConfig job = small_job(Api::daos_array, /*fpp=*/false);
  // RP_2GX spreads redundancy groups over every target, so the crashed
  // engine always hosts replicas and a real rebuild always runs.
  job.oclass = std::uint8_t(client::ObjClass::RP_2GX);
  const IorResult res = runner.run(job);
  EXPECT_EQ(res.verify_errors, 0u);
  EXPECT_TRUE(tb.wait_rebuild());
  if (crash_leader) {
    // Both the crashed engine and the crashed leader's engine left the map.
    const auto l = tb.svc_leader();
    EXPECT_TRUE(l && tb.svc_replica(*l).meta().excluded_engines().size() == 2u);
  }

  if (readback) {
    // Post-heal readback folds degraded-read placement and the rebuilt
    // replicas' contents into the digest.
    const auto oid =
        client::make_oid(runner.last_job().oid_base, client::ObjClass::RP_2GX);
    const std::uint64_t seed = runner.last_job().file_seed;
    const std::uint64_t total =
        std::uint64_t(runner.ranks()) * job.block_size * job.segments;
    tb.run([&]() -> CoTask<void> {
      client::ArrayObject arr(tb.client(0), cluster::kPoolUuid, oid, 1 * kMiB);
      std::vector<std::byte> buf(256 * kKiB);
      std::uint64_t bad = 0;
      for (std::uint64_t off = 0; off < total; off += buf.size()) {
        auto n = co_await arr.read(off, buf);
        CO_ASSERT_TRUE(n.ok());
        if (*n != buf.size()) ++bad;
        bad += check_pattern(buf, off, seed);
      }
      EXPECT_EQ(bad, 0u);
    });
  }
  tb.stop();
  return tb.sched().trace_hash();
}

TEST(RebuildDeterminism, CrashRebuildReadbackReplaysBitIdentically) {
  const std::string faults = "crash@5ms:e3";
  const std::uint64_t first = run_rebuild_scenario(faults, /*readback=*/true);
  const std::uint64_t second = run_rebuild_scenario(faults, /*readback=*/true);
  EXPECT_EQ(first, second)
      << "rebuild traffic diverged — nondeterminism in scan/pull/apply ordering";
}

TEST(RebuildDeterminism, LeaderCrashMidRebuildResumesBitIdentically) {
  // SWIM evicts engine 3 a few seconds after its crash; the moment the
  // resulting rebuild task is in flight, the pool-service leader crashes too.
  // The new leader must resume the task from the Raft-committed done-set,
  // SWIM must then evict the old leader's engine through the new leader, and
  // both runs must replay identically.
  const std::string faults = "crash@5ms:e3";
  const std::uint64_t first = run_rebuild_scenario(faults, /*readback=*/false, true);
  const std::uint64_t second = run_rebuild_scenario(faults, /*readback=*/false, true);
  EXPECT_EQ(first, second)
      << "leader failover mid-rebuild diverged — resume path is nondeterministic";
}

// ---------------------------------------------------------------------------
// Vectorized-path determinism: extent batching groups pieces through ordered
// std::maps and the EventQueue credit window gates launches through the
// scheduler, so batched and pipelined configurations must replay
// bit-identically too — and the knobs must actually reach the event trace.

std::uint64_t run_batched_scenario(std::uint32_t max_batch, std::uint32_t eq_depth) {
  ClusterConfig cluster = small_cluster();
  cluster.client.max_batch_extents = max_batch;
  Testbed tb(cluster);
  tb.start();
  // 32 KiB DFS chunks under 256 KiB transfers: eight extents per transfer,
  // so batching and the legacy per-extent path genuinely diverge.
  IorRunner runner(tb, /*ppn=*/4, /*chunk_size=*/32 * kKiB);
  IorConfig job = small_job(Api::dfs, /*fpp=*/false);
  job.eq_depth = eq_depth;
  const IorResult res = runner.run(job);
  EXPECT_EQ(res.verify_errors, 0u);
  EXPECT_EQ(res.read_fill_errors, 0u);
  tb.stop();
  return tb.sched().trace_hash();
}

TEST(BatchDeterminism, BatchedRunReplaysBitIdentically) {
  EXPECT_EQ(run_batched_scenario(16, 1), run_batched_scenario(16, 1));
}

TEST(BatchDeterminism, LegacyCapOneReplaysBitIdentically) {
  EXPECT_EQ(run_batched_scenario(1, 1), run_batched_scenario(1, 1));
}

TEST(BatchDeterminism, PipelinedEqReplaysBitIdentically) {
  EXPECT_EQ(run_batched_scenario(16, 4), run_batched_scenario(16, 4));
}

TEST(BatchDeterminism, KnobsPerturbTheTrace) {
  // Distinct configurations must not collapse onto one schedule; otherwise
  // the A/B ablation would be comparing identical runs.
  EXPECT_NE(run_batched_scenario(16, 1), run_batched_scenario(1, 1));
  EXPECT_NE(run_batched_scenario(16, 1), run_batched_scenario(16, 4));
}

}  // namespace
}  // namespace daosim::ior
