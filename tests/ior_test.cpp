// End-to-end IOR tests: every backend writes and reads back verified data in
// both easy (file-per-process) and hard (shared-file) modes on a small
// cluster, and the bandwidth accounting is sane.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "co_assert.hpp"
#include "ior/ior.hpp"

namespace daosim::ior {
namespace {

using cluster::ClusterConfig;
using cluster::Testbed;

ClusterConfig small_cluster(std::uint32_t client_nodes = 2) {
  ClusterConfig cfg;
  cfg.server_nodes = 2;
  cfg.engines_per_server = 2;
  cfg.targets_per_engine = 4;
  cfg.client_nodes = client_nodes;
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

class IorBackends
    : public ::testing::TestWithParam<std::tuple<Api, bool /*file_per_process*/>> {};

TEST_P(IorBackends, WritesAndReadsBackVerified) {
  const auto [api, fpp] = GetParam();
  Testbed tb(small_cluster());
  tb.start();
  IorRunner runner(tb, /*ppn=*/4);
  const IorResult res = runner.run(small_job(api, fpp));

  EXPECT_EQ(res.verify_errors, 0u) << to_string(api);
  EXPECT_EQ(res.read_fill_errors, 0u) << to_string(api);
  // 8 ranks x 1 MiB x 2 segments = 16 MiB per phase.
  EXPECT_EQ(res.write.bytes, 16u * kMiB);
  EXPECT_EQ(res.read.bytes, 16u * kMiB);
  EXPECT_GT(res.write.seconds, 0.0);
  EXPECT_GT(res.read.seconds, 0.0);
  EXPECT_GT(res.write.gib_per_sec(), 0.0);
  tb.stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllApis, IorBackends,
    ::testing::Combine(::testing::Values(Api::posix, Api::dfs, Api::mpiio, Api::hdf5,
                                         Api::daos_array),
                       ::testing::Values(true, false)),
    [](const auto& tp) {
      return std::string(to_string(std::get<0>(tp.param))) +
             (std::get<1>(tp.param) ? "_easy" : "_hard");
    });

TEST(Ior, CollectiveMpiioSharedFileVerifies) {
  Testbed tb(small_cluster());
  tb.start();
  IorRunner runner(tb, 4);
  auto cfg = small_job(Api::mpiio, /*fpp=*/false);
  cfg.collective = true;
  const IorResult res = runner.run(cfg);
  EXPECT_EQ(res.verify_errors, 0u);
  EXPECT_EQ(res.read_fill_errors, 0u);
  tb.stop();
}

TEST(Ior, ReorderTasksReadsNeighbourData) {
  Testbed tb(small_cluster());
  tb.start();
  IorRunner runner(tb, 4);
  auto cfg = small_job(Api::dfs, true);
  cfg.reorder_tasks = true;
  const IorResult res = runner.run(cfg);
  EXPECT_EQ(res.verify_errors, 0u);
  tb.stop();
}

TEST(Ior, NoReorderAlsoVerifies) {
  Testbed tb(small_cluster());
  tb.start();
  IorRunner runner(tb, 4);
  auto cfg = small_job(Api::dfs, false);
  cfg.reorder_tasks = false;
  const IorResult res = runner.run(cfg);
  EXPECT_EQ(res.verify_errors, 0u);
  tb.stop();
}

TEST(Ior, ReadAtSnapshotVerifiesOnPinnedEpoch) {
  Testbed tb(small_cluster());
  tb.start();
  IorRunner runner(tb, 4);
  for (const bool fpp : {true, false}) {
    auto cfg = small_job(Api::daos_array, fpp);
    cfg.read_at_snapshot = true;
    const IorResult res = runner.run(cfg);
    EXPECT_EQ(res.verify_errors, 0u) << (fpp ? "easy" : "hard");
    EXPECT_EQ(res.read_fill_errors, 0u) << (fpp ? "easy" : "hard");
  }
  // Each job registered its read-phase snapshot with the pool service.
  tb.run([&]() -> sim::CoTask<void> {
    auto snaps = co_await tb.client(0).list_snapshots(cluster::kPoolUuid);
    CO_ASSERT_OK(snaps);
    CO_ASSERT_EQ(snaps->size(), 2u);
  });
  tb.stop();
}

TEST(Ior, MultipleJobsOnOneRunner) {
  Testbed tb(small_cluster());
  tb.start();
  IorRunner runner(tb, 2);
  for (Api api : {Api::dfs, Api::posix}) {
    auto cfg = small_job(api, true);
    const IorResult res = runner.run(cfg);
    EXPECT_EQ(res.verify_errors, 0u) << to_string(api);
  }
  tb.stop();
}

TEST(Ior, ObjectClassChangesPlacementSpread) {
  // S1 file-per-process with few ranks touches few targets; SX touches many.
  Testbed tb1(small_cluster(1));
  tb1.start();
  IorRunner r1(tb1, 2);
  auto cfg = small_job(Api::dfs, true);
  cfg.oclass = std::uint8_t(client::ObjClass::S1);
  cfg.verify = false;
  (void)r1.run(cfg);
  std::uint64_t s1_engines = 0;
  for (std::uint32_t e = 0; e < tb1.engine_count(); ++e) {
    s1_engines += tb1.engine(e).updates_served() > 0;
  }
  tb1.stop();

  Testbed tb2(small_cluster(1));
  tb2.start();
  IorRunner r2(tb2, 2);
  cfg.oclass = std::uint8_t(client::ObjClass::SX);
  (void)r2.run(cfg);
  std::uint64_t sx_engines = 0;
  for (std::uint32_t e = 0; e < tb2.engine_count(); ++e) {
    sx_engines += tb2.engine(e).updates_served() > 0;
  }
  tb2.stop();
  EXPECT_GE(sx_engines, s1_engines);
  EXPECT_EQ(sx_engines, 4u);  // SX spreads over every engine
}

TEST(Ior, SwimProbesLeaveJobFiguresUntouched) {
  // SWIM probes every engine many times during the job, on the fabric's
  // control lane; a job that no probe overlaps must see the same timings.
  auto job = [](sim::Time probe_period) {
    ClusterConfig ccfg = small_cluster();
    ccfg.payload = vos::PayloadMode::discard;
    ccfg.swim.probe_period = probe_period;
    Testbed tb(ccfg);
    tb.start();
    IorRunner runner(tb, 4);
    IorConfig cfg = small_job(Api::hdf5, /*fpp=*/false);
    cfg.transfer_size = 64 * kKiB;
    cfg.verify = false;
    const IorResult res = runner.run(cfg);
    tb.stop();
    return res;
  };
  const IorResult probed = job(1 * sim::kMs);
  const IorResult quiet = job(3600 * sim::kSec);
  EXPECT_GT(probed.write.seconds + probed.read.seconds, 0.005);  // >= 5 probe periods
  EXPECT_EQ(probed.write.seconds, quiet.write.seconds);
  EXPECT_EQ(probed.read.seconds, quiet.read.seconds);
}

/// Peak resident set size of this process so far, in bytes.
std::uint64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return std::uint64_t(ru.ru_maxrss) * kKiB;  // Linux reports KiB
}

TEST(Ior, MetadataOnlyModeRunsLargeJob) {
  auto ccfg = small_cluster();
  ccfg.payload = vos::PayloadMode::discard;
  Testbed tb(ccfg);
  tb.start();
  IorRunner runner(tb, 4);
  IorConfig cfg;
  cfg.api = Api::dfs;
  cfg.transfer_size = 8 * kMiB;
  cfg.block_size = 32 * kMiB;  // 8 ranks x 32 MiB with no payload memory
  cfg.verify = false;
  [[maybe_unused]] const std::uint64_t rss_before = peak_rss_bytes();
  const IorResult res = runner.run(cfg);
#ifndef __SANITIZE_ADDRESS__
  // Every read of the job lands in one shared transfer-sized sink; zeroing
  // a sink per read would make 8 x 8 MiB resident at once. In discard mode
  // no layer writes the sink, so its pages must never be touched. Not
  // checked under ASan: its quarantine keeps freed blocks and writes their
  // shadow memory, which alone grows RSS by tens of MiB here.
  EXPECT_LT(peak_rss_bytes() - rss_before, runner.ranks() * cfg.transfer_size / 2);
#endif
  EXPECT_EQ(res.read_fill_errors, 0u);
  EXPECT_GT(res.write.gib_per_sec(), 0.0);
  EXPECT_GT(res.read.gib_per_sec(), 0.0);
  tb.stop();
}

TEST(Ior, ReadsFasterThanWrites) {
  // Optane's read/write asymmetry must show through the whole stack. Use the
  // shared-file mode: a single object keeps every target's stream context
  // warm, so media asymmetry (not cold-stream switching) dominates.
  auto ccfg = small_cluster();
  ccfg.payload = vos::PayloadMode::discard;
  Testbed tb(ccfg);
  tb.start();
  IorRunner runner(tb, 8);
  IorConfig cfg;
  cfg.api = Api::dfs;
  cfg.file_per_process = false;
  cfg.transfer_size = 4 * kMiB;
  cfg.block_size = 64 * kMiB;
  cfg.verify = false;
  const IorResult res = runner.run(cfg);
  EXPECT_GT(res.read.gib_per_sec(), res.write.gib_per_sec());
  tb.stop();
}

TEST(Ior, Hdf5SlowerThanDfsInEasyMode) {
  // The paper's headline FPP observation: HDF5 over DFuse well below DFS.
  auto ccfg = small_cluster();
  ccfg.payload = vos::PayloadMode::discard;
  Testbed tb(ccfg);
  tb.start();
  IorRunner runner(tb, 8);
  IorConfig cfg;
  cfg.transfer_size = 4 * kMiB;
  cfg.block_size = 32 * kMiB;
  cfg.verify = false;
  cfg.api = Api::dfs;
  const IorResult dfs_res = runner.run(cfg);
  cfg.api = Api::hdf5;
  const IorResult h5_res = runner.run(cfg);
  EXPECT_LT(h5_res.write.gib_per_sec(), dfs_res.write.gib_per_sec());
  EXPECT_LT(h5_res.read.gib_per_sec(), dfs_res.read.gib_per_sec());
  tb.stop();
}

TEST(Ior, EqDepthPipelinesTransfersAndVerifies) {
  // The daos_event model: each rank keeps eq_depth transfers in flight. A
  // deeper queue overlaps RPC round-trips and must never be slower than
  // issuing the same transfers serially — while still verifying every byte.
  auto run = [](std::uint32_t depth) {
    Testbed tb(small_cluster());
    tb.start();
    IorRunner runner(tb, /*ppn=*/4, /*chunk_size=*/64 * kKiB);
    IorConfig cfg = small_job(Api::dfs, /*fpp=*/true);
    cfg.eq_depth = depth;
    const IorResult res = runner.run(cfg);
    tb.stop();
    return res;
  };
  const IorResult eq1 = run(1);
  const IorResult eq4 = run(4);
  EXPECT_EQ(eq1.verify_errors, 0u);
  EXPECT_EQ(eq4.verify_errors, 0u);
  EXPECT_EQ(eq4.read_fill_errors, 0u);
  EXPECT_EQ(eq4.write.bytes, eq1.write.bytes);
  EXPECT_EQ(eq4.read.bytes, eq1.read.bytes);
  EXPECT_LT(eq4.write.seconds, eq1.write.seconds) << "deeper queue failed to pipeline writes";
  EXPECT_LE(eq4.read.seconds, eq1.read.seconds);
}

TEST(Ior, PatternHelpersRoundTrip) {
  std::vector<std::byte> buf(4096);
  fill_pattern(buf, 777, 42);
  EXPECT_EQ(check_pattern(buf, 777, 42), 0u);
  EXPECT_GT(check_pattern(buf, 778, 42), 0u);
  EXPECT_GT(check_pattern(buf, 777, 43), 0u);
}

// The per-word reference the pattern helpers must match byte for byte: the
// 8-byte word at file offset x (the last one cut short) is mix64(seed) + x.
std::vector<std::byte> reference_pattern(std::size_t len, std::uint64_t file_offset,
                                         std::uint64_t seed) {
  std::vector<std::byte> buf(len);
  for (std::size_t i = 0; i < len; i += 8) {
    const std::uint64_t word = client::mix64(seed) + (file_offset + i);
    const std::size_t n = std::min<std::size_t>(8, len - i);
    std::memcpy(buf.data() + i, &word, n);
  }
  return buf;
}

TEST(Ior, PatternMatchesPerWordReference) {
  for (std::uint64_t off : {0ull, 1ull, 3ull, 7ull, 12ull, 777ull, 4097ull}) {
    for (std::size_t len = 0; len <= 40; ++len) {
      const std::vector<std::byte> want = reference_pattern(len, off, 42);
      std::vector<std::byte> got(len, std::byte{0xA5});
      fill_pattern(got, off, 42);
      ASSERT_EQ(got, want) << "offset " << off << " length " << len;
      ASSERT_EQ(check_pattern(got, off, 42), 0u) << "offset " << off << " length " << len;
    }
  }
}

TEST(Ior, CheckPatternCountsWholeWordsAndTail) {
  std::vector<std::byte> buf(8 * 5 + 3);  // five whole words and a 3-byte tail
  fill_pattern(buf, 13, 9);
  buf[8 * 2 + 5] ^= std::byte{0x01};  // one corrupted byte in the third word
  EXPECT_EQ(check_pattern(buf, 13, 9), 8u);
  buf[8 * 2 + 0] ^= std::byte{0x80};  // a second bad byte in the same word
  EXPECT_EQ(check_pattern(buf, 13, 9), 8u);
  fill_pattern(buf, 13, 9);
  buf[8 * 5 + 1] ^= std::byte{0x10};  // corrupted tail
  EXPECT_EQ(check_pattern(buf, 13, 9), 3u);
  buf[0] ^= std::byte{0x10};  // plus the first whole word
  EXPECT_EQ(check_pattern(buf, 13, 9), 8u + 3u);
}

// Each way a verified read can come back wrong fails every word it touches:
// a block shifted by one word, two blocks swapped, a block left by the
// previous pass (another seed), and a hole read back as zeros.
TEST(Ior, CheckPatternFlagsMisplacedStaleAndMissingBlocks) {
  constexpr std::uint64_t kBlock = 4096;
  constexpr std::uint64_t kSeed = 0x5EED;
  constexpr std::uint64_t kPrevSeed = 0x5EEC;
  for (std::uint64_t base : {0ull, 8ull, 3ull, 1ull << 40}) {
    SCOPED_TRACE(base);
    std::vector<std::byte> file(4 * kBlock);
    fill_pattern(file, base, kSeed);
    ASSERT_EQ(check_pattern(file, base, kSeed), 0u);
    const std::span<std::byte> b1(file.data() + kBlock, kBlock);
    const std::span<std::byte> b2(file.data() + 2 * kBlock, kBlock);

    std::vector<std::byte> shifted(file);  // block 1 landed 8 bytes late
    fill_pattern(std::span(shifted).subspan(kBlock + 8, kBlock), base + kBlock, kSeed);
    EXPECT_EQ(check_pattern(std::span(shifted).subspan(kBlock + 8, kBlock), base + kBlock + 8,
                            kSeed),
              kBlock);
    std::vector<std::byte> early(file);  // and 8 bytes early
    fill_pattern(std::span(early).subspan(kBlock - 8, kBlock), base + kBlock, kSeed);
    EXPECT_EQ(check_pattern(std::span(early).subspan(kBlock - 8, kBlock), base + kBlock - 8,
                            kSeed),
              kBlock);

    std::vector<std::byte> swapped(file);  // blocks 1 and 2 swapped
    std::copy(b2.begin(), b2.end(), swapped.begin() + kBlock);
    std::copy(b1.begin(), b1.end(), swapped.begin() + 2 * kBlock);
    EXPECT_EQ(check_pattern(swapped, base, kSeed), 2 * kBlock);

    std::vector<std::byte> stale(file);  // block 1 from the previous pass
    fill_pattern(std::span(stale).subspan(kBlock, kBlock), base + kBlock, kPrevSeed);
    EXPECT_EQ(check_pattern(stale, base, kSeed), kBlock);

    std::vector<std::byte> hole(file);  // block 2 never written
    std::fill(hole.begin() + 2 * kBlock, hole.begin() + 3 * kBlock, std::byte{0});
    EXPECT_EQ(check_pattern(hole, base, kSeed), kBlock);
  }
}

}  // namespace
}  // namespace daosim::ior
