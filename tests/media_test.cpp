// Tests for the storage media models.
#include <gtest/gtest.h>

#include "media/dcpmm.hpp"
#include "sim/scheduler.hpp"

namespace daosim::media {
namespace {

using sim::CoTask;
using sim::Time;

DcpmmConfig flat_config() {
  DcpmmConfig cfg;
  cfg.read_bytes_per_sec = 2e9;
  cfg.write_bytes_per_sec = 1e9;
  cfg.read_latency = 100;
  cfg.write_latency = 50;
  cfg.read_eff = {};
  cfg.write_eff = {};
  return cfg;
}

TEST(Dcpmm, ReadWriteAsymmetry) {
  sim::Scheduler s;
  DcpmmInterleaveSet pmem(s, flat_config());
  Time read_done = 0, write_done = 0;
  s.spawn([&]() -> CoTask<void> {
    co_await pmem.read(2'000'000);
    read_done = s.now();
  });
  s.run();
  s.spawn([&]() -> CoTask<void> {
    co_await pmem.write(2'000'000);
    write_done = s.now() - read_done;
  });
  s.run();
  EXPECT_NEAR(double(read_done), 100 + 1'000'000.0, 5.0);   // 2MB @ 2B/ns
  EXPECT_NEAR(double(write_done), 50 + 2'000'000.0, 5.0);   // 2MB @ 1B/ns
}

TEST(Dcpmm, ReadsAndWritesUseSeparateChannels) {
  sim::Scheduler s;
  DcpmmInterleaveSet pmem(s, flat_config());
  Time done = 0;
  s.spawn([&]() -> CoTask<void> {
    co_await pmem.read(2'000'000);
    done = std::max(done, s.now());
  });
  s.spawn([&]() -> CoTask<void> {
    co_await pmem.write(1'000'000);
    done = std::max(done, s.now());
  });
  s.run();
  // Concurrent: both finish around 1ms, not 2ms serialized.
  EXPECT_LT(done, Time(1'100'000));
}

TEST(Dcpmm, EfficiencyCurveSlowsManyWriters) {
  sim::Scheduler s;
  auto cfg = flat_config();
  cfg.write_eff = {2, 1.0, 0.25};  // beyond 2 writers efficiency drops fast
  DcpmmInterleaveSet pmem(s, cfg);
  Time done = 0;
  for (int i = 0; i < 8; ++i) {
    s.spawn([&]() -> CoTask<void> {
      co_await pmem.write(1'000'000);
      done = std::max(done, s.now());
    });
  }
  s.run();
  // 8 writers, eff(8) = max(0.25, (2/8)^1) = 0.25 -> 8MB at 0.25 GB/s.
  EXPECT_NEAR(double(done), 50 + 32'000'000.0, 100.0);
}

TEST(Dcpmm, ByteCountersTrack) {
  sim::Scheduler s;
  DcpmmInterleaveSet pmem(s, flat_config());
  s.spawn([&]() -> CoTask<void> {
    co_await pmem.write(1234);
    co_await pmem.read(777);
  });
  s.run();
  EXPECT_EQ(pmem.bytes_written(), 1234u);
  EXPECT_EQ(pmem.bytes_read(), 777u);
}

}  // namespace
}  // namespace daosim::media
