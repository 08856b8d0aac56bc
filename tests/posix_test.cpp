// POSIX layer tests: MemVfs semantics, and DFuse request splitting, thread
// pool limits, and cost accounting over a real DFS mount.
#include <gtest/gtest.h>

#include "co_assert.hpp"
#include "discard_stack.hpp"
#include "ior/ior.hpp"
#include "posix/dfuse.hpp"
#include "posix/vfs.hpp"

namespace daosim::posix {
namespace {

using cluster::ClusterConfig;
using cluster::kPoolUuid;
using cluster::Testbed;
using sim::CoTask;
using sim::Time;

// ---------------------------------------------------------------------------
// MemVfs

TEST(MemVfs, CreateWriteReadRoundTrip) {
  sim::Scheduler s;
  MemVfs vfs;
  s.spawn([&]() -> CoTask<void> {
    VfsOpenFlags flags;
    flags.create = true;
    auto fd = co_await vfs.open("/f", flags);
    CO_ASSERT_OK(fd);
    std::vector<std::byte> data(100, std::byte{5});
    auto w = co_await vfs.pwrite(*fd, 50, data.size(), data);
    CO_ASSERT_OK(w);
    std::vector<std::byte> out(100);
    auto r = co_await vfs.pread(*fd, 50, out);
    CO_ASSERT_OK(r);
    CO_ASSERT_EQ(*r, 100u);
    CO_ASSERT_TRUE(out == data);
    auto sz = co_await vfs.fsize(*fd);
    CO_ASSERT_OK(sz);
    CO_ASSERT_EQ(*sz, 150u);
    CO_ASSERT_ERRNO(co_await vfs.close(*fd), Errno::ok);
    CO_ASSERT_ERRNO(co_await vfs.close(*fd), Errno::bad_fd);
  });
  s.run();
}

TEST(MemVfs, DirectoryOperations) {
  sim::Scheduler s;
  MemVfs vfs;
  s.spawn([&]() -> CoTask<void> {
    CO_ASSERT_ERRNO(co_await vfs.mkdir("/d"), Errno::ok);
    CO_ASSERT_ERRNO(co_await vfs.mkdir("/d"), Errno::exists);
    CO_ASSERT_ERRNO(co_await vfs.mkdir("/missing/sub"), Errno::no_entry);
    VfsOpenFlags flags;
    flags.create = true;
    auto fd = co_await vfs.open("/d/f", flags);
    CO_ASSERT_OK(fd);
    auto names = co_await vfs.readdir("/d");
    CO_ASSERT_OK(names);
    CO_ASSERT_EQ(names->size(), 1u);
    CO_ASSERT_ERRNO(co_await vfs.rmdir("/d"), Errno::not_empty);
    CO_ASSERT_ERRNO(co_await vfs.unlink("/d/f"), Errno::ok);
    CO_ASSERT_ERRNO(co_await vfs.rmdir("/d"), Errno::ok);
  });
  s.run();
}

TEST(MemVfs, RenameAndStat) {
  sim::Scheduler s;
  MemVfs vfs;
  s.spawn([&]() -> CoTask<void> {
    VfsOpenFlags flags;
    flags.create = true;
    auto fd = co_await vfs.open("/a", flags);
    CO_ASSERT_OK(fd);
    std::vector<std::byte> d(7, std::byte{1});
    CO_ASSERT_OK(co_await vfs.pwrite(*fd, 0, d.size(), d));
    CO_ASSERT_ERRNO(co_await vfs.rename("/a", "/b"), Errno::ok);
    auto st = co_await vfs.stat("/b");
    CO_ASSERT_OK(st);
    CO_ASSERT_EQ(st->size, 7u);
    CO_ASSERT_EQ((co_await vfs.stat("/a")).error(), Errno::no_entry);
  });
  s.run();
}

TEST(MemVfs, ReadPastEofReturnsShort) {
  sim::Scheduler s;
  MemVfs vfs;
  s.spawn([&]() -> CoTask<void> {
    VfsOpenFlags flags;
    flags.create = true;
    auto fd = co_await vfs.open("/f", flags);
    CO_ASSERT_OK(fd);
    std::vector<std::byte> d(10, std::byte{2});
    CO_ASSERT_OK(co_await vfs.pwrite(*fd, 0, d.size(), d));
    std::vector<std::byte> out(20);
    auto r = co_await vfs.pread(*fd, 5, out);
    CO_ASSERT_OK(r);
    CO_ASSERT_EQ(*r, 5u);
  });
  s.run();
}

// ---------------------------------------------------------------------------
// DFuse over a real testbed

class DfuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig cfg;
    cfg.server_nodes = 2;
    cfg.engines_per_server = 2;
    cfg.targets_per_engine = 4;
    tb_ = std::make_unique<Testbed>(cfg);
    tb_->start();
    tb_->run([this]() -> CoTask<void> {
      CO_ASSERT_OK(co_await tb_->client(0).cont_create(kPoolUuid, {}));
      auto m = co_await dfs::DfsMount::mount(tb_->client(0), kPoolUuid);
      CO_ASSERT_OK(m);
      dfs_ = std::move(*m);
      dfuse_ = std::make_unique<DfuseMount>(tb_->sched(), *dfs_, DfuseConfig{});
    });
    ASSERT_NE(dfuse_, nullptr);
  }
  void TearDown() override {
    dfuse_.reset();
    dfs_.reset();
    tb_->stop();
  }

  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<dfs::DfsMount> dfs_;
  std::unique_ptr<DfuseMount> dfuse_;
};

TEST_F(DfuseTest, RoundTripThroughMount) {
  tb_->run([this]() -> CoTask<void> {
    VfsOpenFlags flags;
    flags.create = true;
    auto fd = co_await dfuse_->open("/f", flags);
    CO_ASSERT_OK(fd);
    std::vector<std::byte> data(300'000);
    ior::fill_pattern(data, 0, 3);
    auto w = co_await dfuse_->pwrite(*fd, 0, data.size(), data);
    CO_ASSERT_OK(w);
    std::vector<std::byte> out(data.size());
    auto r = co_await dfuse_->pread(*fd, 0, out);
    CO_ASSERT_OK(r);
    CO_ASSERT_EQ(*r, data.size());
    CO_ASSERT_EQ(ior::check_pattern(out, 0, 3), 0u);
    CO_ASSERT_ERRNO(co_await dfuse_->close(*fd), Errno::ok);
  });
}

TEST_F(DfuseTest, LargeIoSplitsIntoMaxRequestPieces) {
  tb_->run([this]() -> CoTask<void> {
    VfsOpenFlags flags;
    flags.create = true;
    auto fd = co_await dfuse_->open("/big", flags);
    CO_ASSERT_OK(fd);
    const std::uint64_t before = dfuse_->requests_served();
    const std::uint64_t bytes = 8 * kMiB;  // 8 pieces at the 1 MiB FUSE limit
    auto w = co_await dfuse_->pwrite(*fd, 0, bytes, {});
    CO_ASSERT_OK(w);
    CO_ASSERT_EQ(dfuse_->requests_served() - before, 8u);
  });
}

TEST_F(DfuseTest, PerOpCostIsCharged) {
  tb_->run([this]() -> CoTask<void> {
    VfsOpenFlags flags;
    flags.create = true;
    auto fd = co_await dfuse_->open("/cost", flags);
    CO_ASSERT_OK(fd);
    const Time t0 = tb_->sched().now();
    auto w = co_await dfuse_->pwrite(*fd, 0, 4096, {});
    CO_ASSERT_OK(w);
    const Time elapsed = tb_->sched().now() - t0;
    // At least the kernel-crossing cost, plus the backend RPC time.
    CO_ASSERT_TRUE(elapsed >= dfuse_->config().op_cost);
  });
}

TEST_F(DfuseTest, MetadataOpsForwarded) {
  tb_->run([this]() -> CoTask<void> {
    CO_ASSERT_ERRNO(co_await dfuse_->mkdir("/dir"), Errno::ok);
    VfsOpenFlags flags;
    flags.create = true;
    auto fd = co_await dfuse_->open("/dir/f", flags);
    CO_ASSERT_OK(fd);
    std::vector<std::byte> d(64, std::byte{1});
    (void)co_await dfuse_->pwrite(*fd, 0, d.size(), d);
    auto st = co_await dfuse_->stat("/dir/f");
    CO_ASSERT_OK(st);
    CO_ASSERT_EQ(st->size, 64u);
    auto names = co_await dfuse_->readdir("/dir");
    CO_ASSERT_OK(names);
    CO_ASSERT_EQ(names->size(), 1u);
    CO_ASSERT_ERRNO(co_await dfuse_->close(*fd), Errno::ok);
    CO_ASSERT_ERRNO(co_await dfuse_->unlink("/dir/f"), Errno::ok);
    CO_ASSERT_ERRNO(co_await dfuse_->rmdir("/dir"), Errno::ok);
  });
}

TEST_F(DfuseTest, RenameThroughMount) {
  tb_->run([this]() -> CoTask<void> {
    VfsOpenFlags flags;
    flags.create = true;
    auto fd = co_await dfuse_->open("/src", flags);
    CO_ASSERT_OK(fd);
    CO_ASSERT_ERRNO(co_await dfuse_->close(*fd), Errno::ok);
    CO_ASSERT_ERRNO(co_await dfuse_->rename("/src", "/dst"), Errno::ok);
    auto st = co_await dfuse_->stat("/dst");
    CO_ASSERT_OK(st);
  });
}

TEST_F(DfuseTest, BadFdRejected) {
  tb_->run([this]() -> CoTask<void> {
    std::vector<std::byte> out(8);
    auto r = co_await dfuse_->pread(999, 0, out);
    CO_ASSERT_EQ(r.error(), Errno::bad_fd);
    auto w = co_await dfuse_->pwrite(999, 0, 8, {});
    CO_ASSERT_EQ(w.error(), Errno::bad_fd);
  });
}

TEST(DfuseDiscard, PreadLeavesSinkUntouched) {
  testkit::DiscardStack stack;
  stack.tb.run([&]() -> CoTask<void> {
    VfsOpenFlags flags;
    flags.create = true;
    auto fd = co_await stack.dfuse->open("/sink", flags);
    CO_ASSERT_OK(fd);
    const std::uint64_t len = 3 * kMiB + 4096;  // four FUSE requests, one partial
    CO_ASSERT_OK(co_await stack.dfuse->pwrite(*fd, 0, len, {}));
    auto sink = testkit::sentinel_sink(len);
    auto r = co_await stack.dfuse->pread(*fd, 0, sink);
    CO_ASSERT_OK(r);
    CO_ASSERT_EQ(*r, len);
    CO_ASSERT_TRUE(testkit::sink_untouched(sink));
    CO_ASSERT_ERRNO(co_await stack.dfuse->close(*fd), Errno::ok);
  });
}

}  // namespace
}  // namespace daosim::posix
