// DFS tests: namespace semantics (mkdir/create/rename/unlink/symlink),
// chunked file I/O, stat sizes, and a randomized namespace property test
// cross-checked against an in-memory oracle.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "co_assert.hpp"
#include "dfs/dfs.hpp"
#include "discard_stack.hpp"
#include "ior/ior.hpp"  // fill/check pattern helpers
#include "sim/random.hpp"

namespace daosim::dfs {
namespace {

using cluster::ClusterConfig;
using cluster::kPoolUuid;
using cluster::Testbed;
using sim::CoTask;

ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.server_nodes = 2;
  cfg.engines_per_server = 2;
  cfg.targets_per_engine = 4;
  cfg.client_nodes = 1;
  return cfg;
}

/// Fixture: testbed + created container + mounted DFS.
class DfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tb_ = std::make_unique<Testbed>(small_cluster());
    tb_->start();
    tb_->run([this]() -> CoTask<void> {
      pool::ContProps props;
      props.chunk_size = 4096;  // small chunks exercise splitting
      auto c = co_await tb_->client(0).cont_create(kPoolUuid, props);
      CO_ASSERT_OK(c);
      auto m = co_await DfsMount::mount(tb_->client(0), kPoolUuid);
      CO_ASSERT_OK(m);
      mount_ = std::move(*m);
    });
    ASSERT_NE(mount_, nullptr);
  }
  void TearDown() override {
    mount_.reset();
    tb_->stop();
  }

  template <typename F>
  void run(F&& f) { tb_->run(std::forward<F>(f)); }

  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<DfsMount> mount_;
};

TEST_F(DfsTest, MkdirAndReaddir) {
  run([this]() -> CoTask<void> {
    CO_ASSERT_ERRNO(co_await mount_->mkdir("/data"), Errno::ok);
    CO_ASSERT_ERRNO(co_await mount_->mkdir("/data/sub"), Errno::ok);
    CO_ASSERT_ERRNO(co_await mount_->mkdir("/data"), Errno::exists);
    auto names = co_await mount_->readdir("/");
    CO_ASSERT_OK(names);
    CO_ASSERT_EQ(names->size(), 1u);
    CO_ASSERT_EQ((*names)[0], "data");
    auto sub = co_await mount_->readdir("/data");
    CO_ASSERT_OK(sub);
    CO_ASSERT_EQ(sub->size(), 1u);
  });
}

TEST_F(DfsTest, CreateWriteReadRoundTrip) {
  run([this]() -> CoTask<void> {
    OpenFlags flags;
    flags.create = true;
    auto f = co_await mount_->open("/file.dat", flags);
    CO_ASSERT_OK(f);
    // Spans several 4 KiB chunks, unaligned start.
    std::vector<std::byte> data(20'000);
    ior::fill_pattern(data, 1234, 7);
    CO_ASSERT_ERRNO(co_await f->write(1234, data.size(), data), Errno::ok);
    std::vector<std::byte> out(data.size());
    auto n = co_await f->read(1234, out);
    CO_ASSERT_OK(n);
    CO_ASSERT_EQ(*n, data.size());
    CO_ASSERT_EQ(ior::check_pattern(out, 1234, 7), 0u);
    auto sz = co_await f->size();
    CO_ASSERT_OK(sz);
    CO_ASSERT_EQ(*sz, 1234u + 20'000u);
  });
}

TEST_F(DfsTest, OpenMissingFileFails) {
  run([this]() -> CoTask<void> {
    auto f = co_await mount_->open("/nope", OpenFlags{});
    CO_ASSERT_EQ(f.error(), Errno::no_entry);
    auto g = co_await mount_->open("/no/dir/file", OpenFlags{.create = true});
    CO_ASSERT_EQ(g.error(), Errno::no_entry);
  });
}

TEST_F(DfsTest, ExclusiveCreate) {
  run([this]() -> CoTask<void> {
    OpenFlags flags;
    flags.create = true;
    flags.excl = true;
    auto f = co_await mount_->open("/x", flags);
    CO_ASSERT_OK(f);
    auto g = co_await mount_->open("/x", flags);
    CO_ASSERT_EQ(g.error(), Errno::exists);
  });
}

TEST_F(DfsTest, TruncateOnOpen) {
  run([this]() -> CoTask<void> {
    OpenFlags flags;
    flags.create = true;
    auto f = co_await mount_->open("/t", flags);
    CO_ASSERT_OK(f);
    std::vector<std::byte> data(5000, std::byte{7});
    CO_ASSERT_ERRNO(co_await f->write(0, data.size(), data), Errno::ok);
    flags.truncate = true;
    auto g = co_await mount_->open("/t", flags);
    CO_ASSERT_OK(g);
    auto sz = co_await g->size();
    CO_ASSERT_OK(sz);
    CO_ASSERT_EQ(*sz, 0u);
  });
}

TEST_F(DfsTest, UnlinkRemovesFile) {
  run([this]() -> CoTask<void> {
    auto f = co_await mount_->open("/gone", OpenFlags{.create = true});
    CO_ASSERT_OK(f);
    CO_ASSERT_ERRNO(co_await mount_->unlink("/gone"), Errno::ok);
    auto st = co_await mount_->stat("/gone");
    CO_ASSERT_EQ(st.error(), Errno::no_entry);
    CO_ASSERT_ERRNO(co_await mount_->unlink("/gone"), Errno::no_entry);
  });
}

TEST_F(DfsTest, RmdirSemantics) {
  run([this]() -> CoTask<void> {
    CO_ASSERT_ERRNO(co_await mount_->mkdir("/d"), Errno::ok);
    auto f = co_await mount_->open("/d/f", OpenFlags{.create = true});
    CO_ASSERT_OK(f);
    CO_ASSERT_ERRNO(co_await mount_->rmdir("/d"), Errno::not_empty);
    CO_ASSERT_ERRNO(co_await mount_->unlink("/d/f"), Errno::ok);
    CO_ASSERT_ERRNO(co_await mount_->rmdir("/d"), Errno::ok);
    CO_ASSERT_ERRNO(co_await mount_->rmdir("/d"), Errno::no_entry);
  });
}

TEST_F(DfsTest, RenameMovesEntry) {
  run([this]() -> CoTask<void> {
    CO_ASSERT_ERRNO(co_await mount_->mkdir("/a"), Errno::ok);
    CO_ASSERT_ERRNO(co_await mount_->mkdir("/b"), Errno::ok);
    auto f = co_await mount_->open("/a/f", OpenFlags{.create = true});
    CO_ASSERT_OK(f);
    std::vector<std::byte> data(100, std::byte{9});
    CO_ASSERT_ERRNO(co_await f->write(0, data.size(), data), Errno::ok);
    CO_ASSERT_ERRNO(co_await mount_->rename("/a/f", "/b/g"), Errno::ok);
    auto old_st = co_await mount_->stat("/a/f");
    CO_ASSERT_EQ(old_st.error(), Errno::no_entry);
    auto st = co_await mount_->stat("/b/g");
    CO_ASSERT_OK(st);
    CO_ASSERT_EQ(st->size, 100u);
  });
}

TEST_F(DfsTest, SymlinkRoundTrip) {
  run([this]() -> CoTask<void> {
    CO_ASSERT_ERRNO(co_await mount_->symlink("/target/path", "/link"), Errno::ok);
    auto t = co_await mount_->readlink("/link");
    CO_ASSERT_OK(t);
    CO_ASSERT_EQ(*t, "/target/path");
    auto st = co_await mount_->stat("/link");
    CO_ASSERT_OK(st);
    CO_ASSERT_TRUE(st->type == FileType::symlink);
  });
}

TEST_F(DfsTest, PathValidation) {
  run([this]() -> CoTask<void> {
    CO_ASSERT_ERRNO(co_await mount_->mkdir("relative/path"), Errno::invalid);
    CO_ASSERT_ERRNO(co_await mount_->mkdir("/has/../dots"), Errno::invalid);
    auto f = co_await mount_->open("", OpenFlags{.create = true});
    CO_ASSERT_EQ(f.error(), Errno::invalid);
    const std::string longname(300, 'x');
    const std::string p = "/" + longname;
    CO_ASSERT_ERRNO(co_await mount_->mkdir(p), Errno::name_too_long);
  });
}

TEST_F(DfsTest, StatFileTypeAndDirs) {
  run([this]() -> CoTask<void> {
    CO_ASSERT_ERRNO(co_await mount_->mkdir("/dir"), Errno::ok);
    auto st = co_await mount_->stat("/dir");
    CO_ASSERT_OK(st);
    CO_ASSERT_TRUE(st->type == FileType::directory);
    auto root = co_await mount_->stat("/");
    CO_ASSERT_OK(root);
    CO_ASSERT_TRUE(root->type == FileType::directory);
  });
}

TEST_F(DfsTest, PerFileObjectClassIsHonoured) {
  run([this]() -> CoTask<void> {
    OpenFlags flags;
    flags.create = true;
    flags.oclass = std::uint8_t(client::ObjClass::S1);
    auto f = co_await mount_->open("/s1file", flags);
    CO_ASSERT_OK(f);
    CO_ASSERT_EQ(client::class_of(f->oid()), client::ObjClass::S1);
    flags.oclass = std::uint8_t(client::ObjClass::SX);
    auto g = co_await mount_->open("/sxfile", flags);
    CO_ASSERT_OK(g);
    CO_ASSERT_EQ(client::class_of(g->oid()), client::ObjClass::SX);
  });
}

TEST_F(DfsTest, RemountSeesExistingNamespace) {
  run([this]() -> CoTask<void> {
    CO_ASSERT_ERRNO(co_await mount_->mkdir("/persist"), Errno::ok);
    auto f = co_await mount_->open("/persist/f", OpenFlags{.create = true});
    CO_ASSERT_OK(f);
    std::vector<std::byte> data(64, std::byte{3});
    CO_ASSERT_ERRNO(co_await f->write(0, data.size(), data), Errno::ok);
    // Second mount (same client) sees everything.
    auto m2 = co_await DfsMount::mount(tb_->client(0), kPoolUuid);
    CO_ASSERT_OK(m2);
    auto st = co_await (*m2)->stat("/persist/f");
    CO_ASSERT_OK(st);
    CO_ASSERT_EQ(st->size, 64u);
  });
}

TEST(DfsDiscard, ReadLeavesSinkUntouched) {
  testkit::DiscardStack stack;
  stack.tb.run([&]() -> CoTask<void> {
    auto f = co_await stack.dfs->open("/sink.dat", OpenFlags{.create = true});
    CO_ASSERT_OK(f);
    const std::uint64_t len = 3 * kMiB + 4096;  // spans several chunks, one partial
    CO_ASSERT_ERRNO(co_await f->write(0, len, {}), Errno::ok);
    auto sink = testkit::sentinel_sink(len);
    auto n = co_await f->read(0, sink);
    CO_ASSERT_OK(n);
    CO_ASSERT_EQ(*n, len);
    CO_ASSERT_TRUE(testkit::sink_untouched(sink));
  });
}

// Randomized namespace property: a sequence of mkdir/create/unlink/rename
// operations matches an in-memory path-set oracle.
class DfsNamespaceProperty : public DfsTest,
                             public ::testing::WithParamInterface<std::uint64_t> {};

TEST_P(DfsNamespaceProperty, MatchesOracle) {
  run([this]() -> CoTask<void> {
    sim::Xoshiro256 rng(GetParam() * 17);
    std::set<std::string> dirs{"/"};
    std::set<std::string> files;
    std::vector<std::string> pool{"alpha", "beta", "gamma", "delta", "eps"};

    auto random_dir = [&]() {
      auto it = dirs.begin();
      std::advance(it, std::ptrdiff_t(rng.uniform(dirs.size())));
      return *it;
    };
    auto join = [](const std::string& d, const std::string& n) {
      return d == "/" ? "/" + n : d + "/" + n;
    };

    for (int step = 0; step < 120; ++step) {
      const auto op = rng.uniform(4);
      const std::string parent = random_dir();
      const std::string name = pool[rng.uniform(pool.size())] + strfmt("%llu",
                               static_cast<unsigned long long>(rng.uniform(4)));
      const std::string path = join(parent, name);
      const bool exists = dirs.contains(path) || files.contains(path);
      if (op == 0) {  // mkdir
        const Errno rc = co_await mount_->mkdir(path);
        CO_ASSERT_ERRNO(rc, exists ? Errno::exists : Errno::ok);
        if (!exists) dirs.insert(path);
      } else if (op == 1) {  // create (excl)
        OpenFlags flags;
        flags.create = true;
        flags.excl = true;
        auto f = co_await mount_->open(path, flags);
        if (exists) {
          CO_ASSERT_TRUE(!f.ok());
        } else {
          CO_ASSERT_OK(f);
          files.insert(path);
        }
      } else if (op == 2) {  // unlink
        const Errno rc = co_await mount_->unlink(path);
        if (files.contains(path)) {
          CO_ASSERT_ERRNO(rc, Errno::ok);
          files.erase(path);
        } else if (dirs.contains(path)) {
          CO_ASSERT_ERRNO(rc, Errno::is_dir);
        } else {
          CO_ASSERT_ERRNO(rc, Errno::no_entry);
        }
      } else {  // rename a random file
        if (files.empty()) continue;
        auto it = files.begin();
        std::advance(it, std::ptrdiff_t(rng.uniform(files.size())));
        const std::string src = *it;
        const std::string dst = join(random_dir(), "renamed" + strfmt("%d", step));
        if (dirs.contains(dst)) continue;
        const Errno rc = co_await mount_->rename(src, dst);
        CO_ASSERT_ERRNO(rc, Errno::ok);
        files.erase(src);
        files.insert(dst);
      }
    }
    // Final check: every tracked path stats correctly; readdir of every dir
    // agrees with the oracle's children.
    for (const auto& f : files) {
      auto st = co_await mount_->stat(f);
      CO_ASSERT_OK(st);
      CO_ASSERT_TRUE(st->type == FileType::regular);
    }
    for (const auto& d : dirs) {
      auto names = co_await mount_->readdir(d);
      CO_ASSERT_OK(names);
      std::set<std::string> expect;
      for (const auto& p : dirs) {
        if (p != "/" && p.substr(0, p.find_last_of('/') + 1) ==
                            (d == "/" ? d : d + "/") &&
            p.find('/', d.size() + (d == "/" ? 0 : 1)) == std::string::npos) {
          expect.insert(p.substr(p.find_last_of('/') + 1));
        }
      }
      for (const auto& p : files) {
        const std::string dir_part = p.substr(0, p.find_last_of('/'));
        if ((dir_part.empty() ? "/" : dir_part) == d) {
          expect.insert(p.substr(p.find_last_of('/') + 1));
        }
      }
      std::set<std::string> got(names->begin(), names->end());
      CO_ASSERT_TRUE(got == expect);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfsNamespaceProperty, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace daosim::dfs
