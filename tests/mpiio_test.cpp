// MPI-IO layer tests on MemVfs: collective open, independent vs two-phase
// collective I/O equivalence, interleaved shared-file patterns.
#include <gtest/gtest.h>

#include "co_assert.hpp"
#include "discard_stack.hpp"
#include "ior/ior.hpp"
#include "mpiio/mpiio.hpp"
#include "posix/vfs.hpp"

namespace daosim::mpiio {
namespace {

using sim::CoTask;

struct World {
  explicit World(int nodes, int ppn) : fabric(sched) {
    std::vector<net::NodeId> rank_nodes;
    for (int n = 0; n < nodes; ++n) {
      const auto id = fabric.add_node();
      for (int r = 0; r < ppn; ++r) rank_nodes.push_back(id);
    }
    world = std::make_unique<mpi::MpiWorld>(sched, fabric, rank_nodes);
  }
  sim::Scheduler sched;
  net::Fabric fabric;
  std::unique_ptr<mpi::MpiWorld> world;
  posix::MemVfs vfs;  // shared by all ranks (one "mount")
};

TEST(MpiIo, CollectiveOpenCreatesOnce) {
  World w(2, 2);
  CollectiveFile cf(*w.world);
  w.sched.spawn([&]() -> CoTask<void> {
    std::function<CoTask<void>(mpi::Comm)> body = [&](mpi::Comm c) -> CoTask<void> {
      posix::VfsOpenFlags flags;
      flags.create = true;
      CO_ASSERT_ERRNO(co_await cf.open(c, w.vfs, "/shared", flags), Errno::ok);
      CO_ASSERT_ERRNO(co_await cf.close(c), Errno::ok);
    };
    co_await w.world->run_spmd(std::move(body));
  });
  w.sched.run();
  EXPECT_EQ(w.vfs.file_count(), 2u);  // "/" + the shared file
}

TEST(MpiIo, IndependentWriteReadRoundTrip) {
  World w(2, 2);
  CollectiveFile cf(*w.world);
  const std::uint64_t block = 64 * 1024;
  w.sched.spawn([&]() -> CoTask<void> {
    std::function<CoTask<void>(mpi::Comm)> body = [&](mpi::Comm c) -> CoTask<void> {
      posix::VfsOpenFlags flags;
      flags.create = true;
      CO_ASSERT_ERRNO(co_await cf.open(c, w.vfs, "/f", flags), Errno::ok);
      const std::uint64_t off = std::uint64_t(c.rank()) * block;
      std::vector<std::byte> data(block);
      ior::fill_pattern(data, off, 1);
      auto wres = co_await cf.write_at(c, off, block, data);
      CO_ASSERT_OK(wres);
      co_await c.barrier();
      // Read the neighbour's block.
      const std::uint64_t roff = (std::uint64_t(c.rank() + 1) % 4) * block;
      std::vector<std::byte> out(block);
      auto rres = co_await cf.read_at(c, roff, out);
      CO_ASSERT_OK(rres);
      CO_ASSERT_EQ(ior::check_pattern(out, roff, 1), 0u);
      CO_ASSERT_ERRNO(co_await cf.close(c), Errno::ok);
    };
    co_await w.world->run_spmd(std::move(body));
  });
  w.sched.run();
}

TEST(MpiIo, CollectiveWriteMatchesIndependent) {
  // Same data written collectively reads back identically.
  World w(2, 2);
  CollectiveFile cf(*w.world);
  const std::uint64_t block = 32 * 1024;
  w.sched.spawn([&]() -> CoTask<void> {
    std::function<CoTask<void>(mpi::Comm)> body = [&](mpi::Comm c) -> CoTask<void> {
      posix::VfsOpenFlags flags;
      flags.create = true;
      CO_ASSERT_ERRNO(co_await cf.open(c, w.vfs, "/coll", flags), Errno::ok);
      const std::uint64_t off = std::uint64_t(c.rank()) * block;
      std::vector<std::byte> data(block);
      ior::fill_pattern(data, off, 9);
      auto wres = co_await cf.write_at_all(c, off, block, data);
      CO_ASSERT_OK(wres);
      std::vector<std::byte> out(block);
      auto rres = co_await cf.read_at_all(c, off, out);
      CO_ASSERT_OK(rres);
      CO_ASSERT_EQ(ior::check_pattern(out, off, 9), 0u);
      CO_ASSERT_ERRNO(co_await cf.close(c), Errno::ok);
    };
    co_await w.world->run_spmd(std::move(body));
  });
  w.sched.run();
}

TEST(MpiIo, CollectiveInterleavedStrides) {
  // Fine-grained interleaving: rank r writes every 4th 1 KiB cell. The
  // two-phase aggregator must reassemble the full contiguous image.
  World w(2, 2);
  CollectiveFile cf(*w.world);
  const std::uint64_t cell = 1024;
  const int cells_per_rank = 16;
  w.sched.spawn([&]() -> CoTask<void> {
    std::function<CoTask<void>(mpi::Comm)> body = [&](mpi::Comm c) -> CoTask<void> {
      posix::VfsOpenFlags flags;
      flags.create = true;
      CO_ASSERT_ERRNO(co_await cf.open(c, w.vfs, "/strided", flags), Errno::ok);
      for (int k = 0; k < cells_per_rank; ++k) {
        const std::uint64_t off = (std::uint64_t(k) * 4 + std::uint64_t(c.rank())) * cell;
        std::vector<std::byte> data(cell);
        ior::fill_pattern(data, off, 4);
        auto wres = co_await cf.write_at_all(c, off, cell, data);
        CO_ASSERT_OK(wres);
      }
      co_await c.barrier();
      // Rank 0 verifies the whole file image.
      if (c.rank() == 0) {
        std::vector<std::byte> out(cell * 4 * std::uint64_t(cells_per_rank));
        auto rres = co_await cf.read_at(c, 0, out);
        CO_ASSERT_OK(rres);
        CO_ASSERT_EQ(ior::check_pattern(out, 0, 4), 0u);
      }
      CO_ASSERT_ERRNO(co_await cf.close(c), Errno::ok);
    };
    co_await w.world->run_spmd(std::move(body));
  });
  w.sched.run();
}

TEST(MpiIo, SizeReflectsWrites) {
  World w(1, 2);
  CollectiveFile cf(*w.world);
  w.sched.spawn([&]() -> CoTask<void> {
    std::function<CoTask<void>(mpi::Comm)> body = [&](mpi::Comm c) -> CoTask<void> {
      posix::VfsOpenFlags flags;
      flags.create = true;
      CO_ASSERT_ERRNO(co_await cf.open(c, w.vfs, "/sz", flags), Errno::ok);
      if (c.rank() == 1) {
        std::vector<std::byte> data(100, std::byte{1});
        auto wres = co_await cf.write_at(c, 900, 100, data);
        CO_ASSERT_OK(wres);
      }
      co_await c.barrier();
      auto sz = co_await cf.size(c);
      CO_ASSERT_OK(sz);
      CO_ASSERT_EQ(*sz, 1000u);
      CO_ASSERT_ERRNO(co_await cf.close(c), Errno::ok);
    };
    co_await w.world->run_spmd(std::move(body));
  });
  w.sched.run();
}

TEST(MpiIoDiscard, ReadAtLeavesSinkUntouched) {
  testkit::DiscardStack stack;
  const net::NodeId node = stack.tb.client(0).endpoint().node();
  mpi::MpiWorld world(stack.tb.sched(), stack.tb.fabric(), {node, node});
  CollectiveFile cf(world);
  const std::uint64_t block = 2 * kMiB;
  stack.tb.run([&]() -> CoTask<void> {
    std::function<CoTask<void>(mpi::Comm)> body = [&](mpi::Comm c) -> CoTask<void> {
      posix::VfsOpenFlags flags;
      flags.create = true;
      CO_ASSERT_ERRNO(co_await cf.open(c, *stack.dfuse, "/sink", flags), Errno::ok);
      const std::uint64_t off = std::uint64_t(c.rank()) * block;
      CO_ASSERT_OK(co_await cf.write_at(c, off, block, {}));
      co_await c.barrier();
      auto sink = testkit::sentinel_sink(block);
      auto n = co_await cf.read_at(c, off, sink);
      CO_ASSERT_OK(n);
      CO_ASSERT_EQ(*n, block);
      CO_ASSERT_TRUE(testkit::sink_untouched(sink));
      // The documented exception: two-phase read_at_all copies the
      // aggregator's zero-initialised buffer into every sink.
      auto coll = testkit::sentinel_sink(block);
      auto m = co_await cf.read_at_all(c, off, coll);
      CO_ASSERT_OK(m);
      CO_ASSERT_EQ(*m, block);
      CO_ASSERT_TRUE(std::all_of(coll.begin(), coll.end(),
                                 [](std::byte b) { return b == std::byte{0}; }));
      CO_ASSERT_ERRNO(co_await cf.close(c), Errno::ok);
    };
    co_await world.run_spmd(std::move(body));
  });
}

}  // namespace
}  // namespace daosim::mpiio
