// Micro-benchmarks of the simulated stack itself: wall-clock cost of
// simulating Raft commits and end-to-end object I/O, in discard mode and with
// stored payloads (how fast the simulator runs, i.e. events per second of
// host time).
#include <benchmark/benchmark.h>

#include "common/units.hpp"
#include "cluster/testbed.hpp"
#include "raft/raft.hpp"

namespace {

using namespace daosim;
using sim::CoTask;

void BM_RaftCommitThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Scheduler sched;
    net::Fabric fabric(sched);
    std::vector<net::NodeId> ids;
    for (int i = 0; i < 3; ++i) ids.push_back(fabric.add_node());
    net::RpcDomain dom(fabric);
    struct NullSm final : raft::StateMachine {
      std::string apply(const std::string&) override { return ""; }
      std::string snapshot() const override { return ""; }
      void restore(const std::string&) override {}
    };
    std::vector<std::unique_ptr<net::RpcEndpoint>> eps;
    std::vector<std::unique_ptr<NullSm>> sms;
    std::vector<std::unique_ptr<raft::RaftNode>> nodes;
    for (int i = 0; i < 3; ++i) {
      eps.push_back(std::make_unique<net::RpcEndpoint>(dom, ids[std::size_t(i)]));
      sms.push_back(std::make_unique<NullSm>());
      nodes.push_back(std::make_unique<raft::RaftNode>(*eps.back(), ids, *sms.back(),
                                                       raft::RaftConfig{}, 42 + i));
    }
    for (auto& n : nodes) n->start();
    raft::RaftNode* leader = nullptr;
    while (leader == nullptr) {
      sched.run_until(sched.now() + 50 * sim::kMs);
      for (auto& n : nodes) {
        if (n->is_leader()) leader = n.get();
      }
    }
    state.ResumeTiming();

    int done = 0;
    for (int i = 0; i < 100; ++i) {
      sched.spawn([leader, &done]() -> CoTask<void> {
        (void)co_await leader->submit("cmd");
        ++done;
      });
    }
    while (done < 100) sched.run_until(sched.now() + 50 * sim::kMs);

    state.PauseTiming();
    for (auto& n : nodes) n->stop();
    sched.run();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 100);
}
BENCHMARK(BM_RaftCommitThroughput)->Unit(benchmark::kMillisecond);

void BM_SimulatedArrayWrite(benchmark::State& state) {
  // Host cost of simulating one 8 MiB SX array write end-to-end.
  cluster::ClusterConfig cfg;
  cfg.server_nodes = 8;
  cfg.engines_per_server = 2;
  cfg.targets_per_engine = 8;
  cfg.payload = vos::PayloadMode::discard;
  cluster::Testbed tb(cfg);
  tb.start();
  bool created = false;
  std::uint64_t seq = 1000;
  for (auto _ : state) {
    tb.run([&]() -> CoTask<void> {
      if (!created) {
        auto cr = co_await tb.client(0).cont_create(cluster::kPoolUuid, {});
        DAOSIM_REQUIRE(cr.ok(), "cont_create: %s", errno_name(cr.error()));
        created = true;
      }
      client::ArrayObject arr(tb.client(0), cluster::kPoolUuid,
                              client::make_oid(seq++, client::ObjClass::SX), 1 * kMiB);
      (void)co_await arr.write(0, 8 * kMiB, {});
    });
  }
  tb.stop();
  state.SetBytesProcessed(std::int64_t(state.iterations()) * std::int64_t(8 * kMiB));
}
BENCHMARK(BM_SimulatedArrayWrite)->Unit(benchmark::kMicrosecond);

void BM_StoreModeOverwriteRead(benchmark::State& state) {
  // Host cost of the overwrite_prod I/O shape with stored payloads: one
  // iteration overwrites a 1 MiB SX array in 64 KiB transfers, then reads it
  // back in 64 KiB transfers, with background aggregation on. Bytes/s counts
  // the bytes written plus the bytes read.
  constexpr std::uint64_t kXfer = 64 * kKiB;
  constexpr std::uint64_t kArray = 1 * kMiB;
  cluster::ClusterConfig cfg;
  cfg.server_nodes = 2;
  cfg.engines_per_server = 2;
  cfg.targets_per_engine = 4;
  cfg.payload = vos::PayloadMode::store;
  cfg.agg.enabled = true;
  cluster::Testbed tb(cfg);
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto cr = co_await tb.client(0).cont_create(cluster::kPoolUuid, {});
    DAOSIM_REQUIRE(cr.ok(), "cont_create: %s", errno_name(cr.error()));
  });
  client::ArrayObject arr(tb.client(0), cluster::kPoolUuid,
                          client::make_oid(7, client::ObjClass::SX), 1 * kMiB);
  std::vector<std::byte> buf(kXfer);
  std::uint8_t pass = 0;
  for (auto _ : state) {
    std::fill(buf.begin(), buf.end(), std::byte(++pass));
    tb.run([&]() -> CoTask<void> {
      for (std::uint64_t off = 0; off < kArray; off += kXfer) {
        DAOSIM_REQUIRE(co_await arr.write(off, kXfer, buf) == Errno::ok, "write failed");
      }
      for (std::uint64_t off = 0; off < kArray; off += kXfer) {
        auto filled = co_await arr.read(off, buf);
        DAOSIM_REQUIRE(filled.ok() && *filled == kXfer, "short read");
      }
    });
    DAOSIM_REQUIRE(buf.front() == std::byte(pass), "read back the wrong pass");
  }
  tb.stop();
  state.SetBytesProcessed(std::int64_t(state.iterations()) * std::int64_t(2 * kArray));
}
BENCHMARK(BM_StoreModeOverwriteRead)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
