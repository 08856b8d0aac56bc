// Micro-benchmarks (google-benchmark): the hot data structures under the
// stack — B+tree, placement, VOS extent resolution, IOR's data pattern — and
// the DES kernel.
#include <benchmark/benchmark.h>

#include <map>

#include "client/object_class.hpp"
#include "client/placement.hpp"
#include "ior/ior.hpp"
#include "sim/bandwidth.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/sync.hpp"
#include "vos/btree.hpp"
#include "vos/value_store.hpp"

namespace {

using namespace daosim;

void BM_BTreeInsert(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  sim::Xoshiro256 rng(1);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng();
  for (auto _ : state) {
    vos::BPlusTree<std::uint64_t, std::uint64_t> t;
    for (auto k : keys) t.insert_or_assign(k, k);
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * std::int64_t(n));
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_StdMapInsert(benchmark::State& state) {  // baseline comparator
  const auto n = std::size_t(state.range(0));
  sim::Xoshiro256 rng(1);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng();
  for (auto _ : state) {
    std::map<std::uint64_t, std::uint64_t> t;
    for (auto k : keys) t.insert_or_assign(k, k);
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * std::int64_t(n));
}
BENCHMARK(BM_StdMapInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BTreeFind(benchmark::State& state) {
  sim::Xoshiro256 rng(2);
  vos::BPlusTree<std::uint64_t, std::uint64_t> t;
  std::vector<std::uint64_t> keys(100000);
  for (auto& k : keys) {
    k = rng();
    t.insert_or_assign(k, k);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.find(keys[i++ % keys.size()]));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_BTreeFind);

void BM_BTreeEraseInsertChurn(benchmark::State& state) {
  sim::Xoshiro256 rng(3);
  vos::BPlusTree<std::uint64_t, std::uint64_t> t;
  for (int i = 0; i < 50000; ++i) t.insert_or_assign(rng() % 100000, 1);
  for (auto _ : state) {
    const std::uint64_t k = rng() % 100000;
    t.erase(k);
    t.insert_or_assign(k + 1, 1);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 2);
}
BENCHMARK(BM_BTreeEraseInsertChurn);

void BM_PlacementLayout(benchmark::State& state) {
  const auto shards = std::uint32_t(state.range(0));
  std::uint64_t seq = 0;
  for (auto _ : state) {
    auto layout = client::compute_layout(client::make_oid(seq++, client::ObjClass::SX),
                                         shards, 128);
    benchmark::DoNotOptimize(layout.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_PlacementLayout)->Arg(1)->Arg(8)->Arg(128);

void BM_JumpConsistentHash(benchmark::State& state) {
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client::jump_consistent_hash(client::mix64(k++), 128));
  }
}
BENCHMARK(BM_JumpConsistentHash);

void BM_ArrayStoreWrite(benchmark::State& state) {
  for (auto _ : state) {
    vos::ArrayStore a;
    for (vos::Epoch e = 1; e <= 64; ++e) {
      a.write((e - 1) * 4096, vos::Slice{nullptr, 0, 4096}, e, vos::PayloadMode::discard);
    }
    benchmark::DoNotOptimize(a.extent_count());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_ArrayStoreWrite);

// Two read shapes: 4 KiB windows over 256 random 1 KiB store-mode extents,
// and the overwrite_prod shape — whole 64 KiB reads of a store-mode extent
// overwritten 4 times (one segment, 4-version stack).
void BM_ArrayStoreReadResolve(benchmark::State& state, bool overwritten) {
  vos::ArrayStore a;
  sim::Xoshiro256 rng(4);
  std::vector<std::byte> out(overwritten ? 64 * 1024 : 4096);
  if (overwritten) {
    std::vector<std::byte> data(out.size(), std::byte{0x5A});
    for (vos::Epoch e = 1; e <= 4; ++e) {
      a.write(0, vos::copy_slice(data), e, vos::PayloadMode::store);
    }
  } else {
    std::vector<std::byte> data(1024);
    for (vos::Epoch e = 1; e <= 256; ++e) {
      a.write(rng.uniform(64 * 1024), vos::copy_slice(data), e, vos::PayloadMode::store);
    }
  }
  for (auto _ : state) {
    const std::uint64_t at = overwritten ? 0 : rng.uniform(60 * 1024);
    benchmark::DoNotOptimize(a.read(at, out, overwritten ? vos::kEpochMax : 200));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
  state.SetBytesProcessed(std::int64_t(state.iterations()) * std::int64_t(out.size()));
}
BENCHMARK_CAPTURE(BM_ArrayStoreReadResolve, random_1k_extents, false);
BENCHMARK_CAPTURE(BM_ArrayStoreReadResolve, overwrite_64k_4deep, true);

// The overwrite_prod VOS shape with aggregation: one pass rewrites a 1 MiB
// akey in 16 store-mode 64 KiB transfers, splitting the flattened extent, and
// aggregate() coalesces the pass back into one extent. Items are transfers.
void BM_ArrayStoreOverwriteAggregate(benchmark::State& state) {
  constexpr std::uint64_t kXfer = 64 * 1024;
  vos::ArrayStore a;
  std::vector<std::byte> data(kXfer, std::byte{0x5A});
  vos::Epoch e = 0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      a.write(i * kXfer, vos::copy_slice(data), ++e, vos::PayloadMode::store);
    }
    benchmark::DoNotOptimize(a.aggregate(e));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 16);
  state.SetBytesProcessed(std::int64_t(state.iterations()) * std::int64_t(16 * kXfer));
}
BENCHMARK(BM_ArrayStoreOverwriteAggregate);

// IOR's data pattern over one 64 KiB transfer buffer (the hard_64k and
// overwrite_prod transfer size): stamping on write, verifying on read.
void BM_FillPattern(benchmark::State& state) {
  std::vector<std::byte> buf(64 * 1024);
  std::uint64_t off = 0;
  for (auto _ : state) {
    ior::fill_pattern(buf, off, 7);
    benchmark::DoNotOptimize(buf.data());
    off += buf.size();
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
  state.SetBytesProcessed(std::int64_t(state.iterations()) * std::int64_t(buf.size()));
}
BENCHMARK(BM_FillPattern);

void BM_CheckPattern(benchmark::State& state) {
  std::vector<std::byte> buf(64 * 1024);
  ior::fill_pattern(buf, 0, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ior::check_pattern(buf, 0, 7));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
  state.SetBytesProcessed(std::int64_t(state.iterations()) * std::int64_t(buf.size()));
}
BENCHMARK(BM_CheckPattern);

void BM_SchedulerEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler s;
    for (int i = 0; i < 1000; ++i) {
      s.schedule_callback(sim::Time(i), [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.events_processed());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_SchedulerEventThroughput);

// The client RPC deadline pattern (DaosClient::call_with_deadline): N
// requests in flight, each waiting on its reply Event with a 5 s deadline
// that the reply, a few microseconds later, cancels.
void BM_SchedulerDeadlineTimers(benchmark::State& state) {
  const int inflight = int(state.range(0));
  constexpr int kRequests = 64;  // issued back to back by each in-flight slot
  for (auto _ : state) {
    sim::Scheduler s;
    for (int i = 0; i < inflight; ++i) {
      s.spawn([&s, i]() -> sim::CoTask<void> {
        for (int r = 0; r < kRequests; ++r) {
          sim::Event reply(s);
          const sim::Time rtt = 2 * sim::kUs + sim::Time((i * 7919 + r * 104729) % 100'000);
          s.schedule_callback(s.now() + rtt, [&reply] { reply.set(); });
          const bool replied = co_await reply.wait_for(5 * sim::kSec);
          benchmark::DoNotOptimize(replied);
        }
      });
    }
    s.run();
    benchmark::DoNotOptimize(s.events_processed());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * inflight * kRequests);
}
BENCHMARK(BM_SchedulerDeadlineTimers)->Arg(64)->Arg(512);

void BM_SharedBandwidthFairShare(benchmark::State& state) {
  const int flows = int(state.range(0));
  for (auto _ : state) {
    sim::Scheduler s;
    sim::SharedBandwidth bw(s, 1e9);
    for (int i = 0; i < flows; ++i) {
      s.spawn([&bw]() -> sim::CoTask<void> { co_await bw.transfer(1'000'000); });
    }
    s.run();
    benchmark::DoNotOptimize(bw.bytes_served());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * flows);
}
BENCHMARK(BM_SharedBandwidthFairShare)->Arg(4)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
