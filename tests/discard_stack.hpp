// The discard-mode sink contract, shared by the per-layer tests: in
// PayloadMode::discard no read layer writes the caller's buffer, which is
// what lets IOR allocate its read sink without initialising it (see
// docs/io_path.md §6, "Payloads"). Each layer's test fills a
// sink with kSentinel, reads a written range through the layer and checks
// that the count is the full length and every byte is still kSentinel.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "co_assert.hpp"
#include "cluster/testbed.hpp"
#include "dfs/dfs.hpp"
#include "posix/dfuse.hpp"

namespace daosim::testkit {

inline constexpr std::byte kSentinel{0xA5};

inline std::vector<std::byte> sentinel_sink(std::size_t n) {
  return std::vector<std::byte>(n, kSentinel);
}

inline bool sink_untouched(std::span<const std::byte> sink) {
  return std::all_of(sink.begin(), sink.end(), [](std::byte b) { return b == kSentinel; });
}

inline cluster::ClusterConfig discard_cluster() {
  cluster::ClusterConfig cfg;
  cfg.server_nodes = 2;
  cfg.engines_per_server = 2;
  cfg.targets_per_engine = 4;
  cfg.client_nodes = 1;
  cfg.payload = vos::PayloadMode::discard;
  return cfg;
}

/// A started discard-mode testbed with a container, a DFS mount and a DFuse
/// mount over it on client node 0: the stack the POSIX, HDF5 and MPI-IO
/// read paths sit on in the paper's figures.
struct DiscardStack {
  DiscardStack() : tb(discard_cluster()) {
    tb.start();
    tb.run([this]() -> sim::CoTask<void> {
      CO_ASSERT_OK(co_await tb.client(0).cont_create(cluster::kPoolUuid, {}));
      auto m = co_await dfs::DfsMount::mount(tb.client(0), cluster::kPoolUuid);
      CO_ASSERT_OK(m);
      dfs = std::move(*m);
      dfuse = std::make_unique<posix::DfuseMount>(tb.sched(), *dfs, posix::DfuseConfig{});
    });
  }
  ~DiscardStack() {
    dfuse.reset();
    dfs.reset();
    tb.stop();
  }
  DiscardStack(const DiscardStack&) = delete;
  DiscardStack& operator=(const DiscardStack&) = delete;

  cluster::Testbed tb;
  std::unique_ptr<dfs::DfsMount> dfs;
  std::unique_ptr<posix::DfuseMount> dfuse;
};

}  // namespace daosim::testkit
