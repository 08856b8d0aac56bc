// Ablation A3 — DFS chunk size: how the array chunking granularity trades
// per-RPC overhead against striping parallelism (DFS backend, 8 nodes).
#include "figure_common.hpp"

int main() {
  using namespace daosim;
  bench::CellSpec spec{bench::nextgenio_cluster(8)};
  spec.ior.api = ior::Api::dfs;
  spec.ior.transfer_size = 8 * kMiB;
  spec.ior.block_size = 32 * kMiB;
  spec.ior.oclass = std::uint8_t(client::ObjClass::SX);

  std::printf("\n# A3 DFS chunk-size ablation — DFS backend, 8 client nodes, 16 ppn\n");
  std::printf("%-12s %12s %12s\n", "chunk", "write_GiB/s", "read_GiB/s");
  for (const std::uint64_t chunk : {256 * kKiB, 512 * kKiB, 1 * kMiB, 2 * kMiB, 4 * kMiB}) {
    spec.dfs_chunk = chunk;
    const bench::Cell c = bench::run_cell(spec);
    std::printf("%-12s %12.2f %12.2f\n", format_bytes(chunk).c_str(), c.write_gibs, c.read_gibs);
  }
  std::printf("\n");
  return 0;
}
