// Ablation A2 — DFuse cost model: per-request kernel-crossing cost and the
// FUSE max-request size, POSIX backend, file-per-process at 8 client nodes.
#include "figure_common.hpp"

int main() {
  using namespace daosim;
  bench::CellSpec spec{bench::nextgenio_cluster(8)};
  spec.ior.api = ior::Api::posix;
  spec.ior.transfer_size = 8 * kMiB;
  spec.ior.block_size = 32 * kMiB;
  spec.ior.oclass = std::uint8_t(client::ObjClass::SX);

  std::printf("\n# A2 DFuse cost ablation — POSIX backend, 8 client nodes, 16 ppn\n");
  std::printf("%-12s %-14s %12s %12s\n", "op_cost_us", "max_request", "write_GiB/s",
              "read_GiB/s");
  for (const sim::Time op_cost : {sim::Time(0), 35 * sim::kUs, 100 * sim::kUs}) {
    for (const std::uint64_t max_req : {256 * kKiB, 1 * kMiB, 4 * kMiB}) {
      spec.dfuse.op_cost = op_cost;
      spec.dfuse.max_request_bytes = max_req;
      const bench::Cell c = bench::run_cell(spec);
      std::printf("%-12llu %-14s %12.2f %12.2f\n",
                  static_cast<unsigned long long>(op_cost / sim::kUs), format_bytes(max_req).c_str(),
                  c.write_gibs, c.read_gibs);
    }
  }
  std::printf("\n");
  return 0;
}
