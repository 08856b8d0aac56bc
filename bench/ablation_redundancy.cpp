// Ablation A5 — the price of self-healing redundancy: RP_2GX (2-way
// replication, one group per target pair) against SX (no redundancy) on the
// native DAOS array API, in both IOR modes, 4..16 client nodes. Every
// replicated byte is shipped to two engines, so writes pay an amplification
// factor near 2x (measured directly from engine-side update RPC counts)
// while reads are served from a single replica and stay close to SX.
#include "figure_common.hpp"

int main() {
  using namespace daosim;
  using client::ObjClass;
  for (const bool fpp : {true, false}) {
    std::printf("\n# A5 redundancy (%s) — DAOS array API, RP_2GX vs SX\n",
                fpp ? "file-per-process" : "shared-file");
    std::printf("%-12s %12s %12s %12s %12s %14s\n", "client_nodes", "SX write", "RP write",
                "SX read", "RP read", "write amp");
    for (const std::uint32_t nodes : {4u, 8u, 16u}) {
      bench::CellSpec spec{bench::nextgenio_cluster(nodes)};
      spec.ior.api = ior::Api::daos_array;
      spec.ior.transfer_size = 4 * kMiB;
      spec.ior.block_size = 16 * kMiB;
      spec.ior.file_per_process = fpp;
      spec.ior.oclass = std::uint8_t(ObjClass::SX);
      const bench::Cell sx = bench::run_cell(spec);
      spec.ior.oclass = std::uint8_t(ObjClass::RP_2GX);
      const bench::Cell rp = bench::run_cell(spec);
      const double amp = sx.updates > 0 ? double(rp.updates) / double(sx.updates) : 0;
      std::printf("%-12u %12.2f %12.2f %12.2f %12.2f %14.2f\n", nodes, sx.write_gibs,
                  rp.write_gibs, sx.read_gibs, rp.read_gibs, amp);
    }
  }
  return 0;
}
