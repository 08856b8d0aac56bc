// Ablation A4 — MPI-IO on the shared file: independent vs two-phase
// collective buffering across transfer sizes (collective pays a shuffle but
// wins once independent transfers become small).
#include "figure_common.hpp"

int main() {
  using namespace daosim;
  bench::CellSpec spec{bench::nextgenio_cluster(8)};
  spec.ior.api = ior::Api::mpiio;
  spec.ior.file_per_process = false;
  spec.ior.block_size = 8 * kMiB;
  spec.ior.oclass = std::uint8_t(client::ObjClass::SX);

  std::printf("\n# A4 MPI-IO collective ablation — shared file, 8 client nodes, 16 ppn\n");
  std::printf("%-12s %-12s %12s %12s\n", "transfer", "mode", "write_GiB/s", "read_GiB/s");
  for (const std::uint64_t transfer : {64 * kKiB, 256 * kKiB, 1 * kMiB, 8 * kMiB}) {
    for (const bool collective : {false, true}) {
      spec.ior.transfer_size = transfer;
      spec.ior.collective = collective;
      const bench::Cell c = bench::run_cell(spec);
      std::printf("%-12s %-12s %12.2f %12.2f\n", format_bytes(transfer).c_str(),
                  collective ? "collective" : "independent", c.write_gibs, c.read_gibs);
    }
  }
  std::printf("\n");
  return 0;
}
