// Ablation — transfer-size sweep for the vectorized I/O path.
//
// Small-object regime: DFS chunk 8 KiB and object class S1, so every
// transfer splits into transfer/8KiB chunk pieces that all live on the same
// target and are eligible for coalescing into one multi-extent RPC. At this
// chunk size the per-RPC server CPU (9 us) exceeds the per-chunk media time
// (~4.4 us at 1.8 GB/s), so the unbatched path is CPU-bound at the target
// xstream while the batched path (2 us marginal CPU per extent) stays
// media-bound — the regime where vectored I/O pays. Series:
//   batch16      max_batch_extents=16, blocking transfers (eq_depth 1)
//   batch1       max_batch_extents=1 — the legacy one-RPC-per-extent path
//   batch16-eq8  batching plus 8 transfers in flight per rank (EventQueue)
// Both IOR modes run: easy (file-per-process) and hard (shared file). A
// 256 KiB transfer is 32 extents, so batch16 sends 2 RPCs where batch1
// sends 32.
//
//   ablation_xfersize [--smoke]   # --smoke: 2 client nodes, 2 sizes (CI)
#include "figure_common.hpp"

int main(int argc, char** argv) {
  using namespace daosim;
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const std::uint32_t nodes = smoke ? 2 : 16;
  const std::uint64_t block = smoke ? 8 * kMiB : 32 * kMiB;
  const std::uint64_t chunk = 8 * kKiB;
  const std::vector<std::uint64_t> sizes =
      smoke ? std::vector<std::uint64_t>{256 * kKiB, 8 * kMiB}
            : std::vector<std::uint64_t>{256 * kKiB, 1 * kMiB, 4 * kMiB, 8 * kMiB};

  struct Variant {
    const char* name;
    std::uint32_t max_batch;
    std::uint32_t eq_depth;
  };
  const Variant variants[] = {{"batch16", 16, 1}, {"batch1", 1, 1}, {"batch16-eq8", 16, 8}};

  std::vector<bench::JsonRow> rows;
  // Headline numbers for the analysis: hard-mode write GiB/s per (series, size).
  std::map<std::string, std::map<std::uint64_t, double>> hard_write;

  for (const Variant& v : variants) {
    bench::CellSpec spec{bench::nextgenio_cluster(nodes)};
    spec.dfs_chunk = chunk;
    spec.cluster.client.max_batch_extents = v.max_batch;
    spec.ior.api = ior::Api::dfs;
    spec.ior.block_size = block;
    spec.ior.oclass = std::uint8_t(client::ObjClass::S1);
    spec.ior.eq_depth = v.eq_depth;
    for (const bool fpp : {true, false}) {
      const char* mode = fpp ? "easy" : "hard";
      for (const std::uint64_t xfer : sizes) {
        spec.ior.file_per_process = fpp;
        spec.ior.transfer_size = xfer;
        const bench::Cell c = bench::run_cell(spec);
        std::fprintf(stderr, "  %-4s %-12s t=%-8s write %8.2f GiB/s  read %8.2f GiB/s\n", mode,
                     v.name, format_bytes(xfer).c_str(), c.write_gibs, c.read_gibs);
        if (!fpp) hard_write[v.name][xfer] = c.write_gibs;
        rows.push_back(bench::json_row(double(xfer) / double(kKiB),
                                       std::string(mode) + "/" + v.name, c));
      }
    }
  }

  std::printf("\n# Ablation — transfer size vs batching (DFS, chunk %s, S1, %u nodes)\n",
              format_bytes(chunk).c_str(), nodes);
  std::printf("%-10s %-14s %12s %12s\n", "mode", "series", "xfer", "write GiB/s");
  for (const auto& row : rows) {
    std::printf("%-10s %14s %10.0fK %12.2f\n",
                row.series.substr(0, row.series.find('/')).c_str(),
                row.series.substr(row.series.find('/') + 1).c_str(), row.x, row.write_gibs);
  }
  const std::uint64_t small = sizes.front(), large = sizes.back();
  const double gain =
      100.0 * (hard_write["batch16"][small] / hard_write["batch1"][small] - 1.0);
  const double large_delta =
      100.0 * (hard_write["batch16"][large] / hard_write["batch1"][large] - 1.0);
  std::printf("\nhard-mode write, batch16 vs batch1: %+.1f%% at %s, %+.1f%% at %s\n", gain,
              format_bytes(small).c_str(), large_delta, format_bytes(large).c_str());

  bench::write_bench_json("ablation_xfersize", rows);
  return 0;
}
