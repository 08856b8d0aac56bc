// Shared cell runner for the figure and ablation benchmarks, plus the
// read/write bandwidth, latency and critical-path tables the paper's figures
// plot.
//
// A cell is one IOR job at one sweep point. run_cell gives every cell its own
// fresh cluster::Testbed: it builds and starts the testbed, runs the job and
// tears the testbed down before returning. Nothing carries from one cell to
// the next (per-target stream contexts, VOS trees, the container OID
// allocator, IorRunner's job sequence, HLC clocks and RNG positions), so a
// cell's numbers do not depend on which cells ran before it or in what order.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "ior/ior.hpp"

namespace daosim::bench {

struct Series {
  std::string name;
  ior::IorConfig cfg;
};

struct SweepOptions {
  std::vector<std::uint32_t> node_counts{1, 2, 4, 8, 16};
  std::uint32_t ppn = 16;
  std::uint64_t dfs_chunk = 1 * kMiB;
  posix::DfuseConfig dfuse{};
  std::uint64_t seed = 42;
  /// Causal-trace sampling for the critical-path tables: 1 in N client ops
  /// (0 = no tracing). Sampling is seeded and zero-perturbation, so the
  /// bandwidth numbers are bit-identical either way (docs/tracing.md).
  std::uint64_t trace_sample = 16;
};

/// The paper's benchmark deployment: 8 server nodes, 2 engines each. Op
/// tracing is off; a cell that wants critical-path profiles sets
/// client.trace_sample (run_sweep does, from SweepOptions).
inline cluster::ClusterConfig nextgenio_cluster(std::uint32_t client_nodes,
                                                std::uint64_t seed = 42) {
  cluster::ClusterConfig cfg;
  cfg.server_nodes = 8;
  cfg.engines_per_server = 2;
  cfg.targets_per_engine = 8;
  cfg.client_nodes = client_nodes;
  cfg.payload = vos::PayloadMode::discard;  // timing-only at benchmark scale
  cfg.seed = seed;
  cfg.client.trace_sample = 0;
  return cfg;
}

/// Everything one cell needs: the deployment, the IorRunner knobs and the job.
struct CellSpec {
  cluster::ClusterConfig cluster;
  std::uint32_t ppn = 16;
  std::uint64_t dfs_chunk = 1 * kMiB;
  posix::DfuseConfig dfuse{};
  ior::IorConfig ior{};
};

struct Cell {
  double read_gibs = 0;
  double write_gibs = 0;
  /// Per-phase client RPC latency (µs) alongside the bandwidth the figures
  /// plot — derived from the telemetry histograms, so collecting it cannot
  /// change the bandwidth numbers.
  double read_p50_us = 0, read_p99_us = 0;
  double write_p50_us = 0, write_p99_us = 0;
  /// Simulator cost of the job: scheduler events processed and host
  /// wall-clock. The perf-trajectory JSON tracks both so a change that
  /// trades simulated bandwidth for simulation slowness is visible.
  std::uint64_t events = 0;
  double wall_s = 0;
  /// Engine-side update RPCs the job caused, counting every replica; the
  /// ratio between two cells' counts is their write amplification.
  std::uint64_t updates = 0;
  /// Critical-path stage attribution of the sampled data ops (arr_write /
  /// arr_read trees). Empty (count 0) when the cell's trace_sample is 0.
  telemetry::TraceLog::OpProfile write_path{}, read_path{};
};

/// Runs one cell on a fresh testbed (see the header comment).
inline Cell run_cell(const CellSpec& spec) {
  // Keeps only the sampled trees, so memory stays bounded by the sampling
  // rate. Attaching it never perturbs timing (span ids are allocated whether
  // or not a sink listens). Declared first so it outlives the testbed.
  telemetry::TraceLog trace;
  trace.set_keep_unsampled(false);
  const bool traced = spec.cluster.client.trace_sample != 0;
  cluster::Testbed tb(spec.cluster);
  tb.start();
  if (traced) tb.attach_trace(&trace);
  ior::IorRunner runner(tb, spec.ppn, spec.dfs_chunk, spec.dfuse);
  const std::uint64_t events0 = tb.sched().events_processed();
  const std::uint64_t updates0 = tb.total_updates();
  const auto wall0 = std::chrono::steady_clock::now();
  const ior::IorResult r = runner.run(spec.ior);
  Cell cell{r.read.gib_per_sec(), r.write.gib_per_sec()};
  cell.read_p50_us = r.read_rpc_latency.percentile_ns(50) / 1e3;
  cell.read_p99_us = r.read_rpc_latency.percentile_ns(99) / 1e3;
  cell.write_p50_us = r.write_rpc_latency.percentile_ns(50) / 1e3;
  cell.write_p99_us = r.write_rpc_latency.percentile_ns(99) / 1e3;
  cell.events = tb.sched().events_processed() - events0;
  cell.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
  cell.updates = tb.total_updates() - updates0;
  if (traced) {
    const auto prof = trace.profile_ops();
    if (const auto it = prof.find("arr_write"); it != prof.end()) cell.write_path = it->second;
    if (const auto it = prof.find("arr_read"); it != prof.end()) cell.read_path = it->second;
  }
  return cell;
}

/// One row of the machine-readable BENCH_*.json perf trajectory.
struct JsonRow {
  double x = 0;  // sweep coordinate (client nodes, transfer KiB, ...)
  std::string series;
  double read_gibs = 0, write_gibs = 0;
  double read_p99_us = 0, write_p99_us = 0;
  std::uint64_t events = 0;
  double wall_s = 0;
};

/// The BENCH row for a cell at sweep coordinate `x`.
inline JsonRow json_row(double x, std::string series, const Cell& c) {
  return JsonRow{x, std::move(series), c.read_gibs, c.write_gibs, c.read_p99_us,
                 c.write_p99_us, c.events, c.wall_s};
}

/// Writes BENCH_<bench>.json in the current directory: a flat row list so CI
/// and the trajectory tooling parse it with nothing but the json module.
inline void write_bench_json(const std::string& bench, const std::vector<JsonRow>& rows) {
  const std::string path = "BENCH_" + bench + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n", bench.c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    std::fprintf(f,
                 "    {\"x\": %g, \"series\": \"%s\", \"read_gibs\": %.4f, "
                 "\"write_gibs\": %.4f, \"read_p99_us\": %.1f, \"write_p99_us\": %.1f, "
                 "\"events\": %llu, \"wall_s\": %.3f}%s\n",
                 r.x, r.series.c_str(), r.read_gibs, r.write_gibs, r.read_p99_us,
                 r.write_p99_us, static_cast<unsigned long long>(r.events), r.wall_s,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (%zu rows)\n", path.c_str(), rows.size());
}

/// Runs one cell per (node count, series); returns
/// results[node_count_index][series_index].
inline std::vector<std::vector<Cell>> run_sweep(const std::vector<Series>& series,
                                                const SweepOptions& opt) {
  std::vector<std::vector<Cell>> results;
  for (const std::uint32_t nodes : opt.node_counts) {
    CellSpec spec{nextgenio_cluster(nodes, opt.seed), opt.ppn, opt.dfs_chunk, opt.dfuse};
    spec.cluster.client.trace_sample = opt.trace_sample;
    spec.cluster.client.trace_seed = opt.seed;
    std::vector<Cell>& row = results.emplace_back();
    for (const Series& s : series) {
      spec.ior = s.cfg;
      const Cell& c = row.emplace_back(run_cell(spec));
      std::fprintf(stderr,
                   "  [%2u nodes] %-10s write %8.2f GiB/s (p99 %7.0f us)"
                   "  read %8.2f GiB/s (p99 %7.0f us)\n",
                   nodes, s.name.c_str(), c.write_gibs, c.write_p99_us, c.read_gibs,
                   c.read_p99_us);
    }
  }
  return results;
}

/// One line per node count, one column per series, each cell formatted by
/// `fmt`: the layout of the bandwidth and latency tables.
template <class Fmt>
void print_grid(const std::string& heading, int width, const std::vector<Series>& series,
                const SweepOptions& opt, const std::vector<std::vector<Cell>>& results,
                Fmt fmt) {
  std::printf("\n# %s\n%-12s", heading.c_str(), "client_nodes");
  for (const auto& s : series) std::printf(" %*s", width, s.name.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < opt.node_counts.size(); ++i) {
    std::printf("%-12u", opt.node_counts[i]);
    for (const Cell& c : results[i]) std::printf(" %*s", width, fmt(c).c_str());
    std::printf("\n");
  }
}

/// Per-phase critical-path table: one row per (node count, series), mean us
/// per sampled data op attributed across the six pipeline stages. Printed in
/// long format next to the p50/p99 tables (six numbers don't fit a cell).
inline void print_critical_path_table(const char* title, bool read,
                                      const std::vector<Series>& series,
                                      const SweepOptions& opt,
                                      const std::vector<std::vector<Cell>>& results) {
  using telemetry::TraceLog;
  std::printf("\n# %s — %s critical path (1/%llu sampled, mean us/op by stage)\n", title,
              read ? "read" : "write", static_cast<unsigned long long>(opt.trace_sample));
  std::printf("%-12s %-10s %8s", "client_nodes", "series", "ops");
  for (std::size_t st = 0; st < TraceLog::kStages; ++st) {
    std::printf(" %12s", TraceLog::stage_name(st));
  }
  std::printf(" %12s\n", "total");
  for (std::size_t i = 0; i < opt.node_counts.size(); ++i) {
    for (std::size_t j = 0; j < series.size(); ++j) {
      const TraceLog::OpProfile& p =
          read ? results[i][j].read_path : results[i][j].write_path;
      if (p.count == 0) continue;
      std::printf("%-12u %-10s %8llu", opt.node_counts[i], series[j].name.c_str(),
                  static_cast<unsigned long long>(p.count));
      for (std::size_t st = 0; st < TraceLog::kStages; ++st) {
        std::printf(" %12.1f", double(p.stages.ns[st]) / double(p.count) / 1e3);
      }
      std::printf(" %12.1f\n", double(p.stages.total_ns()) / double(p.count) / 1e3);
    }
  }
}

/// Runs the sweep and prints the bandwidth tables, then the per-phase RPC
/// latency ("p50/p99" µs) and critical-path tables; optionally writes
/// BENCH_<json_name>.json (x = client nodes).
inline void print_figure(const char* title, const std::vector<Series>& series,
                         const SweepOptions& opt, const char* json_name = nullptr) {
  const auto results = run_sweep(series, opt);
  for (const bool read : {true, false}) {
    print_grid(strfmt("%s — %s bandwidth (GiB/s)", title, read ? "read" : "write"), 12, series,
               opt, results,
               [read](const Cell& c) { return strfmt("%.2f", read ? c.read_gibs : c.write_gibs); });
  }
  for (const bool read : {true, false}) {
    print_grid(strfmt("%s — %s RPC latency p50/p99 (us)", title, read ? "read" : "write"), 16,
               series, opt, results, [read](const Cell& c) {
                 return strfmt("%.0f/%.0f", read ? c.read_p50_us : c.write_p50_us,
                               read ? c.read_p99_us : c.write_p99_us);
               });
  }
  if (opt.trace_sample != 0) {
    for (const bool read : {true, false}) {
      print_critical_path_table(title, read, series, opt, results);
    }
  }
  std::printf("\n");
  if (json_name == nullptr) return;
  std::vector<JsonRow> rows;
  for (std::size_t i = 0; i < opt.node_counts.size(); ++i) {
    for (std::size_t j = 0; j < series.size(); ++j) {
      rows.push_back(json_row(double(opt.node_counts[i]), series[j].name, results[i][j]));
    }
  }
  write_bench_json(json_name, rows);
}

/// The figure-1/2 series: DFS ("DAOS") under S1/S2/SX plus MPI-IO and HDF5
/// over the DFuse mount, as in the paper's legends.
inline std::vector<Series> paper_series(bool file_per_process, std::uint64_t transfer,
                                        std::uint64_t block) {
  auto base = [&](ior::Api api, client::ObjClass oc) {
    ior::IorConfig cfg;
    cfg.api = api;
    cfg.transfer_size = transfer;
    cfg.block_size = block;
    cfg.file_per_process = file_per_process;
    cfg.oclass = std::uint8_t(oc);
    cfg.verify = false;
    return cfg;
  };
  return {
      {"DAOS-S1", base(ior::Api::dfs, client::ObjClass::S1)},
      {"DAOS-S2", base(ior::Api::dfs, client::ObjClass::S2)},
      {"DAOS-SX", base(ior::Api::dfs, client::ObjClass::SX)},
      {"MPIIO", base(ior::Api::mpiio, client::ObjClass::SX)},
      {"HDF5", base(ior::Api::hdf5, client::ObjClass::SX)},
  };
}

}  // namespace daosim::bench
