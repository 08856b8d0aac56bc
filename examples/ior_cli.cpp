// ior_cli: a command-line IOR front-end for the simulated cluster, with the
// familiar flag names. Example:
//   ior_cli -a DFS -t 8m -b 32m -N 8 -n 16 -F -o SX
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "fault/fault.hpp"
#include "ior/ior.hpp"
#include "telemetry/telemetry.hpp"

using namespace daosim;

namespace {

std::uint64_t parse_size(const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || v <= 0) return 0;  // caller treats 0 as a parse error
  std::uint64_t mult = 1;
  if (end != nullptr) {
    switch (*end) {
      case 'k': case 'K': mult = kKiB; break;
      case 'm': case 'M': mult = kMiB; break;
      case 'g': case 'G': mult = kGiB; break;
      default: break;
    }
  }
  return std::uint64_t(v * double(mult));
}

/// Parses a decimal count: digits only, no sign or trailing text, within
/// uint32_t. Returns 0, which every caller rejects, for anything else.
std::uint32_t parse_count(const char* s) {
  std::uint32_t v = 0;
  const char* end = s + std::strlen(s);
  const auto [p, ec] = std::from_chars(s, end, v);
  return ec == std::errc{} && p == end ? v : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: ior_cli [options]\n"
               "  -a API     POSIX | DFS | MPIIO | HDF5 | DAOS   (default DFS)\n"
               "  -t SIZE    transfer size (default 8m)\n"
               "  -b SIZE    block size per rank (default 32m)\n"
               "  -s N       segments (default 1)\n"
               "  -N N       client nodes (default 4)\n"
               "  -n N       ranks per node (default 16)\n"
               "  -F         file-per-process (easy mode; default shared file)\n"
               "  -c         MPI-IO collective buffering\n"
               "  -o CLASS   object class S1|S2|S4|S8|SX|RP_2G1|RP_2G2|RP_2GX (default SX)\n"
               "  -S N       server nodes (default 8)\n"
               "  -V         store payloads and verify data\n"
               "  --eq-depth N      transfers in flight per rank via the client\n"
               "                    event queue (default 1 = blocking; docs/io_path.md)\n"
               "  --max-batch-extents N  extents coalesced per object RPC\n"
               "                    (default 16; 1 = legacy one-RPC-per-extent)\n"
               "  --faults SPEC     fault schedule, e.g. crash@200ms:e3 (docs/faults.md)\n"
               "  --fault-seed N    seed for probabilistic faults (default 1)\n"
               "  --wait-rebuild    after the job, wait for self-healing to converge\n"
               "  --rebuild-inflight N  per-engine rebuild transfer slots (default 4)\n"
               "  --metrics-dump PATH   dump the metric tree after the job (.csv ext\n"
               "                        selects CSV, anything else JSON; docs/telemetry.md)\n"
               "  --trace-out PATH      Chrome trace-event JSON of RPC/transfer/rebuild\n"
               "                        spans (open in Perfetto / chrome://tracing)\n"
               "  --trace-sample N      trace 1 in N client ops (default 1 = all, 0 = off;\n"
               "                        seeded and deterministic; docs/tracing.md)\n"
               "  --critical-path       print per-op critical-path stage attribution\n"
               "                        (implied by --trace-out / --slow-ops)\n"
               "  --slow-ops US         after the job, dump the top-10 sampled ops taking\n"
               "                        at least US microseconds, with stage breakdowns\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ior::IorConfig cfg;
  cfg.api = ior::Api::dfs;
  cfg.file_per_process = false;
  std::uint32_t client_nodes = 4, ppn = 16, servers = 8;
  bool verify = false;
  std::string fault_spec;
  std::uint64_t fault_seed = 1;
  bool wait_rebuild = false;
  std::uint32_t rebuild_inflight = 4;
  std::uint32_t max_batch_extents = client::ClientConfig{}.max_batch_extents;
  std::string metrics_path;
  std::string trace_path;
  std::uint64_t trace_sample = 1;
  bool critical_path = false;
  std::int64_t slow_us = -1;  // < 0: no slow-op dump

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Long flags accept both "--flag value" and "--flag=value".
    std::string inline_val;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        inline_val = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    }
    auto next = [&]() -> const char* {
      if (has_inline) return inline_val.c_str();
      if (++i >= argc) {
        std::fprintf(stderr, "ior_cli: %s requires a value\n", arg.c_str());
        std::exit(usage());
      }
      return argv[i];
    };
    if (arg == "-a") {
      const std::string api = next();
      if (api == "POSIX") cfg.api = ior::Api::posix;
      else if (api == "DFS") cfg.api = ior::Api::dfs;
      else if (api == "MPIIO") cfg.api = ior::Api::mpiio;
      else if (api == "HDF5") cfg.api = ior::Api::hdf5;
      else if (api == "DAOS") cfg.api = ior::Api::daos_array;
      else return usage();
    } else if (arg == "-t") cfg.transfer_size = parse_size(next());
    else if (arg == "-b") cfg.block_size = parse_size(next());
    else if (arg == "-s") cfg.segments = parse_count(next());
    else if (arg == "-N") client_nodes = parse_count(next());
    else if (arg == "-n") ppn = parse_count(next());
    else if (arg == "-F") cfg.file_per_process = true;
    else if (arg == "-c") cfg.collective = true;
    else if (arg == "-S") servers = parse_count(next());
    else if (arg == "-V") verify = true;
    else if (arg == "--eq-depth") {
      if ((cfg.eq_depth = parse_count(next())) == 0) {
        std::fprintf(stderr, "ior_cli: --eq-depth must be positive\n");
        return usage();
      }
    }
    else if (arg == "--max-batch-extents") {
      if ((max_batch_extents = parse_count(next())) == 0) {
        std::fprintf(stderr, "ior_cli: --max-batch-extents must be positive\n");
        return usage();
      }
    }
    else if (arg == "--faults") fault_spec = next();
    else if (arg == "--fault-seed") fault_seed = std::uint64_t(std::strtoull(next(), nullptr, 10));
    else if (arg == "--wait-rebuild") wait_rebuild = true;
    else if (arg == "--rebuild-inflight") {
      if ((rebuild_inflight = parse_count(next())) == 0) {
        std::fprintf(stderr, "ior_cli: --rebuild-inflight must be positive\n");
        return usage();
      }
    }
    else if (arg == "--metrics-dump") metrics_path = next();
    else if (arg == "--trace-out") trace_path = next();
    else if (arg == "--trace-sample") {
      const char* v = next();
      char* end = nullptr;
      trace_sample = std::uint64_t(std::strtoull(v, &end, 10));
      if (end == v || *end != '\0') {
        std::fprintf(stderr, "ior_cli: --trace-sample must be a non-negative integer\n");
        return usage();
      }
    }
    else if (arg == "--critical-path") critical_path = true;
    else if (arg == "--slow-ops") {
      const char* v = next();
      char* end = nullptr;
      slow_us = std::strtoll(v, &end, 10);
      if (end == v || *end != '\0' || slow_us < 0) {
        std::fprintf(stderr, "ior_cli: --slow-ops must be a non-negative microsecond count\n");
        return usage();
      }
    }
    else if (arg == "-o") {
      const std::string oc = next();
      using client::ObjClass;
      if (oc == "S1") cfg.oclass = std::uint8_t(ObjClass::S1);
      else if (oc == "S2") cfg.oclass = std::uint8_t(ObjClass::S2);
      else if (oc == "S4") cfg.oclass = std::uint8_t(ObjClass::S4);
      else if (oc == "S8") cfg.oclass = std::uint8_t(ObjClass::S8);
      else if (oc == "SX") cfg.oclass = std::uint8_t(ObjClass::SX);
      else if (oc == "RP_2G1") cfg.oclass = std::uint8_t(ObjClass::RP_2G1);
      else if (oc == "RP_2G2") cfg.oclass = std::uint8_t(ObjClass::RP_2G2);
      else if (oc == "RP_2GX") cfg.oclass = std::uint8_t(ObjClass::RP_2GX);
      else return usage();
    } else {
      return usage();
    }
  }
  cfg.verify = verify;

  if (cfg.transfer_size == 0 || cfg.block_size == 0 || cfg.segments == 0 ||
      client_nodes == 0 || ppn == 0 || servers == 0) {
    std::fprintf(stderr, "ior_cli: sizes and counts must be positive\n");
    return usage();
  }
  if (cfg.block_size % cfg.transfer_size != 0) {
    std::fprintf(stderr, "ior_cli: block size (-b) must be a multiple of transfer size (-t)\n");
    return usage();
  }
  if (cfg.collective && cfg.eq_depth > 1) {
    std::fprintf(stderr,
                 "ior_cli: --eq-depth > 1 is incompatible with collective I/O (-c): "
                 "two-phase exchange orders each rank's transfers\n");
    return usage();
  }

  cluster::ClusterConfig ccfg;
  ccfg.server_nodes = servers;
  ccfg.engines_per_server = 2;
  ccfg.targets_per_engine = 8;
  ccfg.client_nodes = client_nodes;
  ccfg.payload = verify ? vos::PayloadMode::store : vos::PayloadMode::discard;
  ccfg.rebuild.max_inflight = rebuild_inflight;
  ccfg.client.max_batch_extents = max_batch_extents;
  ccfg.client.trace_sample = trace_sample;
  ccfg.client.trace_seed = ccfg.seed;

  std::printf("IOR (daosim) -a %s %s t=%s b=%s segs=%u  %u nodes x %u ppn, %u servers\n",
              ior::to_string(cfg.api), cfg.file_per_process ? "file-per-process" : "shared-file",
              format_bytes(cfg.transfer_size).c_str(), format_bytes(cfg.block_size).c_str(),
              cfg.segments, client_nodes, ppn, servers);

  cluster::Testbed tb(ccfg);
  telemetry::TraceLog trace;
  const bool tracing = !trace_path.empty() || critical_path || slow_us >= 0;
  if (tracing) {
    for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
      trace.set_process_name(tb.engine(e).node(), strfmt("engine/%u", tb.engine(e).node()));
    }
    for (std::uint32_t c = 0; c < tb.client_node_count(); ++c) {
      const net::NodeId n = tb.client(c).endpoint().node();
      trace.set_process_name(n, strfmt("client/%u", n));
    }
    // The chrome dump wants the full span log; in-process analysis only
    // needs the sampled trees, so skip the rest when not writing a file.
    trace.set_keep_unsampled(!trace_path.empty());
    tb.attach_trace(&trace);
  }
  tb.start();
  if (!fault_spec.empty()) {
    Result<fault::Schedule> sched = fault::Schedule::parse(fault_spec);
    if (!sched.ok()) {
      std::fprintf(stderr, "ior_cli: bad --faults spec '%s' (see docs/faults.md)\n",
                   fault_spec.c_str());
      return 2;
    }
    if (!sched->validate(tb.engine_count(), ccfg.targets_per_engine).ok()) {
      std::fprintf(stderr,
                   "ior_cli: --faults names an engine/target outside the cluster "
                   "(%u engines x %u targets)\n",
                   tb.engine_count(), ccfg.targets_per_engine);
      return 2;
    }
    const fault::Injector& inj = tb.inject_faults(*sched, fault_seed);
    std::printf("faults: %zu events armed, seed %llu\n", sched->events().size(),
                static_cast<unsigned long long>(fault_seed));
    (void)inj;
  }
  ior::IorRunner runner(tb, ppn);
  const ior::IorResult res = runner.run(cfg);
  std::printf("write: %10.2f GiB/s  (%s in %.3f s)\n", res.write.gib_per_sec(),
              format_bytes(res.write.bytes).c_str(), res.write.seconds);
  std::printf("read:  %10.2f GiB/s  (%s in %.3f s)\n", res.read.gib_per_sec(),
              format_bytes(res.read.bytes).c_str(), res.read.seconds);
  if (res.write_rpc_latency.count > 0) {
    std::printf("write rpc: %llu updates, p50 %.1f us, p99 %.1f us\n",
                static_cast<unsigned long long>(res.write_rpc_latency.count),
                res.write_rpc_latency.percentile_ns(50) / 1e3,
                res.write_rpc_latency.percentile_ns(99) / 1e3);
  }
  if (res.read_rpc_latency.count > 0) {
    std::printf("read rpc:  %llu fetches, p50 %.1f us, p99 %.1f us\n",
                static_cast<unsigned long long>(res.read_rpc_latency.count),
                res.read_rpc_latency.percentile_ns(50) / 1e3,
                res.read_rpc_latency.percentile_ns(99) / 1e3);
  }
  if (tracing) {
    // Critical-path attribution next to the p50/p99 lines: mean us per op,
    // split across the six pipeline stages (docs/tracing.md).
    const auto prof = trace.profile_ops();
    std::printf("critical path (1/%llu sampled, mean us/op by stage):\n",
                static_cast<unsigned long long>(trace_sample));
    std::printf("  %-14s %8s", "op", "count");
    for (std::size_t st = 0; st < telemetry::TraceLog::kStages; ++st) {
      std::printf(" %12s", telemetry::TraceLog::stage_name(st));
    }
    std::printf(" %12s\n", "total");
    for (const auto& [name, p] : prof) {
      std::printf("  %-14s %8llu", name.c_str(), static_cast<unsigned long long>(p.count));
      for (std::size_t st = 0; st < telemetry::TraceLog::kStages; ++st) {
        std::printf(" %12.1f", double(p.stages.ns[st]) / double(p.count) / 1e3);
      }
      std::printf(" %12.1f\n", double(p.stages.total_ns()) / double(p.count) / 1e3);
    }
  }
  if (slow_us >= 0) {
    std::ostringstream slow;
    tb.dump_slow_ops(slow, sim::Time(slow_us) * 1000, 10);
    std::printf("%s", slow.str().c_str());
  }
  if (verify) {
    std::printf("verify: %llu bad bytes, %llu short reads\n",
                static_cast<unsigned long long>(res.verify_errors),
                static_cast<unsigned long long>(res.read_fill_errors));
  }
  if (res.data_loss_events > 0) {
    std::printf("data loss: %llu reads hit a group with every replica gone\n",
                static_cast<unsigned long long>(res.data_loss_events));
  }
  if (wait_rebuild) {
    const bool healed = tb.wait_rebuild();
    std::uint64_t moved = 0;
    for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
      moved += tb.rebuild_service(e).bytes_rebuilt();
    }
    std::printf("rebuild: %s, %s re-replicated\n", healed ? "converged" : "TIMED OUT",
                format_bytes(moved).c_str());
  }
  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    if (!os) {
      std::fprintf(stderr, "ior_cli: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    const bool csv = metrics_path.size() >= 4 &&
                     metrics_path.compare(metrics_path.size() - 4, 4, ".csv") == 0;
    tb.dump_metrics(os, csv ? telemetry::DumpFormat::csv : telemetry::DumpFormat::json);
    std::printf("metrics: %s (%s)\n", metrics_path.c_str(), csv ? "csv" : "json");
  }
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    if (!os) {
      std::fprintf(stderr, "ior_cli: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    trace.write_chrome_json(os);
    std::printf("trace: %s (%zu spans)\n", trace_path.c_str(), trace.size());
  }
  tb.stop();
  return 0;
}
