// Repository benchmark program. Runs one workload's three interface series —
// dfs (libdfs), mpiio (independent MPI-IO over DFuse) and hdf5 (H5Lite over
// DFuse), all on object class SX unless the workload says otherwise — each on
// a fresh NEXTGenIO-like testbed, in that fixed order. It reports the host
// cost of the simulation and the simulated bandwidth the paper plots, gates
// the outputs for correctness, and prints one JSON result line.
//
//   daosim_perf --workload easy_8m|hard_64k|overwrite_prod --seed N
//               --seconds S --trace 0|1 [--size full|smoke]
//               [--expect-hash SERIES=HEX]...
//
// --trace 0 repeats the three series until S host seconds have passed and
// reports the end-to-end metrics (medians over repetitions). --trace 1 runs
// the series once untraced and once with a TraceLog attached, checks that
// the two runs are bit-identical in every simulated figure, and reports the
// per-layer metrics. See perfbench/README.md for the metric catalogue.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "figure_common.hpp"

namespace {

using namespace daosim;
using Clock = std::chrono::steady_clock;
using telemetry::DurationHistogram;
using telemetry::TraceLog;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

struct Usage {
  double user_s = 0, sys_s = 0, minor_faults = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) { return double(t.tv_sec) + double(t.tv_usec) * 1e-6; };
  return {secs(ru.ru_utime), secs(ru.ru_stime), double(ru.ru_minflt)};
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---------------------------------------------------------------- workloads

enum class Kind { ior, overwrite };

/// One workload at one size: the client side of the cluster and each rank's
/// I/O. `block` is bytes per rank (the overwritten region for overwrite_prod).
struct Shape {
  Kind kind = Kind::ior;
  std::uint32_t client_nodes = 0;
  std::uint32_t ppn = 0;
  std::uint64_t transfer = 0;
  std::uint64_t block = 0;
  bool file_per_process = false;
  std::uint32_t passes = 0;  // overwrite_prod only
};

bool shape_of(const std::string& workload, bool smoke, Shape& s) {
  if (workload == "easy_8m") {
    s = smoke ? Shape{Kind::ior, 2, 4, 8 * kMiB, 16 * kMiB, true, 0}
              : Shape{Kind::ior, 8, 16, 8 * kMiB, 32 * kMiB, true, 0};
  } else if (workload == "hard_64k") {
    s = smoke ? Shape{Kind::ior, 2, 4, 64 * kKiB, 1 * kMiB, false, 0}
              : Shape{Kind::ior, 8, 16, 64 * kKiB, 16 * kMiB, false, 0};
  } else if (workload == "overwrite_prod") {
    s = smoke ? Shape{Kind::overwrite, 1, 4, 64 * kKiB, 256 * kKiB, false, 2}
              : Shape{Kind::overwrite, 4, 16, 64 * kKiB, 512 * kKiB, false, 4};
  } else {
    return false;
  }
  return true;
}

/// The paper's three interface series, taken from the figure harness so the
/// benchmark and fig1/fig2 run the same job definitions.
std::vector<bench::Series> interface_series(const Shape& s) {
  std::vector<bench::Series> out;
  for (bench::Series& ps : bench::paper_series(s.file_per_process, s.transfer, s.block)) {
    if (ps.name == "DAOS-SX") out.push_back({"dfs", ps.cfg});
    if (ps.name == "MPIIO") out.push_back({"mpiio", ps.cfg});
    if (ps.name == "HDF5") out.push_back({"hdf5", ps.cfg});
  }
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::map<std::string, std::uint64_t> expect_hash;
};

cluster::ClusterConfig cluster_for(const Options& opt, const Shape& s) {
  cluster::ClusterConfig cfg = bench::nextgenio_cluster(s.client_nodes, opt.seed);
  // 1 in N client ops becomes a trace root (seeded, so the sampled set
  // repeats); dense enough at either size that every series traces ops.
  cfg.client.trace_sample = opt.smoke ? 2 : 16;
  cfg.client.trace_seed = opt.seed;
  if (s.kind == Kind::overwrite) {  // the production profile
    cfg.payload = vos::PayloadMode::store;
    cfg.swim.enabled = true;
    cfg.agg.enabled = true;
  }
  return cfg;
}

// ----------------------------------------------------------- layer counters

/// Cumulative cluster-wide counters read through the testbed's public
/// accessors and metric registries. Deterministic: two same-seed runs read
/// identical values, so they join the bit-exact correctness gate.
struct Counters {
  std::map<std::string, double> c;
  DurationHistogram::State update, fetch, queue_delay, extents;
  std::uint64_t events = 0;
};

Counters read_counters(cluster::Testbed& tb) {
  Counters k;
  auto& c = k.c;
  for (const telemetry::Registry* reg : tb.registries()) {
    const std::string_view root = reg->root();
    for (const auto& [path, node] : reg->nodes()) {
      const std::string_view p = path;
      const auto* counter = dynamic_cast<const telemetry::Counter*>(node.get());
      const auto* hist = dynamic_cast<const DurationHistogram*>(node.get());
      const double v = counter != nullptr ? double(counter->value()) : 0.0;
      if (p.starts_with("rpc/") && p.ends_with("/busy")) c["net.rpc_busy"] += v;
      if (p.starts_with("rpc/") && p.ends_with("/timed_out")) c["net.rpc_timed_out"] += v;
      if (root == "fabric") {
        if (p == "messages") c["net.messages"] += v;
        if (p.starts_with("node/") && p.ends_with("/tx_bytes")) c["net.tx_bytes"] += v;
        if (p == "queue_delay_ns" && hist != nullptr) k.queue_delay += hist->state();
      } else if (root.starts_with("client/")) {
        if (p == "retry/attempts") c["client.retries"] += v;
        if (p == "batch/rpcs_saved") c["client.rpcs_saved"] += v;
      } else if (root.starts_with("engine/")) {
        if (p.ends_with("/extents_per_rpc") && hist != nullptr) k.extents += hist->state();
      } else if (root.starts_with("pool/")) {
        // Every replica applies the same log: count it once.
        if (p == "commands_applied") c["pool.commands_applied"] = std::max(c["pool.commands_applied"], v);
      }
    }
  }
  for (std::uint32_t i = 0; i < tb.client_node_count(); ++i) {
    c["client.rpcs"] += double(tb.client(i).rpcs_sent());
  }
  c["engine.updates"] = double(tb.total_updates());
  c["engine.fetches"] = double(tb.total_fetches());
  c["engine.stream_switches"] = double(tb.total_shard_cache_misses());
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
    for (std::uint32_t t = 0; t < tb.engine(e).target_count(); ++t) {
      const vos::VosTarget& vt = tb.engine(e).vos_target(t);
      const auto ts = vt.tree_stats();
      c["vos.tree_lookups"] += double(ts.lookups);
      c["vos.tree_inserts"] += double(ts.inserts);
      c["vos.extent_probes"] += double(ts.extent_probes);
      c["vos.stored_bytes"] += double(vt.stored_bytes());
    }
    c["agg.runs"] += double(tb.agg_service(e).runs());
    c["agg.extents_retired"] += double(tb.agg_service(e).extents_retired());
    c["agg.bytes_flattened"] += double(tb.agg_service(e).bytes_flattened());
    c["agg.deferred_on_floor"] += double(tb.agg_service(e).deferred_on_floor());
    c["swim.probes"] += double(tb.swim_service(e).probes_sent());
    c["swim.suspects"] += double(tb.swim_service(e).suspects_raised());
  }
  k.update = tb.client_rpc_latency("update");
  k.fetch = tb.client_rpc_latency("fetch");
  k.events = tb.sched().events_processed();
  return k;
}

// ------------------------------------------------------------ series runs

/// What a series' timed job reports back to the harness.
struct JobResult {
  std::uint64_t write_bytes = 0, read_bytes = 0;
  double write_s = 0, read_s = 0;  // simulated seconds spent in each phase
  std::uint64_t attempted = 0, failed = 0;  // transfers
  std::uint64_t expect_bytes = 0;  // what each phase must have moved
  std::uint64_t live_bytes = 0;    // replicated bytes the file holds at the end
  client::ObjClass oclass = client::ObjClass::SX;  // class the file really got
  std::uint64_t posix_requests = 0, h5_raw_ops = 0;
};

/// One interface series on its own testbed.
struct SeriesRun {
  std::string name;
  /// Every simulated figure of the run, gated bit-exact across repetitions
  /// and between traced and untraced runs.
  std::map<std::string, double> sim;
  std::uint64_t trace_hash = 0;
  JobResult job;
  /// Host cost.
  double build_s = 0, start_s = 0, mount_s = 0, host_s = 0;
  Usage usage;  // getrusage delta over the timed part
  /// Traced runs only: sampled arr_write / arr_read stage attribution, and
  /// whether each breakdown summed to its sampled ops' duration.
  TraceLog::OpProfile write_path, read_path;
  bool stage_sums_ok = true;
};

/// Fills the simulated-figure map from the job and the counter deltas over
/// the timed part.
void record_sim(SeriesRun& r, const Counters& a, const Counters& b) {
  const JobResult& j = r.job;
  auto& s = r.sim;
  s["write_gibs"] = j.write_s > 0 ? double(j.write_bytes) / double(kGiB) / j.write_s : 0;
  s["read_gibs"] = j.read_s > 0 ? double(j.read_bytes) / double(kGiB) / j.read_s : 0;
  s["write_bytes"] = double(j.write_bytes);
  s["read_bytes"] = double(j.read_bytes);
  s["sim.events"] = double(b.events - a.events);
  s["sim.virtual_s"] = j.write_s + j.read_s;
  for (const auto& [name, v] : b.c) {
    const auto it = a.c.find(name);
    s[name] = v - (it == a.c.end() ? 0.0 : it->second);
  }
  s["vos.stored_bytes"] = b.c.at("vos.stored_bytes");  // a level, not a delta
  s["vos.live_bytes"] = double(j.live_bytes);
  s["posix.requests"] = double(j.posix_requests);
  s["h5.raw_ops"] = double(j.h5_raw_ops);
  const DurationHistogram::State up = b.update - a.update;
  const DurationHistogram::State fe = b.fetch - a.fetch;
  const DurationHistogram::State qd = b.queue_delay - a.queue_delay;
  const DurationHistogram::State ex = b.extents - a.extents;
  s["client.update_p50_us"] = up.percentile_ns(50) / 1e3;
  s["client.update_p99_us"] = up.percentile_ns(99) / 1e3;
  s["client.update_samples"] = double(up.count);
  s["client.fetch_p50_us"] = fe.percentile_ns(50) / 1e3;
  s["client.fetch_p99_us"] = fe.percentile_ns(99) / 1e3;
  s["client.fetch_samples"] = double(fe.count);
  s["net.queue_delay_p99_us"] = qd.percentile_ns(99) / 1e3;
  s["engine.extents"] = double(ex.sum_ns);
  s["engine.extent_rpcs"] = double(ex.count);
}

/// Sums the root-span durations of sampled `op` trees named `name` — the
/// reference the stage attribution must add up to.
std::uint64_t root_duration_ns(const TraceLog& log, const std::string& name) {
  std::uint64_t ns = 0;
  for (const TraceLog::Span& sp : log.spans()) {
    if (sp.ctx.active() && sp.ctx.parent_id == 0 && std::string_view(sp.category) == "op" &&
        sp.name == name) {
      ns += sp.end - sp.begin;
    }
  }
  return ns;
}

void record_trace(SeriesRun& r, const TraceLog& log) {
  const auto prof = log.profile_ops();
  if (const auto it = prof.find("arr_write"); it != prof.end()) r.write_path = it->second;
  if (const auto it = prof.find("arr_read"); it != prof.end()) r.read_path = it->second;
  r.stage_sums_ok = r.write_path.stages.total_ns() == root_duration_ns(log, "arr_write") &&
                    r.read_path.stages.total_ns() == root_duration_ns(log, "arr_read");
}

/// Runs one series on a fresh testbed. `setup(tb)` creates the container,
/// the mounts and whatever the job keeps, and returns the job: a callable
/// yielding a JobResult. Cluster build, Raft election and setup are timed
/// apart from the job; counters, usage and the trace cover the job alone.
template <typename Setup>
SeriesRun run_on_testbed(const Options& opt, const Shape& shape, const std::string& name,
                         TraceLog* trace, Setup setup) {
  SeriesRun r;
  r.name = name;
  auto t0 = Clock::now();
  cluster::Testbed tb(cluster_for(opt, shape));
  r.build_s = seconds_since(t0);
  t0 = Clock::now();
  tb.start();
  r.start_s = seconds_since(t0);
  t0 = Clock::now();
  auto job = setup(tb);
  r.mount_s = seconds_since(t0);

  if (trace != nullptr) tb.attach_trace(trace);
  const Counters before = read_counters(tb);
  const Usage u0 = usage_now();
  t0 = Clock::now();
  r.job = job();
  r.host_s = seconds_since(t0);
  const Usage u1 = usage_now();
  const Counters after = read_counters(tb);
  r.usage = {u1.user_s - u0.user_s, u1.sys_s - u0.sys_s, u1.minor_faults - u0.minor_faults};
  r.trace_hash = tb.sched().trace_hash();
  if (trace != nullptr) {
    tb.attach_trace(nullptr);
    record_trace(r, *trace);
  }
  record_sim(r, before, after);
  tb.stop();
  return r;
}

/// IOR workloads: one IorRunner job. Setup runs a job with no I/O phases,
/// which creates the container and the DFS/DFuse mounts.
SeriesRun run_ior_series(const Options& opt, const Shape& shape, const bench::Series& series,
                         TraceLog* trace) {
  return run_on_testbed(opt, shape, series.name, trace, [&](cluster::Testbed& tb) {
    auto runner = std::make_unique<ior::IorRunner>(tb, shape.ppn);
    ior::IorConfig mount_only = series.cfg;
    mount_only.do_write = mount_only.do_read = false;
    (void)runner->run(mount_only);
    return [runner = std::move(runner), &cfg = series.cfg]() {
      const ior::IorResult res = runner->run(cfg);
      const std::uint64_t bytes = runner->ranks() * cfg.block_size * cfg.segments;
      JobResult j;
      j.write_bytes = res.write.bytes;
      j.read_bytes = res.read.bytes;
      j.write_s = res.write.seconds;
      j.read_s = res.read.seconds;
      j.attempted = 2 * (bytes / cfg.transfer_size);
      j.failed = res.verify_errors + res.read_fill_errors + res.data_loss_events;
      j.expect_bytes = bytes;
      j.oclass = client::ObjClass(cfg.oclass);
      j.live_bytes = bytes * client::replica_count(j.oclass);
      return j;
    };
  });
}

/// overwrite_prod: every rank overwrites its own region of one shared file
/// through the series' public write call, reads it back byte-verified, then
/// idles 1 s of simulated time so SWIM and aggregation ticks run. The file
/// is requested as RP_2GX; payloads are stored.
class OverwriteJob {
 public:
  OverwriteJob(cluster::Testbed& tb, const Shape& shape, std::string series, std::uint64_t seed)
      : tb_(tb), shape_(shape), series_(std::move(series)), seed_(client::mix64(seed)) {}

  /// Container, DFS mounts and DFuse mounts on every client node, the MPI
  /// world, and the shared file created and opened by every rank.
  sim::CoTask<void> setup() {
    auto created = co_await tb_.client(0).cont_create(cluster::kPoolUuid, {});
    DAOSIM_REQUIRE(created.ok(), "cont_create: %s", errno_name(created.error()));
    std::vector<net::NodeId> rank_nodes;
    for (std::uint32_t i = 0; i < tb_.client_node_count(); ++i) {
      auto m = co_await dfs::DfsMount::mount(tb_.client(i), cluster::kPoolUuid);
      DAOSIM_REQUIRE(m.ok(), "DFS mount on client %u: %s", i, errno_name(m.error()));
      dfs_.push_back(std::move(*m));
      dfuse_.push_back(std::make_unique<posix::DfuseMount>(tb_.sched(), *dfs_.back()));
      for (std::uint32_t r = 0; r < shape_.ppn; ++r) {
        rank_nodes.push_back(tb_.client(i).endpoint().node());
      }
    }
    world_ = std::make_unique<mpi::MpiWorld>(tb_.sched(), tb_.fabric(), std::move(rank_nodes));
    const Errno mk = co_await dfs_[0]->mkdir("/bench");
    DAOSIM_REQUIRE(mk == Errno::ok, "mkdir: %s", errno_name(mk));
    files_.resize(std::size_t(world_->size()));
    cfile_ = std::make_unique<mpiio::CollectiveFile>(*world_);
    std::function<sim::CoTask<void>(mpi::Comm)> body = [this](mpi::Comm comm) {
      return open_rank(comm);
    };
    co_await world_->run_spmd(std::move(body));
    // The class the file really got: the namespace layer may not honour the
    // requested one, and live_bytes must count the replicas that exist.
    auto st = co_await dfs_[0]->stat(kPath);
    DAOSIM_REQUIRE(st.ok(), "stat: %s", errno_name(st.error()));
    result.oclass = client::class_of(st->oid);
  }

  /// The timed passes.
  sim::CoTask<void> passes() {
    std::function<sim::CoTask<void>(mpi::Comm)> body = [this](mpi::Comm comm) {
      return rank_passes(comm);
    };
    co_await world_->run_spmd(std::move(body));
    if (series_ != "dfs") {
      for (const auto& m : dfuse_) result.posix_requests += m->requests_served();
    }
    const std::uint64_t region = std::uint64_t(world_->size()) * shape_.block;
    result.expect_bytes = region * shape_.passes;
    result.live_bytes = region * client::replica_count(result.oclass);
  }

  JobResult result;

 private:
  static constexpr sim::Time kSettle = 1 * sim::kSec;
  static constexpr std::uint8_t kOclass = std::uint8_t(client::ObjClass::RP_2GX);
  static constexpr const char* kPath = "/bench/shared";

  struct RankFile {
    std::unique_ptr<dfs::File> dfs;
    std::unique_ptr<h5::H5File> h5;
    std::optional<h5::H5Dataset> dset;
  };

  std::uint64_t pattern_seed(std::uint32_t pass) const { return client::mix64(seed_ + pass); }

  sim::CoTask<void> open_rank(mpi::Comm comm) {
    const int me = comm.rank();
    RankFile& f = files_[std::size_t(me)];
    const std::uint32_t node = std::uint32_t(me) / shape_.ppn;
    if (series_ == "dfs") {
      if (me == 0) {
        dfs::OpenFlags fl;
        fl.create = true;
        fl.oclass = kOclass;
        auto h = co_await dfs_[node]->open(kPath, fl);
        DAOSIM_REQUIRE(h.ok(), "dfs create: %s", errno_name(h.error()));
        f.dfs = std::make_unique<dfs::File>(std::move(*h));
      }
      co_await comm.barrier();
      if (me != 0) {
        auto h = co_await dfs_[node]->open(kPath, dfs::OpenFlags{});
        DAOSIM_REQUIRE(h.ok(), "dfs open: %s", errno_name(h.error()));
        f.dfs = std::make_unique<dfs::File>(std::move(*h));
      }
    } else if (series_ == "mpiio") {
      posix::VfsOpenFlags fl;
      fl.create = true;
      fl.oclass = kOclass;
      const Errno rc = co_await cfile_->open(comm, *dfuse_[node], kPath, fl);
      DAOSIM_REQUIRE(rc == Errno::ok, "MPI-IO open: %s", errno_name(rc));
    } else {
      // H5Lite creates its file with the mount's default class (it has no
      // class knob); the mpio-style file driver bypasses the conversion buffer, as
      // in IOR's shared-file mode.
      h5::H5Config hcfg;
      hcfg.direct_large_io = true;
      if (me == 0) {
        auto h = co_await h5::H5File::create(*dfuse_[node], kPath, h5meta_, hcfg);
        DAOSIM_REQUIRE(h.ok(), "H5 create: %s", errno_name(h.error()));
        f.h5 = std::move(*h);
        auto d = co_await f.h5->create_dataset("data", std::uint64_t(comm.size()) * shape_.block);
        DAOSIM_REQUIRE(d.ok(), "H5 create_dataset: %s", errno_name(d.error()));
        f.dset = *d;
      }
      co_await comm.barrier();
      if (me != 0) {
        auto h = co_await h5::H5File::open(*dfuse_[node], kPath, h5meta_, hcfg);
        DAOSIM_REQUIRE(h.ok(), "H5 open: %s", errno_name(h.error()));
        f.h5 = std::move(*h);
        auto d = co_await f.h5->open_dataset("data");
        DAOSIM_REQUIRE(d.ok(), "H5 open_dataset: %s", errno_name(d.error()));
        f.dset = *d;
      }
    }
  }

  sim::CoTask<Errno> write(mpi::Comm comm, RankFile& f, std::uint64_t off,
                           std::span<const std::byte> data) {
    if (f.dfs != nullptr) co_return co_await f.dfs->write(off, data.size(), data);
    if (f.dset.has_value()) co_return co_await f.dset->write(off, data.size(), data);
    auto rc = co_await cfile_->write_at(comm, off, data.size(), data);
    co_return rc.ok() ? Errno::ok : rc.error();
  }

  sim::CoTask<Result<std::uint64_t>> read(mpi::Comm comm, RankFile& f, std::uint64_t off,
                                          std::span<std::byte> out) {
    if (f.dfs != nullptr) co_return co_await f.dfs->read(off, out);
    if (f.dset.has_value()) co_return co_await f.dset->read(off, out);
    co_return co_await cfile_->read_at(comm, off, out);
  }

  sim::CoTask<void> rank_passes(mpi::Comm comm) {
    const int me = comm.rank();
    RankFile& f = files_[std::size_t(me)];
    JobResult& j = result;
    const std::uint64_t base = std::uint64_t(me) * shape_.block;
    std::vector<std::byte> buf(shape_.transfer);
    for (std::uint32_t pass = 0; pass < shape_.passes; ++pass) {
      const std::uint64_t seed = pattern_seed(pass);
      co_await comm.barrier();
      const double w0 = comm.wtime();
      for (std::uint64_t off = base; off < base + shape_.block; off += shape_.transfer) {
        ior::fill_pattern(buf, off, seed);
        ++j.attempted;
        const Errno rc = co_await write(comm, f, off, buf);
        if (rc == Errno::ok) {
          j.write_bytes += buf.size();
        } else {
          ++j.failed;
        }
      }
      co_await comm.barrier();
      const double r0 = comm.wtime();
      if (me == 0) j.write_s += r0 - w0;
      for (std::uint64_t off = base; off < base + shape_.block; off += shape_.transfer) {
        ++j.attempted;
        auto n = co_await read(comm, f, off, buf);
        if (!n.ok() || *n != buf.size() || ior::check_pattern(buf, off, seed) != 0) {
          ++j.failed;
        } else {
          j.read_bytes += buf.size();
        }
      }
      co_await comm.barrier();
      if (me == 0) j.read_s += comm.wtime() - r0;
      co_await tb_.sched().delay(kSettle);
    }
    if (f.h5 != nullptr) {
      j.h5_raw_ops += f.h5->raw_ops();
      f.dset.reset();
      const Errno rc = co_await f.h5->close();
      DAOSIM_REQUIRE(rc == Errno::ok, "H5 close: %s", errno_name(rc));
    }
    if (series_ == "mpiio") {
      const Errno rc = co_await cfile_->close(comm);
      DAOSIM_REQUIRE(rc == Errno::ok, "MPI-IO close: %s", errno_name(rc));
    }
    f.dfs.reset();
  }

  cluster::Testbed& tb_;
  Shape shape_;
  std::string series_;
  std::uint64_t seed_;  // data pattern: written bytes depend on --seed
  std::vector<std::unique_ptr<dfs::DfsMount>> dfs_;
  std::vector<std::unique_ptr<posix::DfuseMount>> dfuse_;
  std::unique_ptr<mpi::MpiWorld> world_;
  std::unique_ptr<mpiio::CollectiveFile> cfile_;
  std::shared_ptr<h5::H5Meta> h5meta_ = std::make_shared<h5::H5Meta>();
  std::vector<RankFile> files_;
};

SeriesRun run_overwrite_series(const Options& opt, const Shape& shape,
                               const bench::Series& series, TraceLog* trace) {
  return run_on_testbed(opt, shape, series.name, trace, [&](cluster::Testbed& tb) {
    auto job = std::make_unique<OverwriteJob>(tb, shape, series.name, opt.seed);
    tb.run([&job]() { return job->setup(); });
    return [job = std::move(job), &tb]() {
      tb.run([&job]() { return job->passes(); });
      return job->result;
    };
  });
}

SeriesRun run_series(const Options& opt, const Shape& shape, const bench::Series& series,
                     TraceLog* trace) {
  return shape.kind == Kind::ior ? run_ior_series(opt, shape, series, trace)
                                 : run_overwrite_series(opt, shape, series, trace);
}

/// One repetition: the three series in fixed order, each on a fresh testbed.
std::vector<SeriesRun> run_rep(const Options& opt, const Shape& shape, bool traced) {
  std::vector<SeriesRun> rep;
  for (const bench::Series& s : interface_series(shape)) {
    TraceLog log;
    log.set_keep_unsampled(false);
    rep.push_back(run_series(opt, shape, s, traced ? &log : nullptr));
  }
  return rep;
}

double rep_setup_s(const std::vector<SeriesRun>& rep) {
  double s = 0;
  for (const SeriesRun& r : rep) s += r.build_s + r.start_s + r.mount_s;
  return s;
}

double rep_wall_s(const std::vector<SeriesRun>& rep) {
  double s = 0;
  for (const SeriesRun& r : rep) s += r.host_s;
  return s;
}

// ------------------------------------------------------------------ gating

struct Gate {
  std::vector<std::string> failures;
  void check(bool ok, std::string what) {
    if (!ok) failures.push_back(std::move(what));
  }
};

bool same_sim(const std::vector<SeriesRun>& a, const std::vector<SeriesRun>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].trace_hash != b[i].trace_hash || a[i].sim != b[i].sim) return false;
  }
  return true;
}

void gate_rep(Gate& g, const Options& opt, const std::vector<SeriesRun>& rep) {
  const SeriesRun* dfs = nullptr;
  const SeriesRun* hdf5 = nullptr;
  for (const SeriesRun& r : rep) {
    g.check(r.job.write_bytes == r.job.expect_bytes, r.name + ": bytes written != ranks x block");
    g.check(r.job.read_bytes == r.job.expect_bytes, r.name + ": bytes read != ranks x block");
    g.check(r.job.failed == 0, r.name + ": failed transfers");
    if (const auto it = opt.expect_hash.find(r.name); it != opt.expect_hash.end()) {
      g.check(it->second == r.trace_hash, r.name + ": trace_hash differs from --expect-hash");
    }
    if (r.name == "dfs") dfs = &r;
    if (r.name == "hdf5") hdf5 = &r;
  }
  // The paper's verdict on file-per-process 8 MiB transfers: HDF5 over
  // DFuse trails libdfs on both phases.
  if (opt.workload == "easy_8m" && dfs != nullptr && hdf5 != nullptr) {
    g.check(hdf5->sim.at("write_gibs") < dfs->sim.at("write_gibs") &&
                hdf5->sim.at("read_gibs") < dfs->sim.at("read_gibs"),
            "easy_8m: HDF5 no longer trails DFS on write and read");
  }
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  ms[i].name.c_str(), ms[i].value, ms[i].unit);
  }
  return out + "}";
}

/// Host times are summed over the series of each series' median across
/// repetitions, so a disturbance that slows one series of one repetition
/// moves neither figure. The timed part's cost is CPU time (user + sys), not
/// wall time: on a shared VM the host takes the vCPU away (steal) for up to
/// a tenth of a repetition, which wall time counts and the program does not
/// cause. Wall time stays a per-layer metric.
std::vector<Metric> end_to_end(const std::vector<std::vector<SeriesRun>>& reps,
                               double warmup_s) {
  double setup = 0, cpu = 0;
  for (std::size_t i = 0; i < reps.front().size(); ++i) {
    std::vector<double> s, c;
    for (const auto& rep : reps) {
      s.push_back(rep[i].build_s + rep[i].start_s + rep[i].mount_s);
      c.push_back(rep[i].usage.user_s + rep[i].usage.sys_s);
    }
    setup += median(s);
    cpu += median(c);
  }
  std::vector<Metric> ms{{"setup_s", warmup_s + setup, "s"},
                         {"cpu_s", cpu, "s"},
                         {"peak_rss_mib", peak_rss_mib(), "MiB"}};
  for (const char* dir : {"write", "read"}) {
    for (const SeriesRun& r : reps.front()) {
      ms.push_back({strfmt("%s_gibs.%s", dir, r.name.c_str()),
                    r.sim.at(std::string(dir) + "_gibs"), "GiB/s"});
    }
  }
  return ms;
}

std::vector<Metric> per_layer(const std::vector<SeriesRun>& plain,
                              const std::vector<SeriesRun>& traced) {
  auto sum = [&plain](const std::string& key) {
    double v = 0;
    for (const SeriesRun& r : plain) v += r.sim.at(key);
    return v;
  };
  double user = 0, sys = 0, faults = 0, build = 0, start = 0, attempted = 0, failed = 0;
  for (const SeriesRun& r : plain) {
    user += r.usage.user_s;
    sys += r.usage.sys_s;
    faults += r.usage.minor_faults;
    build += r.build_s;
    start += r.start_s;
    attempted += double(r.job.attempted);
    failed += double(r.job.failed);
  }
  const double wall = rep_wall_s(plain);
  const double user_bytes = sum("write_bytes") + sum("read_bytes");
  // Latency percentiles: the series with the most samples would dominate a
  // merged histogram anyway; report the sample-weighted mean of the series'
  // percentiles alongside the total sample count.
  auto weighted = [&plain](const std::string& key, const std::string& samples) {
    double num = 0, den = 0;
    for (const SeriesRun& r : plain) {
      num += r.sim.at(key) * r.sim.at(samples);
      den += r.sim.at(samples);
    }
    return ratio(num, den);
  };

  std::vector<Metric> ms{
      {"op_fail_ratio", ratio(failed, attempted), "ratio"},
      {"sim.events", sum("sim.events"), "count"},
      {"sim.events_per_host_s", ratio(sum("sim.events"), wall), "1/s"},
      {"sim.virtual_s", sum("sim.virtual_s"), "s"},
      {"host.wall_s", wall, "s"},
      {"host.user_s", user, "s"},
      {"host.sys_s", sys, "s"},
      {"host.minor_faults", faults, "count"},
      {"cluster.build_s", build, "s"},
      {"cluster.start_s", start, "s"},
  };
  for (const SeriesRun& r : plain) {
    ms.push_back({"ior.host_s." + r.name, r.host_s, "s"});
  }
  for (const SeriesRun& r : plain) {
    const double gib = (r.sim.at("write_bytes") + r.sim.at("read_bytes")) / double(kGiB);
    ms.push_back({"ior.rpcs_per_gib." + r.name, ratio(r.sim.at("client.rpcs"), gib), "1/GiB"});
  }
  const std::vector<Metric> counts{
      {"client.rpcs", sum("client.rpcs"), "count"},
      {"client.retries", sum("client.retries"), "count"},
      {"client.rpcs_saved", sum("client.rpcs_saved"), "count"},
      {"client.update_p50_us", weighted("client.update_p50_us", "client.update_samples"), "us"},
      {"client.update_p99_us", weighted("client.update_p99_us", "client.update_samples"), "us"},
      {"client.update_samples", sum("client.update_samples"), "count"},
      {"client.fetch_p50_us", weighted("client.fetch_p50_us", "client.fetch_samples"), "us"},
      {"client.fetch_p99_us", weighted("client.fetch_p99_us", "client.fetch_samples"), "us"},
      {"client.fetch_samples", sum("client.fetch_samples"), "count"},
      {"net.messages", sum("net.messages"), "count"},
      {"net.tx_bytes_per_user_byte", ratio(sum("net.tx_bytes"), user_bytes), "ratio"},
      {"net.queue_delay_p99_us", weighted("net.queue_delay_p99_us", "net.messages"), "us"},
      {"net.rpc_busy", sum("net.rpc_busy"), "count"},
      {"net.rpc_timed_out", sum("net.rpc_timed_out"), "count"},
      {"engine.updates", sum("engine.updates"), "count"},
      {"engine.fetches", sum("engine.fetches"), "count"},
      {"engine.extents_per_rpc", ratio(sum("engine.extents"), sum("engine.extent_rpcs")), "ratio"},
      {"engine.stream_switches", sum("engine.stream_switches"), "count"},
      {"vos.tree_lookups", sum("vos.tree_lookups"), "count"},
      {"vos.tree_inserts", sum("vos.tree_inserts"), "count"},
      {"vos.probes_per_fetch", ratio(sum("vos.extent_probes"), sum("engine.fetches")), "ratio"},
      {"vos.space_amp", ratio(sum("vos.stored_bytes"), sum("vos.live_bytes")), "ratio"},
      {"agg.runs", sum("agg.runs"), "count"},
      {"agg.extents_retired", sum("agg.extents_retired"), "count"},
      {"agg.bytes_flattened", sum("agg.bytes_flattened"), "B"},
      {"agg.deferred_on_floor", sum("agg.deferred_on_floor"), "count"},
      {"swim.probes", sum("swim.probes"), "count"},
      {"swim.suspects", sum("swim.suspects"), "count"},
      {"pool.commands_applied", sum("pool.commands_applied"), "count"},
      {"posix.requests", sum("posix.requests"), "count"},
      {"h5.raw_ops", sum("h5.raw_ops"), "count"},
  };
  ms.insert(ms.end(), counts.begin(), counts.end());

  // Six-stage attribution of the sampled arr_write / arr_read ops, mean µs
  // per op over the three series.
  static const char* const kStageMetric[TraceLog::kStages] = {
      "client.queue_us", "net.fabric_us", "engine.queue_us",
      "engine.service_us", "vos.us", "media.us"};
  for (const bool write : {true, false}) {
    std::uint64_t ops = 0;
    TraceLog::StageBreakdown total;
    for (const SeriesRun& r : traced) {
      const TraceLog::OpProfile& p = write ? r.write_path : r.read_path;
      ops += p.count;
      for (std::size_t st = 0; st < TraceLog::kStages; ++st) total.ns[st] += p.stages.ns[st];
    }
    for (std::size_t st = 0; st < TraceLog::kStages; ++st) {
      ms.push_back({strfmt("%s.%s", kStageMetric[st], write ? "write" : "read"),
                    ratio(double(total.ns[st]), double(ops)) / 1e3, "us"});
    }
    ms.push_back({strfmt("trace.sampled_ops.%s", write ? "write" : "read"), double(ops), "count"});
  }
  ms.push_back({"trace.overhead_s", rep_wall_s(traced) - wall, "s"});
  return ms;
}

/// Seed, size and every series' digest and simulated bandwidth, printed on
/// the line before the result so each result carries what produced it.
void print_record(const Options& opt, const std::vector<std::vector<SeriesRun>>& reps,
                  double warmup_s) {
  std::string walls, cpus, setups;
  for (const auto& rep : reps) {
    double cpu = 0;
    for (const SeriesRun& r : rep) cpu += r.usage.user_s + r.usage.sys_s;
    walls += strfmt("%s%.6f", walls.empty() ? "" : ", ", rep_wall_s(rep));
    cpus += strfmt("%s%.6f", cpus.empty() ? "" : ", ", cpu);
    setups += strfmt("%s%.6f", setups.empty() ? "" : ", ", rep_setup_s(rep));
  }
  std::string series;
  for (const SeriesRun& r : reps.front()) {
    series += strfmt("%s\"%s\": {\"oclass\": \"%s\", \"trace_hash\": \"%016" PRIx64
                     "\", \"write_gibs\": %.17g, \"read_gibs\": %.17g, \"events\": %.17g}",
                     series.empty() ? "" : ", ", r.name.c_str(), client::to_string(r.job.oclass),
                     r.trace_hash, r.sim.at("write_gibs"), r.sim.at("read_gibs"),
                     r.sim.at("sim.events"));
  }
  std::printf("{\"record\": {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"size\": \"%s\", \"trace\": %d, \"warmup_s\": %.6f, \"rep_setup_s\": [%s], "
              "\"rep_wall_s\": [%s], \"rep_cpu_s\": [%s], \"series\": {%s}}}\n",
              opt.workload.c_str(), opt.seed, opt.smoke ? "smoke" : "full", opt.trace ? 1 : 0,
              warmup_s, setups.c_str(), walls.c_str(), cpus.c_str(), series.c_str());
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "daosim_perf: %s\nusage: daosim_perf --workload easy_8m|hard_64k|overwrite_prod "
               "--seed N --seconds S --trace 0|1 [--size full|smoke] [--expect-hash SERIES=HEX]\n",
               msg.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v, int base = 10) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, base);
  if (v.empty() || v[0] == '-' || errno != 0 || *end != '\0') {
    usage_error(flag + ": not a non-negative integer: '" + v + "'");
  }
  return x;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = parse_u64(a, v);
    } else if (a == "--seconds") {
      opt.seconds = double(parse_u64(a, v));
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--size") {
      if (v != "full" && v != "smoke") usage_error("--size takes full or smoke");
      opt.smoke = v == "smoke";
    } else if (a == "--expect-hash") {
      const auto eq = v.find('=');
      if (eq == std::string::npos) usage_error("--expect-hash takes SERIES=HEX");
      opt.expect_hash[v.substr(0, eq)] = parse_u64(a, v.substr(eq + 1), 16);
    } else {
      usage_error("unknown option " + a);
    }
  }
  if (opt.workload.empty()) usage_error("--workload is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Shape shape;
  if (!shape_of(opt.workload, opt.smoke, shape)) usage_error("unknown workload " + opt.workload);
  try {
    // One warm-up per process, counted in setup_s: a full repetition whose
    // figures are discarded. The first job of each interface in a process
    // pays for heap growth and allocator threshold adaptation that later
    // jobs do not (on a 4-core VM, up to 1.8x the steady host time on
    // easy_8m), which would otherwise inflate whichever repetition runs first.
    auto t0 = Clock::now();
    (void)run_rep(opt, shape, /*traced=*/false);
    const double warmup_s = seconds_since(t0);

    Gate gate;
    std::vector<std::vector<SeriesRun>> reps;
    std::vector<Metric> metrics;
    if (opt.trace) {
      reps.push_back(run_rep(opt, shape, /*traced=*/false));
      const std::vector<SeriesRun> traced = run_rep(opt, shape, /*traced=*/true);
      gate.check(same_sim(reps.front(), traced),
                 "traced run differs from the untraced run in a simulated figure");
      for (const SeriesRun& r : traced) {
        gate.check(r.stage_sums_ok, r.name + ": stage breakdown does not sum to op duration");
        gate.check(r.write_path.count > 0 && r.read_path.count > 0,
                   r.name + ": no sampled ops traced");
      }
      metrics = per_layer(reps.front(), traced);
    } else {
      t0 = Clock::now();
      do {
        reps.push_back(run_rep(opt, shape, /*traced=*/false));
        gate.check(same_sim(reps.front(), reps.back()),
                   "repetitions of one seed differ in a simulated figure");
      } while (seconds_since(t0) < opt.seconds);
      metrics = end_to_end(reps, warmup_s);
    }
    gate_rep(gate, opt, reps.front());

    std::uint64_t attempted = 0, failed = 0;
    for (const SeriesRun& r : reps.front()) {
      attempted += r.job.attempted;
      failed += r.job.failed;
    }
    for (const std::string& f : gate.failures) std::fprintf(stderr, "gate: %s\n", f.c_str());
    print_record(opt, reps, warmup_s);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": %s}\n",
                gate.failures.empty() ? "true" : "false", attempted, failed,
                json_metrics(metrics).c_str());
    std::fflush(stdout);
    return gate.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "daosim_perf: %s\n", e.what());
    return 2;
  }
}
