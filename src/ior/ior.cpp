#include "ior/ior.hpp"

#include <cstring>
#include <memory>

namespace daosim::ior {

using client::ArrayObject;
using client::mix64;
using cluster::kPoolUuid;

const char* to_string(Api api) {
  switch (api) {
    case Api::posix: return "POSIX";
    case Api::dfs: return "DFS";
    case Api::mpiio: return "MPIIO";
    case Api::hdf5: return "HDF5";
    case Api::daos_array: return "DAOS";
  }
  return "?";
}

// The word at byte i of a buffer at `file_offset` is
// mix64(seed) + file_offset + i: one hash per call and one add per word, so
// fill and the clean check vectorize. Whole words go through fixed 8-byte
// copies (a single load or store each); the sub-word tail, if any, is
// handled once after the loop.
void fill_pattern(std::span<std::byte> buf, std::uint64_t file_offset, std::uint64_t seed) {
  const std::uint64_t first = mix64(seed) + file_offset;
  const std::size_t whole = buf.size() & ~std::size_t(7);
  for (std::size_t i = 0; i < whole; i += 8) {
    const std::uint64_t word = first + i;
    std::memcpy(buf.data() + i, &word, 8);
  }
  if (whole < buf.size()) {
    const std::uint64_t word = first + whole;
    std::memcpy(buf.data() + whole, &word, buf.size() - whole);
  }
}

std::uint64_t check_pattern(std::span<const std::byte> buf, std::uint64_t file_offset,
                            std::uint64_t seed) {
  const std::uint64_t first = mix64(seed) + file_offset;
  const std::size_t whole = buf.size() & ~std::size_t(7);
  // A clean buffer costs one OR-reduced xor per word; the bad words are
  // counted one by one only when some word differs.
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < whole; i += 8) {
    std::uint64_t got;
    std::memcpy(&got, buf.data() + i, 8);
    diff |= got ^ (first + i);
  }
  std::uint64_t bad = 0;
  if (diff != 0) {
    for (std::size_t i = 0; i < whole; i += 8) {
      std::uint64_t got;
      std::memcpy(&got, buf.data() + i, 8);
      if (got != first + i) bad += 8;
    }
  }
  if (whole < buf.size()) {
    const std::uint64_t word = first + whole;
    if (std::memcmp(buf.data() + whole, &word, buf.size() - whole) != 0) {
      bad += buf.size() - whole;
    }
  }
  return bad;
}

/// Per-job shared state, visible to every rank coroutine.
struct IorRunner::JobState {
  std::string dir;
  std::uint64_t file_seed = 0;
  double write_start = 0, write_end = 0;
  double read_start = 0, read_end = 0;
  /// Client RPC-latency histogram snapshots at the phase barriers (rank 0),
  /// so the result can report per-phase deltas. Pure reads of passive
  /// counters: taking them cannot perturb timing or trace_hash().
  telemetry::DurationHistogram::State update_at_write_start, update_at_write_end;
  telemetry::DurationHistogram::State fetch_at_read_start, fetch_at_read_end;
  std::uint64_t verify_errors = 0;
  std::uint64_t fill_errors = 0;
  std::uint64_t data_loss_errors = 0;
  std::unique_ptr<mpiio::CollectiveFile> cfile;
  std::map<std::string, std::shared_ptr<h5::H5Meta>> h5meta;
  std::uint64_t oid_base = 0;  // daos_array backend
  /// Snapshot epoch the read phase is pinned to (read_at_snapshot); 0 = none.
  vos::Epoch snapshot_epoch = 0;
  /// Discard mode: the one read sink all reads share; nothing writes or reads
  /// it (docs/io_path.md §6).
  std::unique_ptr<std::byte[]> discard_sink;
};

IorRunner::IorRunner(cluster::Testbed& tb, std::uint32_t ppn, std::uint64_t chunk_size,
                     posix::DfuseConfig dfuse)
    : tb_(tb), ppn_(ppn), chunk_size_(chunk_size), dfuse_cfg_(dfuse) {
  DAOSIM_REQUIRE(ppn_ > 0, "ppn must be positive");
  DAOSIM_REQUIRE(chunk_size_ > 0, "chunk size must be positive");
}

sim::CoTask<void> IorRunner::setup() {
  auto& c0 = tb_.client(0);
  pool::ContProps props;
  props.chunk_size = chunk_size_;
  (void)co_await c0.cont_create(kPoolUuid, props);  // daosim-lint: allow(ignored-result): EEXIST on reruns of setup() is expected
  nodes_.resize(tb_.client_node_count());
  std::vector<net::NodeId> rank_nodes;
  for (std::uint32_t i = 0; i < tb_.client_node_count(); ++i) {
    auto mount = co_await dfs::DfsMount::mount(tb_.client(i), kPoolUuid);
    DAOSIM_REQUIRE(mount.ok(), "DFS mount failed on client node %u: %s", i,
                   errno_name(mount.error()));
    nodes_[i].dfs = std::move(*mount);
    nodes_[i].dfuse =
        std::make_unique<posix::DfuseMount>(tb_.sched(), *nodes_[i].dfs, dfuse_cfg_);
    for (std::uint32_t r = 0; r < ppn_; ++r) {
      rank_nodes.push_back(tb_.client(i).endpoint().node());
    }
  }
  world_ = std::make_unique<mpi::MpiWorld>(tb_.sched(), tb_.fabric(), std::move(rank_nodes));
  setup_done_ = true;
}

IorResult IorRunner::run(const IorConfig& cfg) {
  IorResult result;
  tb_.run(job_main(&cfg, &result));
  ++job_seq_;
  return result;
}

sim::CoTask<void> IorRunner::job_main(const IorConfig* cfg, IorResult* result) {
  if (!setup_done_) co_await setup();
  auto st = std::make_shared<JobState>();
  if (cfg->do_read && tb_.config().payload != vos::PayloadMode::store) {
    st->discard_sink = std::make_unique_for_overwrite<std::byte[]>(cfg->transfer_size);
  }
  st->file_seed = mix64(0xF17E5EED ^ (job_seq_ + 1));
  st->dir = strfmt("%s/job%llu", cfg->test_dir.c_str(), static_cast<unsigned long long>(job_seq_));
  {
    const Errno mk1 = co_await nodes_[0].dfs->mkdir(cfg->test_dir);
    DAOSIM_REQUIRE(mk1 == Errno::ok || mk1 == Errno::exists, "mkdir %s: %s",
                   cfg->test_dir.c_str(), errno_name(mk1));
    const Errno mk2 = co_await nodes_[0].dfs->mkdir(st->dir);
    DAOSIM_REQUIRE(mk2 == Errno::ok, "mkdir %s: %s", st->dir.c_str(), errno_name(mk2));
  }
  const int p = int(ranks());
  if (cfg->api == Api::mpiio && !cfg->file_per_process) {
    st->cfile = std::make_unique<mpiio::CollectiveFile>(*world_);
  }
  if (cfg->api == Api::hdf5) {
    if (cfg->file_per_process) {
      for (int r = 0; r < p; ++r) {
        const std::string path = strfmt("%s/testFile.%08d", st->dir.c_str(), r);
        st->h5meta[path] = std::make_shared<h5::H5Meta>();
      }
    } else {
      const std::string path = st->dir + "/testFile";
      st->h5meta[path] = std::make_shared<h5::H5Meta>();
    }
  }
  if (cfg->api == Api::daos_array) {
    // The native array backend bypasses the namespace: lease an OID range.
    auto base = co_await tb_.client(0).alloc_oids(kPoolUuid, std::uint64_t(p) + 1);
    DAOSIM_REQUIRE(base.ok(), "oid allocation failed");
    st->oid_base = *base;
  }

  // Hoisted into a named local (GCC 12 co_await temporary workaround).
  std::function<sim::CoTask<void>(mpi::Comm)> body = [this, cfg, st](mpi::Comm comm) {
    return rank_body(comm, cfg, st);
  };
  co_await world_->run_spmd(std::move(body));

  const std::uint64_t total =
      std::uint64_t(p) * cfg->block_size * cfg->segments;
  if (cfg->do_write) {
    result->write.seconds = st->write_end - st->write_start;
    result->write.bytes = total;
    result->write_rpc_latency = st->update_at_write_end - st->update_at_write_start;
  }
  if (cfg->do_read) {
    result->read.seconds = st->read_end - st->read_start;
    result->read.bytes = total;
    result->read_rpc_latency = st->fetch_at_read_end - st->fetch_at_read_start;
  }
  result->verify_errors = st->verify_errors;
  result->read_fill_errors = st->fill_errors;
  result->data_loss_events = st->data_loss_errors;
  last_job_ = JobInfo{st->dir, st->file_seed, st->oid_base};
}

namespace {

/// Uniform handle over the five backends for one rank's file.
struct RankFile {
  // exactly one of these is active
  posix::Vfs* vfs = nullptr;
  posix::Fd fd = -1;
  std::unique_ptr<dfs::File> dfs_file;
  std::unique_ptr<ArrayObject> array;
  mpiio::CollectiveFile* cfile = nullptr;
  bool collective = false;
  std::unique_ptr<h5::H5File> h5file;
  std::optional<h5::H5Dataset> h5dset;
  mpi::Comm comm;
  /// Visibility bound for array reads (read-at-snapshot); other backends
  /// always read present state.
  vos::Epoch read_epoch = vos::kEpochMax;

  sim::CoTask<Errno> write(std::uint64_t off, std::uint64_t len,
                           std::span<const std::byte> data) {
    if (vfs != nullptr) {
      auto rc = co_await vfs->pwrite(fd, off, len, data);
      co_return rc.ok() ? Errno::ok : rc.error();
    }
    if (dfs_file != nullptr) co_return co_await dfs_file->write(off, len, data);
    if (array != nullptr) co_return co_await array->write(off, len, data);
    if (cfile != nullptr) {
      auto rc = collective ? co_await cfile->write_at_all(comm, off, len, data)
                           : co_await cfile->write_at(comm, off, len, data);
      co_return rc.ok() ? Errno::ok : rc.error();
    }
    if (h5dset.has_value()) co_return co_await h5dset->write(off, len, data);
    co_return Errno::bad_fd;
  }

  /// Returns filled bytes.
  sim::CoTask<Result<std::uint64_t>> read(std::uint64_t off, std::span<std::byte> out) {
    if (vfs != nullptr) co_return co_await vfs->pread(fd, off, out);
    if (dfs_file != nullptr) co_return co_await dfs_file->read(off, out);
    if (array != nullptr) co_return co_await array->read(off, out, read_epoch);
    if (cfile != nullptr) {
      if (collective) co_return co_await cfile->read_at_all(comm, off, out);
      co_return co_await cfile->read_at(comm, off, out);
    }
    if (h5dset.has_value()) co_return co_await h5dset->read(off, out);
    co_return Errno::bad_fd;
  }

  sim::CoTask<Errno> close() {
    if (vfs != nullptr) {
      const Errno rc = co_await vfs->close(fd);
      vfs = nullptr;
      co_return rc;
    }
    if (dfs_file != nullptr) {
      dfs_file.reset();
      co_return Errno::ok;
    }
    if (array != nullptr) {
      array.reset();
      co_return Errno::ok;
    }
    if (cfile != nullptr) {
      const Errno rc = co_await cfile->close(comm);
      cfile = nullptr;
      co_return rc;
    }
    if (h5file != nullptr) {
      h5dset.reset();
      const Errno rc = co_await h5file->close();
      h5file.reset();
      co_return rc;
    }
    co_return Errno::ok;
  }
};

}  // namespace

sim::CoTask<void> IorRunner::rank_body(mpi::Comm comm, const IorConfig* cfg,
                                       std::shared_ptr<JobState> st) {
  const int me = comm.rank();
  const int p = comm.size();
  NodeCtx& node = nodes_[std::size_t(me) / ppn_];
  const bool store = tb_.config().payload == vos::PayloadMode::store;
  const std::uint64_t rank_bytes = cfg->block_size * cfg->segments;
  const std::uint64_t dset_bytes = cfg->file_per_process
                                       ? rank_bytes
                                       : std::uint64_t(p) * cfg->block_size * cfg->segments;
  const std::uint32_t transfers = std::uint32_t(cfg->block_size / cfg->transfer_size);
  DAOSIM_REQUIRE(transfers * cfg->transfer_size == cfg->block_size,
                 "block size must be a multiple of transfer size");
  DAOSIM_REQUIRE(cfg->eq_depth >= 1, "eq_depth must be >= 1");
  // Collective MPI-IO interleaves barriers across ranks; overlapping two
  // collective calls from one rank would mismatch them.
  DAOSIM_REQUIRE(cfg->eq_depth == 1 || !cfg->collective,
                 "eq_depth > 1 is incompatible with collective I/O");

  auto path_of = [&](int file_rank) {
    return cfg->file_per_process
               ? strfmt("%s/testFile.%08d", st->dir.c_str(), file_rank)
               : st->dir + "/testFile";
  };
  auto file_offset = [&](int block_rank, std::uint32_t seg, std::uint32_t t) -> std::uint64_t {
    if (cfg->file_per_process) {
      return std::uint64_t(seg) * cfg->block_size + std::uint64_t(t) * cfg->transfer_size;
    }
    return (std::uint64_t(seg) * std::uint64_t(p) + std::uint64_t(block_rank)) *
               cfg->block_size +
           std::uint64_t(t) * cfg->transfer_size;
  };
  auto seed_of = [&](int file_rank) {
    return cfg->file_per_process ? st->file_seed ^ mix64(std::uint64_t(file_rank))
                                 : st->file_seed;
  };

  // Opens this rank's view of the file for the given phase.
  auto open_file = [&](int file_rank, bool writing) -> sim::CoTask<Result<RankFile>> {
    RankFile rf;
    rf.comm = comm;
    const std::string path = path_of(file_rank);
    switch (cfg->api) {
      case Api::posix: {
        posix::VfsOpenFlags flags;
        flags.create = writing;
        flags.read_only = !writing;
        flags.oclass = cfg->oclass;
        auto fd = co_await node.dfuse->open(path, flags);
        if (!fd.ok()) co_return fd.error();
        rf.vfs = node.dfuse.get();
        rf.fd = *fd;
        break;
      }
      case Api::dfs: {
        dfs::OpenFlags flags;
        flags.create = writing;
        flags.oclass = cfg->oclass;
        auto f = co_await node.dfs->open(path, flags);
        if (!f.ok()) co_return f.error();
        rf.dfs_file = std::make_unique<dfs::File>(std::move(*f));
        break;
      }
      case Api::daos_array: {
        const std::uint64_t seq =
            st->oid_base + (cfg->file_per_process ? std::uint64_t(file_rank) : 0);
        const auto oid = client::make_oid(seq, client::ObjClass(cfg->oclass));
        rf.array = std::make_unique<ArrayObject>(tb_.client(std::uint32_t(me) / ppn_),
                                                 kPoolUuid, oid, 1 * kMiB);
        if (!writing && st->snapshot_epoch != 0) rf.read_epoch = st->snapshot_epoch;
        break;
      }
      case Api::mpiio: {
        if (cfg->file_per_process) {  // ROMIO ufs driver on the mount, COMM_SELF
          posix::VfsOpenFlags flags;
          flags.create = writing;
          flags.read_only = !writing;
          flags.oclass = cfg->oclass;
          auto fd = co_await node.dfuse->open(path, flags);
          if (!fd.ok()) co_return fd.error();
          rf.vfs = node.dfuse.get();
          rf.fd = *fd;
        } else {
          posix::VfsOpenFlags flags;
          flags.create = writing;
          flags.oclass = cfg->oclass;
          const Errno rc = co_await st->cfile->open(comm, *node.dfuse, path, flags);
          if (rc != Errno::ok) co_return rc;
          rf.cfile = st->cfile.get();
          rf.collective = cfg->collective;
        }
        break;
      }
      case Api::hdf5: {
        h5::H5Config hcfg;
        hcfg.direct_large_io = !cfg->file_per_process;  // mpio-like shared driver
        auto shadow = st->h5meta.at(path);
        if (cfg->file_per_process) {
          if (writing) {
            auto f = co_await h5::H5File::create(*node.dfuse, path, shadow, hcfg);
            if (!f.ok()) co_return f.error();
            rf.h5file = std::move(*f);
            auto d = co_await rf.h5file->create_dataset("data", dset_bytes);
            if (!d.ok()) co_return d.error();
            rf.h5dset = *d;
          } else {
            auto f = co_await h5::H5File::open(*node.dfuse, path, shadow, hcfg);
            if (!f.ok()) co_return f.error();
            rf.h5file = std::move(*f);
            auto d = co_await rf.h5file->open_dataset("data");
            if (!d.ok()) co_return d.error();
            rf.h5dset = *d;
          }
        } else {
          // Shared file: rank 0 creates file + dataset, everyone else opens.
          if (writing && me == 0) {
            auto f = co_await h5::H5File::create(*node.dfuse, path, shadow, hcfg);
            if (!f.ok()) co_return f.error();
            rf.h5file = std::move(*f);
            auto d = co_await rf.h5file->create_dataset("data", dset_bytes);
            if (!d.ok()) co_return d.error();
            rf.h5dset = *d;
          }
          co_await comm.barrier();
          if (rf.h5file == nullptr) {
            auto f = co_await h5::H5File::open(*node.dfuse, path, shadow, hcfg);
            if (!f.ok()) co_return f.error();
            rf.h5file = std::move(*f);
            auto d = co_await rf.h5file->open_dataset("data");
            if (!d.ok()) co_return d.error();
            rf.h5dset = *d;
          }
        }
        break;
      }
    }
    co_return std::move(rf);
  };

  // ------------------------------------------------------------------ write
  if (cfg->do_write) {
    co_await comm.barrier();
    if (me == 0) {
      st->write_start = comm.wtime();
      st->update_at_write_start = tb_.client_rpc_latency("update");
    }

    auto rf = co_await open_file(me, /*writing=*/true);
    DAOSIM_REQUIRE(rf.ok(), "rank %d: write open failed: %s", me, errno_name(rf.error()));
    const std::uint64_t seed = seed_of(me);
    // Async window (daos_event model): up to eq_depth transfers in flight per
    // rank; depth 1 degenerates to the classic blocking IOR loop. The rank
    // frame outlives wait_all(), so by-reference captures are safe.
    client::EventQueue eq(tb_.sched(), cfg->eq_depth);
    for (std::uint32_t seg = 0; seg < cfg->segments; ++seg) {
      for (std::uint32_t t = 0; t < transfers; ++t) {
        const std::uint64_t off = file_offset(me, seg, t);
        auto op = [&, off]() -> sim::CoTask<void> {
          std::vector<std::byte> wbuf;  // per-op buffer: bounded by eq_depth
          std::span<const std::byte> data;
          if (store) {
            wbuf.resize(std::size_t(cfg->transfer_size));
            fill_pattern(wbuf, off, seed);
            data = wbuf;
          }
          const Errno wrc = co_await rf->write(off, cfg->transfer_size, data);
          DAOSIM_REQUIRE(wrc == Errno::ok, "rank %d: write failed: %s", me, errno_name(wrc));
        };
        co_await eq.launch(std::move(op));
      }
    }
    co_await eq.wait_all();
    const Errno rc = co_await rf->close();
    DAOSIM_REQUIRE(rc == Errno::ok, "rank %d: close failed: %s", me, errno_name(rc));
    co_await comm.barrier();
    if (me == 0) {
      st->write_end = comm.wtime();
      st->update_at_write_end = tb_.client_rpc_latency("update");
    }
  }

  // ------------------------------------------------------------------- read
  if (cfg->do_read) {
    const int target = cfg->reorder_tasks ? (me + 1) % p : me;
    if (cfg->read_at_snapshot && cfg->api == Api::daos_array) {
      // Rank 0 pins the epoch cut every rank reads at; the barrier publishes
      // it before any read opens.
      if (me == 0) {
        auto snap = co_await tb_.client(0).snapshot_create(cluster::kPoolUuid);
        DAOSIM_REQUIRE(snap.ok(), "read_at_snapshot: snapshot_create failed: %s",
                       errno_name(snap.error()));
        st->snapshot_epoch = *snap;
      }
      co_await comm.barrier();
    }
    co_await comm.barrier();
    if (me == 0) {
      st->read_start = comm.wtime();
      st->fetch_at_read_start = tb_.client_rpc_latency("fetch");
    }

    auto rf = co_await open_file(target, /*writing=*/false);
    DAOSIM_REQUIRE(rf.ok(), "rank %d: read open failed: %s", me, errno_name(rf.error()));
    const std::uint64_t seed = seed_of(target);
    client::EventQueue eq(tb_.sched(), cfg->eq_depth);
    for (std::uint32_t seg = 0; seg < cfg->segments; ++seg) {
      for (std::uint32_t t = 0; t < transfers; ++t) {
        const std::uint64_t off = file_offset(target, seg, t);
        auto op = [&, off]() -> sim::CoTask<void> {
          // Store mode: a zeroed per-op sink (bounded by eq_depth) for
          // check_pattern. Discard mode: the job's shared, untouched sink.
          const std::size_t rlen = std::size_t(cfg->transfer_size);
          const auto rbuf = store ? std::make_unique<std::byte[]>(rlen) : nullptr;
          const std::span<std::byte> sink(store ? rbuf.get() : st->discard_sink.get(), rlen);
          std::uint64_t filled = cfg->transfer_size;
          auto n = co_await rf->read(off, sink);
          if (!n.ok() && n.error() == Errno::data_loss) {
            // Every replica of the group is gone: count the event, read on.
            ++st->data_loss_errors;
            filled = 0;
          } else {
            DAOSIM_REQUIRE(n.ok(), "rank %d: read failed: %s", me, errno_name(n.error()));
            filled = *n;
            if (store && cfg->verify) st->verify_errors += check_pattern(sink, off, seed);
          }
          if (filled != cfg->transfer_size) ++st->fill_errors;
        };
        co_await eq.launch(std::move(op));
      }
    }
    co_await eq.wait_all();
    const Errno rc = co_await rf->close();
    DAOSIM_REQUIRE(rc == Errno::ok, "rank %d: read close failed: %s", me, errno_name(rc));
    co_await comm.barrier();
    if (me == 0) {
      st->read_end = comm.wtime();
      st->fetch_at_read_end = tb_.client_rpc_latency("fetch");
    }
  }
}

}  // namespace daosim::ior
