#include "mpiio/mpiio.hpp"

#include <algorithm>

namespace daosim::mpiio {

using posix::VfsOpenFlags;

CollectiveFile::CollectiveFile(mpi::MpiWorld& world, MpiIoConfig cfg)
    : world_(world), cfg_(cfg) {
  ranks_.resize(std::size_t(world.size()));
  pending_.resize(std::size_t(world.size()));
}

bool CollectiveFile::is_aggregator(int rank) const {
  const net::NodeId node = world_.node_of(rank);
  for (int r = 0; r < rank; ++r) {
    if (world_.node_of(r) == node) return false;
  }
  return true;
}

std::vector<int> CollectiveFile::aggregators() const {
  std::vector<int> out;
  for (int r = 0; r < world_.size(); ++r) {
    if (is_aggregator(r)) out.push_back(r);
  }
  return out;
}

sim::CoTask<Errno> CollectiveFile::open(mpi::Comm comm, posix::Vfs& vfs,
                                        const std::string& path, VfsOpenFlags flags) {
  // Rank 0 creates the file; everyone else opens it afterwards (the barrier
  // is the collective-open synchronisation ROMIO performs).
  if (comm.rank() == 0) {
    auto fd = co_await vfs.open(path, flags);
    if (!fd.ok()) co_return fd.error();
    ranks_[0] = RankState{&vfs, *fd};
  }
  co_await comm.barrier();
  if (comm.rank() != 0) {
    VfsOpenFlags oflags = flags;
    oflags.create = false;
    oflags.excl = false;
    oflags.truncate = false;
    auto fd = co_await vfs.open(path, oflags);
    if (!fd.ok()) co_return fd.error();
    ranks_[std::size_t(comm.rank())] = RankState{&vfs, *fd};
  }
  co_await comm.barrier();
  co_return Errno::ok;
}

sim::CoTask<Errno> CollectiveFile::close(mpi::Comm comm) {
  auto& st = ranks_[std::size_t(comm.rank())];
  if (st.vfs == nullptr) co_return Errno::bad_fd;
  const Errno rc = co_await st.vfs->close(st.fd);
  st = RankState{};
  co_await comm.barrier();
  co_return rc;
}

sim::CoTask<Result<std::uint64_t>> CollectiveFile::write_at(mpi::Comm comm,
                                                            std::uint64_t offset,
                                                            std::uint64_t length,
                                                            std::span<const std::byte> data) {
  auto& st = ranks_[std::size_t(comm.rank())];
  if (st.vfs == nullptr) co_return Errno::bad_fd;
  co_return co_await st.vfs->pwrite(st.fd, offset, length, data);
}

sim::CoTask<Result<std::uint64_t>> CollectiveFile::read_at(mpi::Comm comm,
                                                           std::uint64_t offset,
                                                           std::span<std::byte> out) {
  auto& st = ranks_[std::size_t(comm.rank())];
  if (st.vfs == nullptr) co_return Errno::bad_fd;
  co_return co_await st.vfs->pread(st.fd, offset, out);
}

sim::CoTask<Result<std::uint64_t>> CollectiveFile::size(mpi::Comm comm) {
  auto& st = ranks_[std::size_t(comm.rank())];
  if (st.vfs == nullptr) co_return Errno::bad_fd;
  co_return co_await st.vfs->fsize(st.fd);
}

// ---------------------------------------------------------------------------
// Two-phase collective I/O

sim::CoTask<void> CollectiveFile::shuffle_and_write(int me, std::uint64_t lo, std::uint64_t hi,
                                                    std::shared_ptr<Errno> status) {
  // Phase 1: pull every contribution overlapping my file domain [lo, hi).
  auto& st = ranks_[std::size_t(me)];
  const bool has_payload = std::any_of(pending_.begin(), pending_.end(),
                                       [](const Contribution& c) { return !c.wdata.empty(); });
  std::vector<std::byte> buf;
  if (has_payload) buf.assign(std::size_t(hi - lo), std::byte{0});

  sim::WaitGroup wg(world_.scheduler());
  for (int r = 0; r < world_.size(); ++r) {
    const Contribution& c = pending_[std::size_t(r)];
    const std::uint64_t s = std::max(lo, c.offset);
    const std::uint64_t e = std::min(hi, c.offset + c.length);
    if (s >= e) continue;
    if (!c.wdata.empty()) {
      std::copy_n(c.wdata.begin() + std::ptrdiff_t(s - c.offset), e - s,
                  buf.begin() + std::ptrdiff_t(s - lo));
    }
    if (r != me) {
      // Charge the shuffle transfer from the contributor's node to mine.
      wg.spawn(world_.charge_transfer(r, me, e - s));
    }
  }
  co_await wg.wait();

  // Phase 2: write only the union of contributed ranges (never the holes
  // between them — those may hold live data from earlier rounds), coalesced
  // into cb_buffer_size pieces.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;
  for (const auto& c : pending_) {
    const std::uint64_t s = std::max(lo, c.offset);
    const std::uint64_t e = std::min(hi, c.offset + c.length);
    if (s < e) runs.emplace_back(s, e);
  }
  std::sort(runs.begin(), runs.end());
  std::size_t kept = 0;
  for (const auto& r : runs) {
    if (kept > 0 && r.first <= runs[kept - 1].second) {
      runs[kept - 1].second = std::max(runs[kept - 1].second, r.second);
    } else {
      runs[kept++] = r;
    }
  }
  runs.resize(kept);
  for (const auto& [rs, re] : runs) {
    std::uint64_t pos = rs;
    while (pos < re) {
      const std::uint64_t piece = std::min(cfg_.cb_buffer_size, re - pos);
      std::span<const std::byte> slice;
      if (has_payload) {
        slice = std::span<const std::byte>(buf).subspan(std::size_t(pos - lo),
                                                        std::size_t(piece));
      }
      auto rc = co_await st.vfs->pwrite(st.fd, pos, piece, slice);
      if (!rc.ok()) *status = rc.error();
      pos += piece;
    }
  }
}

sim::CoTask<Result<std::uint64_t>> CollectiveFile::write_at_all(mpi::Comm comm,
                                                                std::uint64_t offset,
                                                                std::uint64_t length,
                                                                std::span<const std::byte> data) {
  const int me = comm.rank();
  pending_[std::size_t(me)] = Contribution{offset, length, data, {}};
  co_await comm.barrier();  // offset/length exchange (allgather)

  // Global extent and per-aggregator contiguous file domains.
  std::uint64_t glo = ~0ULL, ghi = 0;
  for (const auto& c : pending_) {
    if (c.length == 0) continue;
    glo = std::min(glo, c.offset);
    ghi = std::max(ghi, c.offset + c.length);
  }
  auto status = std::make_shared<Errno>(Errno::ok);
  if (glo < ghi) {
    const auto aggs = aggregators();
    const std::uint64_t span = ghi - glo;
    const std::uint64_t per = (span + aggs.size() - 1) / aggs.size();
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a] != me) continue;
      const std::uint64_t lo = glo + a * per;
      const std::uint64_t hi = std::min(ghi, lo + per);
      if (lo < hi) co_await shuffle_and_write(me, lo, hi, status);
    }
  }
  co_await comm.barrier();  // collective completion
  pending_[std::size_t(me)] = Contribution{};
  if (*status != Errno::ok) co_return *status;
  co_return length;
}

sim::CoTask<void> CollectiveFile::read_and_scatter(int me, std::uint64_t lo, std::uint64_t hi,
                                                   std::shared_ptr<Errno> status) {
  auto& st = ranks_[std::size_t(me)];
  // Zeroed, and copied into every sink below even in discard mode, where
  // pread leaves it as is: the one read path that writes the caller's sink
  // without payloads (docs/io_path.md).
  std::vector<std::byte> buf(std::size_t(hi - lo));
  std::uint64_t pos = lo;
  while (pos < hi) {
    const std::uint64_t piece = std::min(cfg_.cb_buffer_size, hi - pos);
    auto rc = co_await st.vfs->pread(
        st.fd, pos, std::span<std::byte>(buf).subspan(std::size_t(pos - lo), std::size_t(piece)));
    if (!rc.ok()) *status = rc.error();
    pos += piece;
  }
  // Scatter to contributors (copy + fabric charge).
  sim::WaitGroup wg(world_.scheduler());
  for (int r = 0; r < world_.size(); ++r) {
    Contribution& c = pending_[std::size_t(r)];
    const std::uint64_t s = std::max(lo, c.offset);
    const std::uint64_t e = std::min(hi, c.offset + c.length);
    if (s >= e) continue;
    if (!c.rdata.empty()) {
      std::copy_n(buf.begin() + std::ptrdiff_t(s - lo), e - s,
                  c.rdata.begin() + std::ptrdiff_t(s - c.offset));
    }
    if (r != me) {
      wg.spawn(world_.charge_transfer(me, r, e - s));
    }
  }
  co_await wg.wait();
}

sim::CoTask<Result<std::uint64_t>> CollectiveFile::read_at_all(mpi::Comm comm,
                                                               std::uint64_t offset,
                                                               std::span<std::byte> out) {
  const int me = comm.rank();
  pending_[std::size_t(me)] = Contribution{offset, out.size(), {}, out};
  co_await comm.barrier();

  std::uint64_t glo = ~0ULL, ghi = 0;
  for (const auto& c : pending_) {
    if (c.length == 0) continue;
    glo = std::min(glo, c.offset);
    ghi = std::max(ghi, c.offset + c.length);
  }
  auto status = std::make_shared<Errno>(Errno::ok);
  if (glo < ghi) {
    const auto aggs = aggregators();
    const std::uint64_t span = ghi - glo;
    const std::uint64_t per = (span + aggs.size() - 1) / aggs.size();
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a] != me) continue;
      const std::uint64_t lo = glo + a * per;
      const std::uint64_t hi = std::min(ghi, lo + per);
      if (lo < hi) co_await read_and_scatter(me, lo, hi, status);
    }
  }
  co_await comm.barrier();
  pending_[std::size_t(me)] = Contribution{};
  if (*status != Errno::ok) co_return *status;
  co_return out.size();
}

}  // namespace daosim::mpiio
