#include "h5/h5lite.hpp"

#include <cstring>
#include <sstream>

namespace daosim::h5 {

namespace {
constexpr char kMagic[8] = {'\x89', 'H', '5', 'L', 'I', 'T', 'E', '\n'};

std::vector<std::byte> to_bytes(const std::string& s, std::uint64_t block) {
  std::vector<std::byte> out(std::size_t(block), std::byte{0});
  DAOSIM_REQUIRE(s.size() <= block, "metadata block overflow (%zu > %llu)", s.size(),
                 static_cast<unsigned long long>(block));
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}
}  // namespace

// ---------------------------------------------------------------------------
// Serialization: superblock carries the magic + eof; the symbol table block
// lists datasets and attributes in a line format.

std::string H5File::serialize_symtab() const {
  std::ostringstream os;
  os << "SYMTAB " << meta_->datasets.size() << ' ' << meta_->attributes.size() << ' '
     << meta_->eof << '\n';
  for (const auto& [name, d] : meta_->datasets) {
    os << "D " << name << ' ' << d.header_addr << ' ' << d.data_addr << ' ' << d.size_bytes
       << '\n';
  }
  for (const auto& [name, bytes] : meta_->attributes) {
    os << "A " << name << ' ' << bytes << '\n';
  }
  return os.str();
}

std::optional<H5Meta> H5File::parse_symtab(std::span<const std::byte> sb,
                                           std::span<const std::byte> symtab) {
  if (sb.size() < 8 || std::memcmp(sb.data(), kMagic, 8) != 0) return std::nullopt;
  std::string text(reinterpret_cast<const char*>(symtab.data()), symtab.size());
  std::istringstream is(text);
  std::string tag;
  is >> tag;
  if (tag != "SYMTAB") return std::nullopt;
  std::size_t ndsets = 0, nattrs = 0;
  H5Meta meta;
  is >> ndsets >> nattrs >> meta.eof;
  for (std::size_t i = 0; i < ndsets; ++i) {
    std::string d, name;
    DsetMeta dm;
    is >> d >> name >> dm.header_addr >> dm.data_addr >> dm.size_bytes;
    if (d != "D") return std::nullopt;
    meta.datasets[name] = dm;
  }
  for (std::size_t i = 0; i < nattrs; ++i) {
    std::string a, name;
    std::uint64_t bytes;
    is >> a >> name >> bytes;
    if (a != "A") return std::nullopt;
    meta.attributes[name] = bytes;
  }
  meta.created = true;
  return meta;
}

// ---------------------------------------------------------------------------
// Lifecycle

sim::CoTask<Errno> H5File::write_metadata_block(std::uint64_t addr, std::uint64_t bytes,
                                                const std::string& payload) {
  ++metadata_writes_;
  auto block = to_bytes(payload, bytes);
  auto rc = co_await vfs_.pwrite(fd_, addr, bytes, block);
  co_return rc.ok() ? Errno::ok : rc.error();
}

sim::CoTask<Result<std::unique_ptr<H5File>>> H5File::create(posix::Vfs& vfs,
                                                            const std::string& path,
                                                            std::shared_ptr<H5Meta> shadow,
                                                            H5Config cfg) {
  DAOSIM_REQUIRE(shadow != nullptr, "H5 shadow metadata required");
  posix::VfsOpenFlags flags;
  flags.create = true;
  flags.truncate = true;
  auto fd = co_await vfs.open(path, flags);
  if (!fd.ok()) co_return fd.error();
  auto file = std::unique_ptr<H5File>(new H5File(vfs, *fd, std::move(shadow), cfg));
  auto& meta = *file->meta_;
  meta = H5Meta{};
  meta.created = true;
  meta.eof = cfg.superblock_bytes + cfg.header_bytes + cfg.symtab_bytes;
  // Superblock (magic) + root group object header + symbol table block.
  std::string sb(kMagic, 8);
  Errno rc = co_await file->write_metadata_block(0, cfg.superblock_bytes, sb);
  if (rc != Errno::ok) co_return rc;
  rc = co_await file->write_metadata_block(cfg.superblock_bytes, cfg.header_bytes, "ROOT");
  if (rc != Errno::ok) co_return rc;
  rc = co_await file->write_metadata_block(cfg.superblock_bytes + cfg.header_bytes,
                                           cfg.symtab_bytes, file->serialize_symtab());
  if (rc != Errno::ok) co_return rc;
  co_return std::move(file);
}

sim::CoTask<Result<std::unique_ptr<H5File>>> H5File::open(posix::Vfs& vfs,
                                                          const std::string& path,
                                                          std::shared_ptr<H5Meta> shadow,
                                                          H5Config cfg) {
  DAOSIM_REQUIRE(shadow != nullptr, "H5 shadow metadata required");
  posix::VfsOpenFlags flags;
  auto fd = co_await vfs.open(path, flags);
  if (!fd.ok()) co_return fd.error();
  auto file = std::unique_ptr<H5File>(new H5File(vfs, *fd, shadow, cfg));
  // Read superblock and symbol table (two metadata reads, as HDF5 does).
  std::vector<std::byte> sb(std::size_t(cfg.superblock_bytes));
  auto r1 = co_await vfs.pread(*fd, 0, sb);
  if (!r1.ok()) co_return r1.error();
  std::vector<std::byte> symtab(std::size_t(cfg.symtab_bytes));
  auto r2 = co_await vfs.pread(*fd, cfg.superblock_bytes + cfg.header_bytes, symtab);
  if (!r2.ok()) co_return r2.error();
  if (auto parsed = parse_symtab(sb, symtab)) {
    *file->meta_ = std::move(*parsed);
  } else if (!shadow->created) {
    // Nothing parsed (discard mode returns no bytes) and no shared shadow:
    // not an H5 file.
    co_return Errno::invalid;
  }
  co_return std::move(file);
}

sim::CoTask<Result<H5Dataset>> H5File::create_dataset(const std::string& name,
                                                      std::uint64_t size_bytes) {
  DAOSIM_REQUIRE(open_, "file closed");
  if (meta_->datasets.contains(name)) co_return Errno::exists;
  DsetMeta dm;
  dm.header_addr = meta_->eof;
  dm.data_addr = meta_->eof + cfg_.header_bytes;
  dm.size_bytes = size_bytes;
  meta_->eof += cfg_.header_bytes + size_bytes;
  meta_->datasets[name] = dm;
  // Object header write + symbol-table update (late data allocation).
  Errno rc = co_await write_metadata_block(dm.header_addr, cfg_.header_bytes, "DSET " + name);
  if (rc != Errno::ok) co_return rc;
  rc = co_await write_metadata_block(cfg_.superblock_bytes + cfg_.header_bytes,
                                     cfg_.symtab_bytes, serialize_symtab());
  if (rc != Errno::ok) co_return rc;
  co_return H5Dataset(this, name, dm);
}

sim::CoTask<Result<H5Dataset>> H5File::open_dataset(const std::string& name) {
  DAOSIM_REQUIRE(open_, "file closed");
  auto it = meta_->datasets.find(name);
  if (it == meta_->datasets.end()) co_return Errno::no_entry;
  // Copy the entry before suspending: the shadow H5Meta is shared across
  // ranks, and a concurrent open() re-parses it wholesale while we sit in
  // the pread below, invalidating iterators into the map.
  const DsetMeta dm = it->second;
  // Header read (charged; content authoritative from parsed/shared meta).
  std::vector<std::byte> hdr(std::size_t(cfg_.header_bytes));
  auto rc = co_await vfs_.pread(fd_, dm.header_addr, hdr);
  if (!rc.ok()) co_return rc.error();
  co_return H5Dataset(this, name, dm);
}

sim::CoTask<Errno> H5File::write_attribute(const std::string& name, std::uint64_t bytes) {
  DAOSIM_REQUIRE(open_, "file closed");
  meta_->attributes[name] = bytes;
  co_return co_await write_metadata_block(cfg_.superblock_bytes + cfg_.header_bytes,
                                          cfg_.symtab_bytes, serialize_symtab());
}

sim::CoTask<Errno> H5File::note_raw_op() {
  ++raw_ops_;
  if (++dirty_ops_ >= cfg_.mdc_flush_every) {
    dirty_ops_ = 0;
    // Evict the dirtied object header (mtime update) from the MDC.
    co_return co_await write_metadata_block(cfg_.superblock_bytes, cfg_.header_bytes, "ROOT");
  }
  co_return Errno::ok;
}

sim::CoTask<Errno> H5File::flush() {
  DAOSIM_REQUIRE(open_, "file closed");
  dirty_ops_ = 0;
  co_return co_await write_metadata_block(cfg_.superblock_bytes + cfg_.header_bytes,
                                          cfg_.symtab_bytes, serialize_symtab());
}

sim::CoTask<Errno> H5File::close() {
  if (!open_) co_return Errno::bad_fd;
  Errno rc = co_await flush();
  open_ = false;
  const Errno c = co_await vfs_.close(fd_);
  co_return rc != Errno::ok ? rc : c;
}

// ---------------------------------------------------------------------------
// Dataset raw I/O

sim::CoTask<Errno> H5Dataset::write(std::uint64_t offset, std::uint64_t length,
                                    std::span<const std::byte> data) {
  DAOSIM_REQUIRE(data.empty() || data.size() == length, "payload size mismatch");
  if (offset + length > meta_.size_bytes) co_return Errno::invalid;
  H5File& f = *file_;
  const Errno mdc = co_await f.note_raw_op();
  if (mdc != Errno::ok) co_return mdc;
  const std::uint64_t base = meta_.data_addr + offset;
  if (f.cfg_.direct_large_io && length >= f.cfg_.conversion_buffer) {
    auto rc = co_await f.vfs_.pwrite(f.fd_, base, length, data);
    co_return rc.ok() ? Errno::ok : rc.error();
  }
  // sec2-style path: serial conversion-buffer pieces.
  std::uint64_t pos = 0;
  while (pos < length) {
    const std::uint64_t piece = std::min(f.cfg_.conversion_buffer, length - pos);
    std::span<const std::byte> slice;
    if (!data.empty()) slice = data.subspan(std::size_t(pos), std::size_t(piece));
    auto rc = co_await f.vfs_.pwrite(f.fd_, base + pos, piece, slice);
    if (!rc.ok()) co_return rc.error();
    pos += piece;
  }
  co_return Errno::ok;
}

sim::CoTask<Result<std::uint64_t>> H5Dataset::read(std::uint64_t offset,
                                                   std::span<std::byte> out) {
  if (offset + out.size() > meta_.size_bytes) co_return Errno::invalid;
  H5File& f = *file_;
  ++f.raw_ops_;
  const std::uint64_t base = meta_.data_addr + offset;
  if (f.cfg_.direct_large_io && out.size() >= f.cfg_.conversion_buffer) {
    co_return co_await f.vfs_.pread(f.fd_, base, out);
  }
  std::uint64_t total = 0;
  std::uint64_t pos = 0;
  while (pos < out.size()) {
    const std::uint64_t piece = std::min<std::uint64_t>(f.cfg_.conversion_buffer,
                                                        out.size() - pos);
    auto rc = co_await f.vfs_.pread(f.fd_, base + pos,
                                    out.subspan(std::size_t(pos), std::size_t(piece)));
    if (!rc.ok()) co_return rc.error();
    total += *rc;
    pos += piece;
  }
  co_return total;
}

}  // namespace daosim::h5
