// H5Lite: a compact HDF5-like self-describing container format over a Vfs.
//
// Reproduces the structural behaviour that matters for the paper's "HDF5
// over DFuse" results:
//   * a real file format: superblock @0, root-group symbol table, per-dataset
//     object headers, contiguous raw-data allocation at end-of-file;
//   * a metadata cache: headers are dirtied by raw I/O (mtime tracking) and
//     flushed every `mdc_flush_every` operations and at close — each flush is
//     a small write through the mount;
//   * a bounded internal conversion/sieve buffer: the sec2-style driver moves
//     raw data in `conversion_buffer`-sized serial pieces, so large transfers
//     become chains of latency-bound requests through DFuse (the mechanism
//     behind HDF5's file-per-process slow-down in Fig. 1). The mpio-style
//     driver (`direct_large_io`) bypasses the buffer for large aligned I/O,
//     matching HDF5's better shared-file behaviour in Fig. 2.
//
// Payload note: with PayloadMode::discard the underlying store returns no
// bytes at all, so the superblock and symbol-table reads leave open()'s own
// zero-initialised buffers as they were, and those fail to parse. Callers
// then share one H5Meta shadow per file across ranks (the IOR harness does
// this); with payloads stored, open() genuinely parses the bytes it reads
// back.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "posix/vfs.hpp"

namespace daosim::h5 {

struct H5Config {
  std::uint64_t conversion_buffer = 256 * 1024;
  bool direct_large_io = false;   // mpio-like driver behaviour
  std::uint32_t mdc_flush_every = 16;
  std::uint64_t header_bytes = 512;      // object header allocation
  std::uint64_t superblock_bytes = 96;
  std::uint64_t symtab_bytes = 2048;     // root-group symbol table block
};

struct DsetMeta {
  std::uint64_t header_addr = 0;
  std::uint64_t data_addr = 0;
  std::uint64_t size_bytes = 0;  // dataspace extent
};

/// Logical file metadata (the contents of the metadata blocks).
struct H5Meta {
  bool created = false;
  std::uint64_t eof = 0;
  std::map<std::string, DsetMeta> datasets;
  std::map<std::string, std::uint64_t> attributes;  // name -> byte size
};

class H5File;

/// An open dataset: a contiguous byte extent with hyperslab-style access.
class H5Dataset {
 public:
  /// Writes `length` bytes at dataset-relative `offset` (serial conversion-
  /// buffer pieces unless the driver does direct large I/O).
  sim::CoTask<Errno> write(std::uint64_t offset, std::uint64_t length,
                           std::span<const std::byte> data);
  sim::CoTask<Result<std::uint64_t>> read(std::uint64_t offset, std::span<std::byte> out);

  std::uint64_t size() const { return meta_.size_bytes; }
  const std::string& name() const { return name_; }

 private:
  friend class H5File;
  H5Dataset(H5File* file, std::string name, DsetMeta meta)
      : file_(file), name_(std::move(name)), meta_(meta) {}
  H5File* file_;
  std::string name_;
  DsetMeta meta_;
};

class H5File {
 public:
  /// Creates a new file: writes superblock, root-group header and symbol
  /// table. `shadow` may be shared across ranks opening the same file.
  static sim::CoTask<Result<std::unique_ptr<H5File>>> create(posix::Vfs& vfs,
                                                             const std::string& path,
                                                             std::shared_ptr<H5Meta> shadow,
                                                             H5Config cfg = {});
  /// Opens an existing file: reads and parses superblock + symbol table
  /// (falling back to the shared shadow when payloads are not stored).
  static sim::CoTask<Result<std::unique_ptr<H5File>>> open(posix::Vfs& vfs,
                                                           const std::string& path,
                                                           std::shared_ptr<H5Meta> shadow,
                                                           H5Config cfg = {});

  /// Allocates a contiguous dataset of `size_bytes` and writes its header.
  sim::CoTask<Result<H5Dataset>> create_dataset(const std::string& name,
                                                std::uint64_t size_bytes);
  sim::CoTask<Result<H5Dataset>> open_dataset(const std::string& name);
  /// Small attribute write (lands in the object header block).
  sim::CoTask<Errno> write_attribute(const std::string& name, std::uint64_t bytes);

  /// Flushes dirty metadata-cache entries.
  sim::CoTask<Errno> flush();
  /// Flush + close the fd. Must be called before destruction.
  sim::CoTask<Errno> close();

  const H5Config& config() const { return cfg_; }
  std::uint64_t metadata_writes() const { return metadata_writes_; }
  std::uint64_t raw_ops() const { return raw_ops_; }

 private:
  friend class H5Dataset;
  H5File(posix::Vfs& vfs, posix::Fd fd, std::shared_ptr<H5Meta> meta, H5Config cfg)
      : vfs_(vfs), fd_(fd), meta_(std::move(meta)), cfg_(cfg) {}

  sim::CoTask<Errno> write_metadata_block(std::uint64_t addr, std::uint64_t bytes,
                                          const std::string& payload);
  sim::CoTask<Errno> note_raw_op();  // metadata-cache dirtying / periodic flush

  std::string serialize_symtab() const;
  static std::optional<H5Meta> parse_symtab(std::span<const std::byte> sb,
                                            std::span<const std::byte> symtab);

  posix::Vfs& vfs_;
  posix::Fd fd_;
  std::shared_ptr<H5Meta> meta_;
  H5Config cfg_;
  bool open_ = true;
  std::uint32_t dirty_ops_ = 0;
  std::uint64_t metadata_writes_ = 0;
  std::uint64_t raw_ops_ = 0;
};

}  // namespace daosim::h5
