// IOR reimplementation (the paper's benchmark, §III).
//
// Supports the paper's modes and backends:
//   * easy  = file-per-process, hard = single shared file;
//   * backends: POSIX (DFuse mount), DFS (libdfs — the "DAOS" lines in the
//     figures), MPIIO (over DFuse), HDF5 (H5Lite over DFuse), and the native
//     DAOS array API (the paper's §V future-work backend);
//   * per-rank block split into transfer-size operations, write phase then
//     read phase (optionally rank-shifted, IOR -C), bandwidth computed from
//     barrier-to-barrier virtual time, optional data verification.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/units.hpp"
#include "cluster/testbed.hpp"
#include "dfs/dfs.hpp"
#include "h5/h5lite.hpp"
#include "mpi/mpi.hpp"
#include "mpiio/mpiio.hpp"
#include "posix/dfuse.hpp"

namespace daosim::ior {

enum class Api { posix, dfs, mpiio, hdf5, daos_array };

const char* to_string(Api api);

struct IorConfig {
  Api api = Api::dfs;
  std::uint64_t transfer_size = 8 * kMiB;
  std::uint64_t block_size = 64 * kMiB;  // per rank per segment
  std::uint32_t segments = 1;
  bool file_per_process = true;  // easy; false = hard (shared file)
  bool collective = false;       // MPIIO collective buffering (-c)
  bool reorder_tasks = true;     // IOR -C: read a neighbour's data
  bool verify = false;           // compare read data (payload mode store only)
  std::uint8_t oclass = std::uint8_t(client::ObjClass::SX);
  std::string test_dir = "/ior";
  bool do_write = true;
  bool do_read = true;
  /// Transfers each rank keeps in flight through its client EventQueue
  /// (daos_event model). 1 = fully serial, matching classic blocking IOR.
  std::uint32_t eq_depth = 1;
  /// daos_array API only: after the write barrier, rank 0 snapshots the
  /// container and the read phase runs at that epoch — verification is
  /// isolated from anything written concurrently (see docs/dtx.md).
  bool read_at_snapshot = false;
};

struct PhaseResult {
  double seconds = 0;
  std::uint64_t bytes = 0;
  double gib_per_sec() const { return seconds > 0 ? double(bytes) / double(kGiB) / seconds : 0; }
};

struct IorResult {
  PhaseResult write;
  PhaseResult read;
  std::uint64_t verify_errors = 0;
  std::uint64_t read_fill_errors = 0;  // short reads
  /// Reads that hit a redundancy group with every replica gone
  /// (Errno::data_loss). Counted, not fatal: IOR keeps going, like a real
  /// job riding out a degraded pool.
  std::uint64_t data_loss_events = 0;
  /// Client-observed object-RPC latency during each phase: the delta of the
  /// summed per-client "rpc/update/latency_ns" (write) / "rpc/fetch/latency_ns"
  /// (read) histograms between the phase barriers. Delta states report exact
  /// count/sum and bucket-resolution percentiles; min/max are unavailable (0).
  telemetry::DurationHistogram::State write_rpc_latency;
  telemetry::DurationHistogram::State read_rpc_latency;
};

/// Drives IOR jobs on a testbed. One runner per testbed; per-client-node DFS
/// and DFuse mounts are created lazily and reused across runs.
class IorRunner {
 public:
  /// @param chunk_size  DFS container chunk size (DAOS default 1 MiB)
  /// @param dfuse       DFuse mount tuning (ablation A2)
  IorRunner(cluster::Testbed& tb, std::uint32_t ppn, std::uint64_t chunk_size = 1 * kMiB,
            posix::DfuseConfig dfuse = {});

  /// Runs one IOR job (write+read) and returns aggregate bandwidths.
  IorResult run(const IorConfig& cfg);

  std::uint32_t ppn() const { return ppn_; }
  std::uint32_t ranks() const { return ppn_ * tb_.client_node_count(); }

  /// Identity of the most recent job's files, for out-of-band readback
  /// (e.g. verifying rebuilt replicas after the job finished). daos_array
  /// file-per-process rank r uses OID sequence oid_base + r and pattern seed
  /// file_seed ^ mix64(r); shared files use oid_base and file_seed directly.
  struct JobInfo {
    std::string dir;
    std::uint64_t file_seed = 0;
    std::uint64_t oid_base = 0;  // daos_array backend only
  };
  const JobInfo& last_job() const { return last_job_; }

 private:
  struct NodeCtx {
    std::unique_ptr<dfs::DfsMount> dfs;
    std::unique_ptr<posix::DfuseMount> dfuse;
  };
  struct JobState;  // per-run shared state (see ior.cpp)

  sim::CoTask<void> setup();
  sim::CoTask<void> job_main(const IorConfig* cfg, IorResult* result);
  sim::CoTask<void> rank_body(mpi::Comm comm, const IorConfig* cfg,
                              std::shared_ptr<JobState> st);

  cluster::Testbed& tb_;
  std::uint32_t ppn_;
  std::uint64_t chunk_size_;
  posix::DfuseConfig dfuse_cfg_;
  bool setup_done_ = false;
  std::vector<NodeCtx> nodes_;
  std::unique_ptr<mpi::MpiWorld> world_;
  std::uint64_t job_seq_ = 0;
  JobInfo last_job_;
};

/// Deterministic data pattern IOR stamps into write buffers: 8-byte words
/// derived from the absolute file offset and a file seed.
void fill_pattern(std::span<std::byte> buf, std::uint64_t file_offset, std::uint64_t seed);
/// Returns the size of the mismatching words: 8 per bad whole word, the tail
/// length for a bad sub-word tail.
std::uint64_t check_pattern(std::span<const std::byte> buf, std::uint64_t file_offset,
                            std::uint64_t seed);

}  // namespace daosim::ior
