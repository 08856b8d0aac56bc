// Storage media models.
//
// DcpmmInterleaveSet models one socket's Optane DCPMM AppDirect interleave
// set (six 256 GiB DIMMs on NEXTGenIO): byte-addressable, asymmetric
// read/write bandwidth, sub-microsecond access latency, and a concave
// efficiency curve under many concurrent streams (Optane's well-documented
// behaviour when writers interleave). The testbed configures Optane as the
// only data tier, matching the paper.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/bandwidth.hpp"
#include "sim/co_task.hpp"
#include "sim/scheduler.hpp"

namespace daosim::media {

struct DcpmmConfig {
  double read_bytes_per_sec = 38e9;   // 6-DIMM interleave set, sequential read
  double write_bytes_per_sec = 13e9;  // sequential write (asymmetric)
  sim::Time read_latency = 300;       // ns, per access
  sim::Time write_latency = 150;      // ns (write lands in WPQ buffer)
  sim::EfficiencyCurve read_eff{8, 0.12, 0.70};
  sim::EfficiencyCurve write_eff{4, 0.20, 0.55};
  std::uint64_t capacity_bytes = 6ULL * 256 * 1024 * 1024 * 1024;
};

class DcpmmInterleaveSet {
 public:
  DcpmmInterleaveSet(sim::Scheduler& s, DcpmmConfig cfg = {});
  DcpmmInterleaveSet(const DcpmmInterleaveSet&) = delete;
  DcpmmInterleaveSet& operator=(const DcpmmInterleaveSet&) = delete;

  sim::CoTask<void> read(std::uint64_t bytes);
  sim::CoTask<void> write(std::uint64_t bytes);

  const DcpmmConfig& config() const { return cfg_; }
  std::uint64_t bytes_read() const { return read_bw_->bytes_served(); }
  std::uint64_t bytes_written() const { return write_bw_->bytes_served(); }

 private:
  sim::Scheduler& sched_;
  DcpmmConfig cfg_;
  std::unique_ptr<sim::SharedBandwidth> read_bw_;
  std::unique_ptr<sim::SharedBandwidth> write_bw_;
};

}  // namespace daosim::media
