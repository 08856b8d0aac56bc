#include "media/dcpmm.hpp"

namespace daosim::media {

DcpmmInterleaveSet::DcpmmInterleaveSet(sim::Scheduler& s, DcpmmConfig cfg)
    : sched_(s),
      cfg_(cfg),
      read_bw_(std::make_unique<sim::SharedBandwidth>(s, cfg.read_bytes_per_sec, cfg.read_eff)),
      write_bw_(std::make_unique<sim::SharedBandwidth>(s, cfg.write_bytes_per_sec, cfg.write_eff)) {}

sim::CoTask<void> DcpmmInterleaveSet::read(std::uint64_t bytes) {
  co_await sched_.delay(cfg_.read_latency);
  co_await read_bw_->transfer(bytes);
}

sim::CoTask<void> DcpmmInterleaveSet::write(std::uint64_t bytes) {
  co_await sched_.delay(cfg_.write_latency);
  co_await write_bw_->transfer(bytes);
}

}  // namespace daosim::media
