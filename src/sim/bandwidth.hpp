// SharedBandwidth: a processor-sharing bandwidth resource.
//
// Concurrent transfers share the pipe fairly: with n active flows each is
// served at rate * efficiency(n) / n. This models NICs, switch ports and
// storage media channels. An optional concave efficiency curve captures the
// throughput loss real devices exhibit under heavy stream interleaving
// (notably Optane DCPMM, whose effective bandwidth degrades with many
// concurrent writers).
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace daosim::sim {

/// Total-rate multiplier as a function of the number of active flows.
/// eff(n) = 1 for n <= knee, then decays as (knee/n)^alpha towards `floor`.
struct EfficiencyCurve {
  std::uint32_t knee = ~0u;  // default: no degradation
  double alpha = 0.0;
  double floor = 1.0;

  double operator()(std::size_t n) const;
};

class SharedBandwidth {
 public:
  /// @param bytes_per_sec  aggregate capacity of the pipe
  SharedBandwidth(Scheduler& s, double bytes_per_sec, EfficiencyCurve eff = {});
  SharedBandwidth(const SharedBandwidth&) = delete;
  SharedBandwidth& operator=(const SharedBandwidth&) = delete;

  /// Awaitable: completes once `bytes` have been served under fair sharing.
  auto transfer(std::uint64_t bytes) { return TransferAwaiter{*this, double(bytes)}; }

  double rate_bytes_per_sec() const { return rate_ns_ * 1e9; }
  std::size_t active_flows() const { return flows_.size(); }
  std::uint64_t bytes_served() const { return std::uint64_t(bytes_served_); }
  /// Total virtual time during which at least one flow was active.
  Time busy_time() const;

 private:
  struct Flow {
    double remaining;
    std::coroutine_handle<> h;
  };

  struct TransferAwaiter {
    SharedBandwidth& bw;
    double bytes;
    bool await_ready() const noexcept { return bytes <= 0.0; }
    void await_suspend(std::coroutine_handle<> h) { bw.add_flow(bytes, h); }
    void await_resume() const noexcept {}
  };

  void add_flow(double bytes, std::coroutine_handle<> h);
  void advance();     // apply service accrued since last_update_
  void reschedule();  // re-arm the next-completion timer in place
  void on_completion();

  Scheduler& sched_;
  double rate_ns_;  // bytes per nanosecond
  EfficiencyCurve eff_;
  std::vector<Flow> flows_;
  std::vector<std::coroutine_handle<>> done_;  // on_completion scratch
  Time last_update_ = 0;
  Timer next_;
  double bytes_served_ = 0.0;
  Time busy_accum_ = 0;
  Time busy_since_ = 0;
};

}  // namespace daosim::sim
