#include "sim/bandwidth.hpp"

#include <algorithm>
#include <cmath>

#include "common/audit.hpp"
#include "common/error.hpp"

namespace daosim::sim {

namespace {
// Completion slack: remaining bytes below this count as done. Keeps the
// floating-point fair-share arithmetic from scheduling zero-length rounds.
constexpr double kEpsilonBytes = 1e-3;
}  // namespace

double EfficiencyCurve::operator()(std::size_t n) const {
  if (n <= knee || alpha <= 0.0) return 1.0;
  return std::max(floor, std::pow(double(knee) / double(n), alpha));
}

SharedBandwidth::SharedBandwidth(Scheduler& s, double bytes_per_sec, EfficiencyCurve eff)
    : sched_(s), rate_ns_(bytes_per_sec * 1e-9), eff_(eff) {
  DAOSIM_REQUIRE(bytes_per_sec > 0.0, "bandwidth must be positive");
}

void SharedBandwidth::add_flow(double bytes, std::coroutine_handle<> h) {
  advance();
  if (flows_.empty()) busy_since_ = sched_.now();
  flows_.push_back(Flow{bytes, h});
  reschedule();
}

void SharedBandwidth::advance() {
  const Time now = sched_.now();
  if (flows_.empty() || now <= last_update_) {
    last_update_ = now;
    return;
  }
  const double elapsed = double(now - last_update_);
  const double per_flow = elapsed * rate_ns_ * eff_(flows_.size()) / double(flows_.size());
  double served_round = 0.0;
  bool clipped = false;
  for (auto& f : flows_) {
    const double served = std::min(f.remaining, per_flow);
    if (f.remaining < per_flow) clipped = true;
    f.remaining -= served;
    bytes_served_ += served;
    served_round += served;
  }
  last_update_ = now;
  // Audit (DAOSIM_AUDIT): fair sharing must conserve capacity. The round can
  // never serve more than the link could carry, and when no flow ran out of
  // demand mid-round the allocations must sum to exactly the link capacity.
  if constexpr (kAuditEnabled) {
    const double capacity = elapsed * rate_ns_ * eff_(flows_.size());
    const double slack = capacity * 1e-9 + kEpsilonBytes;
    DAOSIM_REQUIRE(served_round <= capacity + slack,
                   "audit: fair-share round served %.3f bytes over capacity %.3f",
                   served_round, capacity);
    DAOSIM_REQUIRE(clipped || std::abs(served_round - capacity) <= slack,
                   "audit: unclipped round served %.3f != capacity %.3f",
                   served_round, capacity);
  }
}

void SharedBandwidth::reschedule() {
  if (flows_.empty()) {
    next_.cancel();
    return;
  }
  double min_remaining = flows_.front().remaining;
  for (const auto& f : flows_) min_remaining = std::min(min_remaining, f.remaining);
  const double per_flow_rate = rate_ns_ * eff_(flows_.size()) / double(flows_.size());
  const double dt = std::max(0.0, min_remaining) / per_flow_rate;
  const Time fire = sched_.now() + Time(std::ceil(dt));
  if (next_.armed()) {
    sched_.rearm(next_, fire);
  } else {
    next_ = sched_.schedule_callback(fire, [this] { on_completion(); });
  }
}

void SharedBandwidth::on_completion() {
  advance();
  // Resume every flow that has (numerically) finished.
  done_.clear();
  std::size_t kept = 0;
  for (auto& f : flows_) {
    if (f.remaining <= kEpsilonBytes) {
      done_.push_back(f.h);
    } else {
      flows_[kept++] = f;
    }
  }
  flows_.resize(kept);
  if (flows_.empty() && !done_.empty()) busy_accum_ += sched_.now() - busy_since_;
  reschedule();
  for (auto h : done_) sched_.schedule(sched_.now(), h);
}

Time SharedBandwidth::busy_time() const {
  Time t = busy_accum_;
  if (!flows_.empty()) t += sched_.now() - busy_since_;
  return t;
}

}  // namespace daosim::sim
