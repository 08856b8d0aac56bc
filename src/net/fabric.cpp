#include "net/fabric.hpp"

#include <algorithm>
#include <cinttypes>

#include "common/error.hpp"

namespace daosim::net {

namespace {
sim::CoTask<void> stage(sim::SharedBandwidth& bw, std::uint64_t bytes) {
  co_await bw.transfer(bytes);
}
}  // namespace

Fabric::Fabric(sim::Scheduler& sched, FabricConfig cfg) : sched_(sched), cfg_(cfg) {
  DAOSIM_REQUIRE(cfg_.rail_bytes_per_sec > 0 && cfg_.rails_per_node > 0, "bad fabric config");
}

NodeId Fabric::add_node(std::uint32_t rails) {
  if (rails == 0) rails = cfg_.rails_per_node;
  const double nic_rate = cfg_.rail_bytes_per_sec * rails;
  Node n;
  n.egress = std::make_unique<sim::SharedBandwidth>(sched_, nic_rate);
  n.ingress = std::make_unique<sim::SharedBandwidth>(sched_, nic_rate);
  nodes_.push_back(std::move(n));
  switch_.reset();  // re-size the core switch for the new node count
  return NodeId(nodes_.size() - 1);
}

void Fabric::ensure_switch() {
  if (switch_) return;
  double rate = cfg_.switch_bytes_per_sec;
  if (rate <= 0.0) {
    // Non-blocking: capacity equal to the sum of all NIC rates.
    rate = cfg_.rail_bytes_per_sec * cfg_.rails_per_node * double(std::max<std::size_t>(nodes_.size(), 1));
  }
  switch_ = std::make_unique<sim::SharedBandwidth>(sched_, rate);
}

void Fabric::set_telemetry(telemetry::Registry* reg) {
  telemetry_ = reg;
  for (Node& n : nodes_) {
    n.tx = nullptr;
    n.rx = nullptr;
  }
  messages_metric_ = reg ? &reg->find_or_create<telemetry::Counter>("messages") : nullptr;
  queue_delay_ =
      reg ? &reg->find_or_create<telemetry::DurationHistogram>("queue_delay_ns") : nullptr;
}

void Fabric::bind_node_counters(NodeId n) {
  if (nodes_[n].tx != nullptr) return;
  nodes_[n].tx = &telemetry_->find_or_create<telemetry::Counter>(strfmt("node/%u/tx_bytes", n));
  nodes_[n].rx = &telemetry_->find_or_create<telemetry::Counter>(strfmt("node/%u/rx_bytes", n));
}

sim::CoTask<void> Fabric::transfer(NodeId src, NodeId dst, std::uint64_t bytes,
                                   sim::TraceContext ctx, Lane lane) {
  DAOSIM_REQUIRE(src < nodes_.size() && dst < nodes_.size(), "unknown fabric node");
  ++messages_;
  const std::uint64_t wire = bytes + cfg_.message_header_bytes;
  nodes_[src].bytes_sent += wire;
  if (messages_metric_) {
    messages_metric_->inc();
    bind_node_counters(src);
    bind_node_counters(dst);
    nodes_[src].tx->inc(wire);
    nodes_[dst].rx->inc(wire);
  }
  if (src == dst) {  // loopback: shared-memory copy, no NIC involvement
    co_await sched_.delay(cfg_.latency / 2);
    co_return;
  }
  ensure_switch();
  sim::Time latency = cfg_.latency;
  if (delay_hook_) latency += delay_hook_(src, dst);
  // Span id allocated unconditionally (sink or not, sampled or not) so ids
  // stay bit-identical when tracing toggles.
  const sim::TraceContext xfer_ctx = ctx.child(sched_.alloc_span_id());
  const sim::Time t0 = sched_.now();
  co_await sched_.delay(latency);
  if (lane == Lane::bulk) {
    // Cut-through: the transfer completes when the last byte has cleared the
    // slowest of the three shared stages; we serve them concurrently.
    const sim::Time stages_begin = sched_.now();
    std::vector<sim::CoTask<void>> stages;
    stages.reserve(3);
    stages.push_back(stage(*nodes_[src].egress, wire));
    stages.push_back(stage(*switch_, wire));
    stages.push_back(stage(*nodes_[dst].ingress, wire));
    co_await sim::when_all(sched_, std::move(stages));
    if (queue_delay_) {
      // Queueing delay: measured stage time beyond the contention-free
      // serialization time through the slowest of the three pipes.
      const double min_rate =
          std::min({nodes_[src].egress->rate_bytes_per_sec(), switch_->rate_bytes_per_sec(),
                    nodes_[dst].ingress->rate_bytes_per_sec()});
      const auto ideal = sim::Time(double(wire) / min_rate * 1e9);
      const sim::Time elapsed = sched_.now() - stages_begin;
      queue_delay_->record(elapsed > ideal ? elapsed - ideal : 0);
    }
  }
  if (sim::SpanSink* sink = sched_.span_sink()) {
    sink->span("xfer", strfmt("%u->%u %" PRIu64 "B", src, dst, wire), src, dst, t0,
               sched_.now(), xfer_ctx);
  }
}

std::uint64_t Fabric::bytes_sent(NodeId n) const {
  DAOSIM_REQUIRE(n < nodes_.size(), "unknown fabric node");
  return nodes_[n].bytes_sent;
}

}  // namespace daosim::net
