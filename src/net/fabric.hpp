// Simulated high-performance fabric (the OFI layer under DAOS).
//
// Each node has a full-duplex NIC (per-direction SharedBandwidth sized as
// rails × per-rail rate, matching NEXTGenIO's dual-rail Omni-Path). Transfers
// pay a fixed propagation/software latency plus fair-shared bandwidth at the
// sender egress, a core-switch aggregate pipe, and the receiver ingress
// concurrently (cut-through approximation).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/bandwidth.hpp"
#include "sim/co_task.hpp"
#include "sim/scheduler.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"
#include "telemetry/telemetry.hpp"

namespace daosim::net {

using NodeId = std::uint32_t;

/// `bulk` messages take a fair share of the sender NIC, core switch and
/// receiver NIC; `control` messages (SWIM probes) pay latency only, so
/// background probing cannot shift data-path timing (docs/membership.md §1).
enum class Lane : std::uint8_t { bulk, control };

struct FabricConfig {
  double rail_bytes_per_sec = 12.5e9;  // one 100 Gb/s rail
  std::uint32_t rails_per_node = 2;    // NEXTGenIO: dual-rail Omni-Path
  sim::Time latency = 3 * sim::kUs;    // per-message software + wire latency
  /// Aggregate core-switch capacity; 0 = non-blocking (sized on demand).
  double switch_bytes_per_sec = 0.0;
  std::uint64_t message_header_bytes = 128;
};

class Fabric {
 public:
  Fabric(sim::Scheduler& sched, FabricConfig cfg = {});
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Registers a new node; returns its id (dense, starting at 0).
  /// `rails` overrides the per-node rail count (0 = config default) — DAOS
  /// engines bind one rail per socket while client nodes use both.
  NodeId add_node(std::uint32_t rails = 0);

  std::size_t node_count() const { return nodes_.size(); }
  const FabricConfig& config() const { return cfg_; }
  sim::Scheduler& scheduler() { return sched_; }

  /// Moves `bytes` (plus the message header) from `src` to `dst`, completing
  /// when the last byte lands. Loopback and `Lane::control` messages pay
  /// latency only; both still count as sent messages and bytes. `ctx` is the
  /// caller's trace context; the transfer's "xfer" span is emitted as its
  /// child (inactive context = unlinked span, exactly as before).
  sim::CoTask<void> transfer(NodeId src, NodeId dst, std::uint64_t bytes,
                             sim::TraceContext ctx = {}, Lane lane = Lane::bulk);

  std::uint64_t bytes_sent(NodeId n) const;
  std::uint64_t messages_sent() const { return messages_; }

  /// Fault-injection hook: consulted per non-loopback transfer; the returned
  /// duration is added to the message latency (0 = unaffected). The hook must
  /// be deterministic for a given (src, dst, virtual time) or traces diverge.
  using DelayHook = std::function<sim::Time(NodeId src, NodeId dst)>;
  void set_delay_hook(DelayHook h) { delay_hook_ = std::move(h); }

  /// Attaches a metric registry: per-node wire-byte counters under
  /// "node/<id>/{tx,rx}_bytes", a message counter, and a queueing-delay
  /// histogram (time spent beyond the contention-free serialization time of
  /// each transfer). Recording is passive; nullptr detaches.
  void set_telemetry(telemetry::Registry* reg);

 private:
  struct Node {
    std::unique_ptr<sim::SharedBandwidth> egress;
    std::unique_ptr<sim::SharedBandwidth> ingress;
    std::uint64_t bytes_sent = 0;
    telemetry::Counter* tx = nullptr;  // lazily bound when telemetry is on
    telemetry::Counter* rx = nullptr;
  };

  void ensure_switch();
  void bind_node_counters(NodeId n);

  sim::Scheduler& sched_;
  FabricConfig cfg_;
  std::vector<Node> nodes_;
  std::unique_ptr<sim::SharedBandwidth> switch_;
  std::uint64_t messages_ = 0;
  DelayHook delay_hook_;
  telemetry::Registry* telemetry_ = nullptr;
  telemetry::Counter* messages_metric_ = nullptr;
  telemetry::DurationHistogram* queue_delay_ = nullptr;
};

}  // namespace daosim::net
