// Deterministic fault injection for the simulated cluster.
//
// A fault::Schedule is a list of simulated-time fault events — node crash,
// node restart, transient RPC drop/delay windows, single-target stalls —
// built programmatically or parsed from the compact spec grammar used by
// `ior_cli --faults` (see docs/faults.md). A fault::Injector arms a schedule
// against a Scheduler + RpcDomain: point events become cancellable timer
// callbacks, windows become per-call hooks in net/rpc (probabilistic drops,
// seeded) and net/fabric (added latency). Every injected fault folds into the
// scheduler's trace_hash() digest, so a seeded fault run is bit-reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "net/rpc.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace daosim::fault {

enum class Kind : std::uint8_t { crash, restart, drop, delay, stall, partition };

const char* to_string(Kind k);

/// Wildcard engine selector: the event applies to every engine.
constexpr std::uint32_t kAllEngines = 0xFFFFFFFFu;

/// One fault event. Times are offsets from the moment the schedule is armed.
struct Event {
  Kind kind = Kind::crash;
  sim::Time at = 0;            // point events: when; windows: start
  sim::Time until = 0;         // drop/delay windows: end (exclusive)
  std::uint32_t engine = 0;    // engine index (not fabric node), or kAllEngines
  std::uint32_t target = 0;    // stall only: target index within the engine
  double probability = 1.0;    // drop only: per-call drop probability
  sim::Time amount = 0;        // delay: per-call extra latency; stall: duration
  // partition only: engine-index groups whose cross traffic is severed for
  // the window. Symmetric by default; oneway drops only group_a -> group_b.
  std::vector<std::uint32_t> group_a{};
  std::vector<std::uint32_t> group_b{};
  bool oneway = false;
};

/// An ordered list of fault events; build with the fluent methods or parse
/// from the spec grammar. Schedules are plain data — arm them with Injector.
class Schedule {
 public:
  Schedule& crash(sim::Time at, std::uint32_t engine);
  Schedule& restart(sim::Time at, std::uint32_t engine);
  Schedule& drop(sim::Time from, sim::Time until, std::uint32_t engine, double probability);
  Schedule& delay(sim::Time from, sim::Time until, std::uint32_t engine, sim::Time extra);
  Schedule& stall(sim::Time at, std::uint32_t engine, std::uint32_t target, sim::Time duration);
  /// Network partition window: every RPC between `group_a` and `group_b`
  /// (engine-index sets, disjoint and non-empty) is dropped unconditionally
  /// while the window is open. With `oneway`, only group_a -> group_b traffic
  /// is severed (asymmetric link failure); replies from B still cross.
  Schedule& partition(sim::Time from, sim::Time until, std::vector<std::uint32_t> group_a,
                      std::vector<std::uint32_t> group_b, bool oneway = false);

  /// Parses the comma-separated spec grammar, e.g.
  ///   crash@200ms:e3,restart@1.5s:e3,drop@0-500ms:e1:0.3,
  ///   delay@100ms-1s:*:200us,stall@50ms:e0.2:30ms,
  ///   partition@1s-4s:e0+e1|e2+e3,partition@1s-4s:e0>e1
  /// Times take us/ms/s suffixes (bare numbers are seconds). Partition groups
  /// are '+'-joined engine selectors split by '|' (symmetric) or '>'
  /// (one-way, left drops toward right). Fails with Errno::invalid on
  /// malformed input (including the empty string).
  static Result<Schedule> parse(std::string_view spec);

  /// Checks every event against a concrete cluster shape: engine indices must
  /// be < engine_count and stall targets < targets_per_engine. The grammar
  /// cannot know the cluster size, so CLI front-ends call this before arming
  /// (Injector::arm asserts the same invariant). Fails with Errno::invalid.
  Result<void> validate(std::uint32_t engine_count, std::uint32_t targets_per_engine) const;

  const std::vector<Event>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

 private:
  std::vector<Event> events_;
};

/// Embedder-supplied actions binding fault events to a concrete cluster
/// (the testbed wires these to engine/raft/pool plumbing).
struct Hooks {
  std::function<void(std::uint32_t engine)> crash;
  std::function<void(std::uint32_t engine)> restart;
  std::function<void(std::uint32_t engine, std::uint32_t target, sim::Time duration)> stall;
  /// Engine index -> fabric node, for matching RPC traffic against windows.
  std::function<net::NodeId(std::uint32_t engine)> node_of;
  std::uint32_t engine_count = 0;
};

/// Arms schedules against a live cluster. Owns the RPC fault hook and fabric
/// delay hook for its domain (one Injector per RpcDomain); uninstalls them on
/// destruction. Drop decisions come from a seeded Xoshiro256 consumed in
/// call order, so one seed yields one trace.
class Injector {
 public:
  Injector(net::RpcDomain& domain, Hooks hooks, std::uint64_t seed);
  ~Injector();
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Registers every event of `s`, offset from the scheduler's current time.
  /// May be called repeatedly to layer schedules.
  void arm(const Schedule& s);

  std::uint64_t faults_injected() const { return injected_; }
  std::uint64_t calls_dropped() const { return dropped_; }
  std::uint64_t calls_delayed() const { return delayed_; }
  std::uint64_t calls_partitioned() const { return partitioned_; }

 private:
  struct Window {
    Kind kind = Kind::drop;
    sim::Time from = 0;
    sim::Time until = 0;
    net::NodeId node = 0;  // matched against call src/dst
    bool all_nodes = false;
    double probability = 1.0;
    sim::Time amount = 0;
    // partition only: fabric-node groups (resolved from engine indices at
    // arm time) and the one-way flag.
    std::vector<net::NodeId> nodes_a;
    std::vector<net::NodeId> nodes_b;
    bool oneway = false;
  };

  void fire(const Event& ev);
  net::CallFault on_call(net::NodeId src, net::NodeId dst);
  sim::Time on_transfer(net::NodeId src, net::NodeId dst);
  bool window_matches(const Window& w, net::NodeId src, net::NodeId dst) const;

  net::RpcDomain& domain_;
  sim::Scheduler& sched_;
  Hooks hooks_;
  sim::Xoshiro256 rng_;
  std::vector<Window> windows_;
  std::vector<sim::Timer> timers_;
  std::uint64_t injected_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t delayed_ = 0;
  std::uint64_t partitioned_ = 0;
};

}  // namespace daosim::fault
