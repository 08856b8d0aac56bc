// Minimal typed RPC layer over the simulated fabric (the Mercury/CART
// equivalent in DAOS). A call moves the request body across the fabric,
// runs the registered coroutine handler on the destination node (handlers
// charge their own CPU/media time), then moves the reply back.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/error.hpp"
#include "net/fabric.hpp"
#include "sim/co_task.hpp"
#include "telemetry/telemetry.hpp"

namespace daosim::net {

/// Type-erased message body. Bodies are shared_ptr-held so zero-copy
/// "serialization" is safe while the wire size still drives timing.
class Body {
 public:
  Body() = default;
  template <typename T>
  static Body make(T value) {
    Body b;
    b.ptr_ = std::make_shared<T>(std::move(value));
    return b;
  }
  template <typename T>
  const T& get() const {
    DAOSIM_REQUIRE(ptr_, "empty RPC body");
    return *std::static_pointer_cast<const T>(ptr_);
  }
  template <typename T>
  T& get() {
    DAOSIM_REQUIRE(ptr_, "empty RPC body");
    return *std::static_pointer_cast<T>(ptr_);
  }
  bool has_value() const { return ptr_ != nullptr; }

 private:
  std::shared_ptr<void> ptr_;
};

struct Reply {
  Errno status = Errno::ok;
  std::uint64_t wire_bytes = 0;  // reply payload size for timing
  Body body;
  /// IV piggyback: the callee's cached pool-map version, stamped on every
  /// served reply when the callee installed a map-version source (engines
  /// do). 0 = no source; callers treat it as "no information". This is how
  /// clients learn about map changes passively instead of polling.
  std::uint32_t map_version = 0;
  /// Causal trace context of the server-side span that produced this reply,
  /// stamped centrally in RpcEndpoint::call (like map_version). Inactive
  /// when the call was not part of a sampled trace.
  sim::TraceContext ctx{};
};

struct Request {
  NodeId source = 0;
  std::uint64_t wire_bytes = 0;  // request payload size for timing
  Body body;
  /// Causal trace context for the handler: the server-side "svc" span's own
  /// context, stamped centrally in RpcEndpoint::call. Handlers derive child
  /// spans (queue wait, VOS, media) from it with ctx.child().
  sim::TraceContext ctx;
};

using Handler = std::function<sim::CoTask<Reply>(Request)>;

class RpcEndpoint;

/// Per-call fault-injection verdict (see RpcDomain::set_fault_hook).
struct CallFault {
  bool drop = false;          // swallow the request: caller sees a timeout
  sim::Time extra_delay = 0;  // added to the request path before the wire
};

/// One RPC address space per fabric: resolves NodeId -> endpoint.
class RpcDomain {
 public:
  explicit RpcDomain(Fabric& fabric) : fabric_(fabric) {}
  RpcDomain(const RpcDomain&) = delete;
  RpcDomain& operator=(const RpcDomain&) = delete;

  Fabric& fabric() { return fabric_; }
  sim::Scheduler& scheduler() { return fabric_.scheduler(); }

  /// Fault-injection hook: consulted at the top of every call. Dropped calls
  /// burn the full RPC timeout (the client cannot tell a dropped request from
  /// a dead server). The hook must be deterministic for a given
  /// (src, dst, opcode, virtual time) or traces diverge.
  using FaultHook = std::function<CallFault(NodeId src, NodeId dst, std::uint16_t opcode)>;
  void set_fault_hook(FaultHook h) { fault_hook_ = std::move(h); }

  /// Human-readable opcode label used in metric paths and trace spans
  /// ("update", "rebuild_scan"). Unnamed opcodes fall back to "op%04x".
  void name_opcode(std::uint16_t opcode, std::string name) {
    opcode_names_[opcode] = std::move(name);
  }
  std::string opcode_name(std::uint16_t opcode) const {
    const auto it = opcode_names_.find(opcode);
    return it != opcode_names_.end() ? it->second : strfmt("op%04x", opcode);
  }

 private:
  friend class RpcEndpoint;
  Fabric& fabric_;
  std::unordered_map<NodeId, RpcEndpoint*> endpoints_;
  FaultHook fault_hook_;
  std::map<std::uint16_t, std::string> opcode_names_;
};

/// Per-node RPC endpoint: registers handlers, issues calls.
class RpcEndpoint {
 public:
  RpcEndpoint(RpcDomain& domain, NodeId node);
  ~RpcEndpoint();
  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  NodeId node() const { return node_; }
  RpcDomain& domain() { return domain_; }

  void register_handler(std::uint16_t opcode, Handler h);

  /// Issues an RPC to `dst` and awaits the reply. Calls to nodes without an
  /// endpoint or handler fail with Errno::no_entry / Errno::not_supported.
  /// `ctx` is the caller's trace context: the RPC's client-side span becomes
  /// its child and the server-side handler span a grandchild; both request
  /// and reply are stamped centrally here (see Request::ctx / Reply::ctx).
  /// Request and reply both travel on `lane`.
  sim::CoTask<Reply> call(NodeId dst, std::uint16_t opcode, Body body,
                          std::uint64_t request_bytes, sim::TraceContext ctx = {},
                          Lane lane = Lane::bulk);

  /// Marks this endpoint unreachable (for failure injection); calls to it
  /// time out with Errno::timed_out after `timeout`.
  void set_down(bool down) { down_ = down; }
  bool is_down() const { return down_; }

  /// Bounds concurrent outgoing calls from this endpoint. Calls beyond the
  /// cap fail immediately with Errno::busy instead of parking a waiter —
  /// otherwise a retry storm against a dead node grows the event queue
  /// without bound (every unreachable call holds a timeout timer).
  void set_max_inflight(std::size_t n) { max_inflight_ = n; }
  std::size_t inflight_calls() const { return inflight_; }
  std::uint64_t busy_rejections() const { return busy_rejections_; }

  std::uint64_t calls_made() const { return calls_; }
  std::uint64_t calls_served() const { return served_; }

  /// Installs the IV piggyback source: every reply served by this endpoint
  /// is stamped with the value it returns (the engine's cached pool-map
  /// version). Stamping is passive — reading the source takes no virtual
  /// time and schedules nothing. nullptr-equivalent (default) stamps 0.
  void set_map_version_source(std::function<std::uint32_t()> f) {
    map_version_source_ = std::move(f);
  }

  /// Attaches a metric registry: per-opcode sent/completed/timed_out/busy
  /// counters and a completed-call latency histogram land under
  /// "rpc/<opcode name>/", plus an in-flight gauge at "rpc/inflight".
  /// Recording is passive (no scheduling); nullptr detaches.
  void set_telemetry(telemetry::Registry* reg);
  telemetry::Registry* telemetry() const { return telemetry_; }

 private:
  struct OpMetrics {
    telemetry::Counter* sent = nullptr;
    telemetry::Counter* completed = nullptr;
    telemetry::Counter* timed_out = nullptr;
    telemetry::Counter* busy = nullptr;
    telemetry::DurationHistogram* latency = nullptr;
  };

  struct InflightGuard {
    InflightGuard(std::size_t& n, telemetry::Gauge* g) : n_(n), g_(g) {
      ++n_;
      if (g_) g_->set(std::int64_t(n_));
    }
    ~InflightGuard() {
      --n_;
      if (g_) g_->set(std::int64_t(n_));
    }
    InflightGuard(const InflightGuard&) = delete;
    InflightGuard& operator=(const InflightGuard&) = delete;
    std::size_t& n_;
    telemetry::Gauge* g_;
  };

  /// Lazily builds the per-opcode metric set; requires telemetry_ != null.
  OpMetrics& op_metrics(std::uint16_t opcode);

  RpcDomain& domain_;
  NodeId node_;
  bool down_ = false;
  std::unordered_map<std::uint16_t, Handler> handlers_;
  std::uint64_t calls_ = 0;
  std::uint64_t served_ = 0;
  std::size_t inflight_ = 0;
  std::size_t max_inflight_ = 1024;
  std::uint64_t busy_rejections_ = 0;
  std::function<std::uint32_t()> map_version_source_;
  telemetry::Registry* telemetry_ = nullptr;
  telemetry::Gauge* inflight_gauge_ = nullptr;
  std::unordered_map<std::uint16_t, OpMetrics> op_metrics_;  // keyed lookups only
};

/// Timeout used when calling an unreachable node.
constexpr sim::Time kRpcTimeout = 100 * sim::kMs;

}  // namespace daosim::net
