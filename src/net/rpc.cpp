#include "net/rpc.hpp"

namespace daosim::net {

RpcEndpoint::RpcEndpoint(RpcDomain& domain, NodeId node) : domain_(domain), node_(node) {
  auto [it, inserted] = domain_.endpoints_.emplace(node, this);
  (void)it;
  DAOSIM_REQUIRE(inserted, "duplicate RPC endpoint for node %u", node);
}

RpcEndpoint::~RpcEndpoint() { domain_.endpoints_.erase(node_); }

void RpcEndpoint::register_handler(std::uint16_t opcode, Handler h) {
  handlers_[opcode] = std::move(h);
}

void RpcEndpoint::set_telemetry(telemetry::Registry* reg) {
  telemetry_ = reg;
  op_metrics_.clear();
  inflight_gauge_ = reg ? &reg->find_or_create<telemetry::Gauge>("rpc/inflight") : nullptr;
}

RpcEndpoint::OpMetrics& RpcEndpoint::op_metrics(std::uint16_t opcode) {
  auto it = op_metrics_.find(opcode);
  if (it != op_metrics_.end()) return it->second;
  const std::string base = "rpc/" + domain_.opcode_name(opcode) + "/";
  OpMetrics m;
  m.sent = &telemetry_->find_or_create<telemetry::Counter>(base + "sent");
  m.completed = &telemetry_->find_or_create<telemetry::Counter>(base + "completed");
  m.timed_out = &telemetry_->find_or_create<telemetry::Counter>(base + "timed_out");
  m.busy = &telemetry_->find_or_create<telemetry::Counter>(base + "busy");
  m.latency = &telemetry_->find_or_create<telemetry::DurationHistogram>(base + "latency_ns");
  return op_metrics_.emplace(opcode, m).first->second;
}

sim::CoTask<Reply> RpcEndpoint::call(NodeId dst, std::uint16_t opcode, Body body,
                                     std::uint64_t request_bytes, sim::TraceContext ctx,
                                     Lane lane) {
  OpMetrics* m = telemetry_ != nullptr ? &op_metrics(opcode) : nullptr;
  if (inflight_ >= max_inflight_) {
    ++busy_rejections_;
    if (m) m->busy->inc();
    co_return Reply{Errno::busy, 0, {}};
  }
  InflightGuard guard(inflight_, inflight_gauge_);
  ++calls_;
  if (m) m->sent->inc();
  auto& fabric = domain_.fabric_;
  // Trace contexts: the client-side "rpc" span is a child of the caller's
  // context, the server-side "svc" span (emitted below, around the handler)
  // its child in turn. Span ids are allocated unconditionally — a pure
  // counter bump — so ids never depend on the sink or on sampling.
  const sim::TraceContext rpc_ctx = ctx.child(fabric.scheduler().alloc_span_id());
  const sim::TraceContext svc_ctx = rpc_ctx.child(fabric.scheduler().alloc_span_id());
  const sim::Time t0 = fabric.scheduler().now();
  // Span emission and metric recording are passive: they never schedule,
  // so attaching telemetry cannot perturb trace_hash() or timings.
  const auto emit_span = [&](const char* suffix) {
    if (sim::SpanSink* sink = fabric.scheduler().span_sink()) {
      sink->span("rpc", domain_.opcode_name(opcode) + suffix + strfmt(" ->%u", dst), node_,
                 opcode, t0, fabric.scheduler().now(), rpc_ctx);
    }
  };

  if (domain_.fault_hook_) {
    const CallFault fault = domain_.fault_hook_(node_, dst, opcode);
    if (fault.drop) {
      // The request vanished on the wire; the caller burns the full timeout.
      co_await fabric.scheduler().delay(kRpcTimeout);
      if (m) m->timed_out->inc();
      emit_span("!timeout");
      co_return Reply{Errno::timed_out, 0, {}};
    }
    if (fault.extra_delay > 0) co_await fabric.scheduler().delay(fault.extra_delay);
  }

  co_await fabric.transfer(node_, dst, request_bytes, rpc_ctx, lane);

  // The awaits between this lookup and its uses sit on co_return paths, and
  // endpoints_ nodes are erased only in ~RpcEndpoint (a crash flips down_,
  // it never unregisters), so the iterator cannot dangle here.
  auto it = domain_.endpoints_.find(dst);  // daosim-check: allow(ref-across-suspend): erase only in ~RpcEndpoint; awaits co_return
  if (it == domain_.endpoints_.end() || it->second->down_ || down_) {
    // Destination unreachable (crashed node / partition): model a timeout.
    co_await fabric.scheduler().delay(kRpcTimeout);
    if (m) m->timed_out->inc();
    emit_span("!timeout");
    co_return Reply{Errno::timed_out, 0, {}};
  }
  RpcEndpoint& server = *it->second;
  // Handlers are registered once at endpoint setup and never erased, so the
  // handler map cannot rehash under the co_await that invokes hit->second.
  auto hit = server.handlers_.find(opcode);  // daosim-check: allow(ref-across-suspend): handlers_ is insert-once at setup
  if (hit == server.handlers_.end()) {
    co_return Reply{Errno::not_supported, 0, {}};
  }
  ++server.served_;
  Request req{node_, request_bytes, std::move(body), svc_ctx};
  const sim::Time t_svc = fabric.scheduler().now();
  Reply reply = co_await hit->second(std::move(req));
  // Central server-side span: every handler (engine ops, DTX, rebuild, SWIM,
  // pool service) gets its service interval recorded without touching it.
  if (sim::SpanSink* sink = fabric.scheduler().span_sink()) {
    sink->span("svc", domain_.opcode_name(opcode), dst, opcode, t_svc,
               fabric.scheduler().now(), svc_ctx);
  }

  // The server may have crashed while the handler ran (the handler had
  // already mutated server state): the reply is lost, the caller times out.
  // This is exactly the window where a retry duplicate-applies an update.
  auto again = domain_.endpoints_.find(dst);
  if (again == domain_.endpoints_.end() || again->second->down_ || down_) {
    co_await fabric.scheduler().delay(kRpcTimeout);
    if (m) m->timed_out->inc();
    emit_span("!timeout");
    co_return Reply{Errno::timed_out, 0, {}};
  }
  // IV piggyback: stamp the callee's cached pool-map version on the reply.
  // Central so every handler gets it for free; reading the source is passive.
  if (again->second->map_version_source_) {
    reply.map_version = again->second->map_version_source_();
  }
  // Trace piggyback: stamp the server-side context on the reply, centrally,
  // so callers can link what served them without every handler cooperating.
  reply.ctx = svc_ctx;

  co_await fabric.transfer(dst, node_, reply.wire_bytes, rpc_ctx, lane);
  if (m) {
    m->completed->inc();
    m->latency->record(fabric.scheduler().now() - t0);
  }
  emit_span("");
  co_return reply;
}

}  // namespace daosim::net
