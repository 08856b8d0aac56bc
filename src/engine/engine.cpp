#include "engine/engine.hpp"

#include <algorithm>
#include <cinttypes>

namespace daosim::engine {

using net::Body;
using net::Reply;
using net::Request;

Engine::Engine(net::RpcDomain& domain, net::NodeId node, media::DcpmmInterleaveSet& media,
               EngineConfig cfg)
    : ep_(domain, node),
      sched_(domain.scheduler()),
      media_(media),
      cfg_(cfg),
      metrics_(strfmt("engine/%u", node)) {
  DAOSIM_REQUIRE(cfg_.targets > 0, "engine needs at least one target");
  // Per-target sustained rates (xstream-bound); the shared interleave-set
  // pipe still caps the socket aggregate.
  for (std::uint32_t i = 0; i < cfg_.targets; ++i) {
    targets_.push_back(std::make_unique<Target>(sched_, cfg_.payload, cfg_.target_read_bw,
                                                cfg_.target_write_bw));
    targets_.back()->idx = i;
    targets_.back()->queue_depth =
        &metrics_.find_or_create<telemetry::StatGauge>(strfmt("target/%u/queue_depth", i));
  }
  ep_.set_telemetry(&metrics_);
  ep_.set_map_version_source([this] { return cached_map_version_; });
  update_extents_ = &metrics_.find_or_create<telemetry::DurationHistogram>(
      "rpc/obj_update/extents_per_rpc");
  fetch_extents_ = &metrics_.find_or_create<telemetry::DurationHistogram>(
      "rpc/obj_fetch/extents_per_rpc");
  metrics_.add_probe("vos/tree_lookups", [this] {
    std::uint64_t n = 0;
    for (const auto& t : targets_) n += t->vos.tree_stats().lookups;
    return n;
  });
  metrics_.add_probe("vos/tree_inserts", [this] {
    std::uint64_t n = 0;
    for (const auto& t : targets_) n += t->vos.tree_stats().inserts;
    return n;
  });
  metrics_.add_probe("vos/extent_merges", [this] {
    std::uint64_t n = 0;
    for (const auto& t : targets_) n += t->vos.tree_stats().extent_merges;
    return n;
  });
  metrics_.add_probe("vos/extent_probes", [this] {
    std::uint64_t n = 0;
    for (const auto& t : targets_) n += t->vos.tree_stats().extent_probes;
    return n;
  });
  metrics_.add_probe("svc/updates", [this] { return updates_; });
  metrics_.add_probe("svc/fetches", [this] { return fetches_; });
  metrics_.add_probe("svc/stream_misses", [this] { return cache_misses_; });
  ep_.register_handler(kOpObjUpdate, [this](Request r) { return on_update(std::move(r)); });
  ep_.register_handler(kOpObjFetch, [this](Request r) { return on_fetch(std::move(r)); });
  ep_.register_handler(kOpObjEnumDkeys,
                       [this](Request r) { return on_enum_dkeys(std::move(r)); });
  ep_.register_handler(kOpObjEnumAkeys,
                       [this](Request r) { return on_enum_akeys(std::move(r)); });
  ep_.register_handler(kOpObjPunch, [this](Request r) { return on_punch(std::move(r)); });
  ep_.register_handler(kOpObjQuery, [this](Request r) { return on_query(std::move(r)); });
}

Engine::Target& Engine::target_for(std::uint32_t idx) {
  DAOSIM_REQUIRE(idx < targets_.size(), "target index %u out of range", idx);
  return *targets_[idx];
}

namespace {
/// Poll period while an epoch-bounded read waits out a prepared transaction.
/// Decisions normally land within a round trip; the worst case (crashed
/// coordinator, dead leader) is bounded by the DTX reaper's settle paths.
constexpr sim::Time kDtxReadRetryTick = 10 * sim::kMs;
}  // namespace

sim::CoTask<void> Engine::dtx_read_barrier(Target& t, vos::Uuid cont, vos::Epoch epoch) {
  // A transaction prepared below the read epoch is invisible now, but its
  // commit would apply at that older epoch and retroactively appear in later
  // reads of the same snapshot. Wait until every such entry settles (the
  // reaper guarantees each one eventually commits or aborts), so a given
  // epoch always reads the same bytes. Plain reads (kEpochMax) keep
  // read-committed semantics and never wait.
  if (epoch == vos::kEpochMax) co_return;
  for (;;) {
    // Floor copied out as a value: no container reference spans the delay.
    const vos::Epoch floor = t.vos.container(cont).dtx_min_prepared_epoch();
    if (floor > epoch) co_return;
    co_await sched_.delay(kDtxReadRetryTick);
  }
}

telemetry::DurationHistogram* Engine::svc_enter(Target& t, const char* op) {
  // Queue depth as seen by an arriving request: callers already holding or
  // waiting on the target's xstream.
  t.queue_depth->sample(double(t.xstream.waiting()));
  return &metrics_.find_or_create<telemetry::DurationHistogram>(
      std::string("svc/") + op + "/time_ns");
}

void Engine::stall_target(std::uint32_t idx, sim::Time duration) {
  Target& t = target_for(idx);  // targets_ holds unique_ptrs: the ref is stable
  // &t and this outlive the frame: targets_ owns t by unique_ptr and the
  // Engine owns the scheduler's workload for the whole run.
  sched_.spawn([&t, duration, this]() -> sim::CoTask<void> {  // daosim-check: allow(ref-capture-spawn): Engine and unique_ptr target outlive the run
    co_await t.xstream.acquire();
    co_await sched_.delay(duration);
    t.xstream.release();
  });
}

sim::Time Engine::stream_context_touch(Target& t, vos::Uuid cont, vos::ObjId oid,
                                       bool write) {
  const auto key = std::make_pair(cont, oid);
  auto it = std::find(t.stream_lru.begin(), t.stream_lru.end(), key);
  if (it != t.stream_lru.end()) {
    t.stream_lru.erase(it);
    t.stream_lru.push_back(key);
    return 0;
  }
  ++cache_misses_;
  t.stream_lru.push_back(key);
  if (t.stream_lru.size() > cfg_.stream_contexts) t.stream_lru.pop_front();
  return write ? cfg_.stream_switch_write : cfg_.stream_switch_read;
}

sim::CoTask<void> Engine::media_write(Target& t, std::uint64_t bytes, sim::TraceContext ctx) {
  const sim::TraceContext media_ctx = ctx.child(sched_.alloc_span_id());
  const sim::Time t0 = sched_.now();
  // Target slice and socket pipe are charged concurrently: the slice models
  // the xstream's DIMM-channel share, the pipe the socket aggregate.
  std::vector<sim::CoTask<void>> stages;
  stages.push_back([](sim::SharedBandwidth& bw, std::uint64_t b) -> sim::CoTask<void> {
    co_await bw.transfer(b);
  }(t.write_slice, bytes));
  stages.push_back(media_.write(bytes));
  co_await sim::when_all(sched_, std::move(stages));
  if (sim::SpanSink* sink = sched_.span_sink()) {
    sink->span("media", strfmt("write %" PRIu64 "B", bytes), ep_.node(), t.idx, t0,
               sched_.now(), media_ctx);
  }
}

sim::CoTask<void> Engine::media_read(Target& t, std::uint64_t bytes, sim::TraceContext ctx) {
  const sim::TraceContext media_ctx = ctx.child(sched_.alloc_span_id());
  const sim::Time t0 = sched_.now();
  std::vector<sim::CoTask<void>> stages;
  stages.push_back([](sim::SharedBandwidth& bw, std::uint64_t b) -> sim::CoTask<void> {
    co_await bw.transfer(b);
  }(t.read_slice, bytes));
  stages.push_back(media_.read(bytes));
  co_await sim::when_all(sched_, std::move(stages));
  if (sim::SpanSink* sink = sched_.span_sink()) {
    sink->span("media", strfmt("read %" PRIu64 "B", bytes), ep_.node(), t.idx, t0,
               sched_.now(), media_ctx);
  }
}

sim::CoTask<void> Engine::xstream_exec(Target& t, sim::Time cpu, sim::TraceContext ctx) {
  const sim::TraceContext queue_ctx = ctx.child(sched_.alloc_span_id());
  const sim::TraceContext vos_ctx = ctx.child(sched_.alloc_span_id());
  const sim::Time t0 = sched_.now();
  co_await t.xstream.acquire();
  const sim::Time t1 = sched_.now();
  if (sim::SpanSink* sink = sched_.span_sink()) {
    sink->span("queue", strfmt("target %u wait", t.idx), ep_.node(), t.idx, t0, t1, queue_ctx);
  }
  co_await sched_.delay(cpu);
  t.xstream.release();
  if (sim::SpanSink* sink = sched_.span_sink()) {
    sink->span("vos", strfmt("target %u cpu", t.idx), ep_.node(), t.idx, t1, sched_.now(),
               vos_ctx);
  }
}

sim::CoTask<void> Engine::rebuild_read(std::uint32_t idx, std::uint64_t bytes,
                                       sim::TraceContext ctx) {
  Target& t = target_for(idx);
  co_await xstream_exec(t, cfg_.fetch_cpu, ctx);
  co_await media_read(t, bytes + 64, ctx);
}

sim::CoTask<void> Engine::rebuild_write(std::uint32_t idx, std::uint64_t bytes,
                                        sim::TraceContext ctx) {
  Target& t = target_for(idx);
  co_await xstream_exec(t, cfg_.update_cpu, ctx);
  co_await media_write(t, bytes + 64, ctx);
}

namespace {
/// An array request's extents in VOS form, and their total length.
std::uint64_t vos_extents(const std::vector<IoExtent>& extents,
                          std::vector<vos::VosContainer::ArrayExtent>& out) {
  std::uint64_t total = 0;
  out.reserve(extents.size());
  for (const IoExtent& e : extents) {
    out.push_back({e.dkey, e.offset, e.length, e.payload_off});
    total += e.length;
  }
  return total;
}
}  // namespace

sim::CoTask<net::Reply> Engine::on_update(net::Request req) {
  auto& r = req.body.get<ObjUpdateReq>();
  Target& t = target_for(r.target);
  ++updates_;
  const std::size_t nex = r.extents.empty() ? 1 : r.extents.size();
  update_extents_->record(sim::Time(nex));
  const sim::Time svc_t0 = sched_.now();
  telemetry::DurationHistogram* svc = svc_enter(t, "update");

  // A stream-context miss occupies the target's xstream (serialised): a
  // target fed from many distinct objects loses throughput, not just latency.
  // A request pays one queue entry and one context touch; only the marginal
  // per-descriptor CPU scales with the extent count.
  const sim::Time sw = stream_context_touch(t, r.cont, r.oid, /*write=*/true);
  co_await xstream_exec(t, cfg_.update_cpu + sim::Time(nex - 1) * cfg_.update_cpu_extent + sw,
                        req.ctx);

  if (r.type == RecordType::array) {
    std::vector<vos::VosContainer::ArrayExtent> exts;
    const std::uint64_t total = vos_extents(r.extents, exts);
    // Records + per-extent tree-node writes.
    co_await media_write(t, total + 64 * nex, req.ctx);
    // Shard lookup deliberately after the last suspension: never hold a
    // storage reference across a media await (suspension-safety audit).
    vos::VosContainer& cont = t.vos.container(r.cont);
    cont.observe_time(vos::hlc_base(sched_.now()));
    cont.array_write_extents(r.oid, r.akey, exts, r.data);
    if (r.array_end_hint > 0) cont.note_array_end(r.oid, r.array_end_hint);
    svc->record(sched_.now() - svc_t0);
    co_return Reply{Errno::ok, kObjRpcHeader, {}};
  }

  co_await media_write(t, r.length + 64, req.ctx);  // record + tree-node write

  vos::VosContainer& cont = t.vos.container(r.cont);
  if (r.cond_insert && cont.kv_get(r.oid, r.dkey, r.akey, vos::kEpochMax).exists) {
    svc->record(sched_.now() - svc_t0);
    co_return Reply{Errno::exists, kObjRpcHeader, {}};
  }
  cont.observe_time(vos::hlc_base(sched_.now()));
  std::span<const std::byte> data;
  if (r.data != nullptr) data = std::span<const std::byte>(*r.data);
  cont.kv_put(r.oid, r.dkey, r.akey, data, cont.next_epoch());
  svc->record(sched_.now() - svc_t0);
  co_return Reply{Errno::ok, kObjRpcHeader, {}};
}

sim::CoTask<net::Reply> Engine::on_fetch(net::Request req) {
  auto& r = req.body.get<ObjFetchReq>();
  Target& t = target_for(r.target);
  ++fetches_;
  const std::size_t nex = r.extents.empty() ? 1 : r.extents.size();
  fetch_extents_->record(sim::Time(nex));
  co_await dtx_read_barrier(t, r.cont, r.epoch);
  const sim::Time svc_t0 = sched_.now();
  telemetry::DurationHistogram* svc = svc_enter(t, "fetch");

  const sim::Time sw = stream_context_touch(t, r.cont, r.oid, /*write=*/false);
  co_await xstream_exec(t, cfg_.fetch_cpu + sim::Time(nex - 1) * cfg_.fetch_cpu_extent + sw,
                        req.ctx);

  ObjFetchResp resp;
  std::uint64_t reply_bytes = 0;
  if (r.type == RecordType::array) {
    // A zero-extent fetch (a liveness probe) is charged as one empty extent.
    std::vector<vos::VosContainer::ArrayExtent> exts;
    const std::uint64_t total = vos_extents(r.extents, exts);
    co_await media_read(t, total + 64 * nex, req.ctx);
    // Shard lookup after the last suspension (see on_update).
    vos::VosContainer& cont = t.vos.container(r.cont);
    resp.fills.resize(r.extents.size());
    // Store mode replies with slices of the stored buffers: no byte is
    // copied here, and later writes never change what the slices read.
    std::vector<vos::Slice>* slices =
        cfg_.payload == vos::PayloadMode::store ? &resp.slices : nullptr;
    resp.filled = cont.array_read_extents(r.oid, r.akey, exts, slices, resp.fills, r.epoch);
    resp.exists = resp.filled > 0;
    reply_bytes = total + std::uint64_t(nex - 1) * kExtentDescBytes;
  } else {
    // The record is copied before the media wait: `view` spans the resolved
    // version, which a newer put plus an aggregation pass during the wait
    // may drop.
    const auto view = t.vos.container(r.cont).kv_get(r.oid, r.dkey, r.akey, r.epoch);
    resp.exists = view.exists;
    if (view.exists) {
      resp.value.assign(view.data.begin(), view.data.end());
      resp.filled = view.size;
    }
    reply_bytes = view.size;
    co_await media_read(t, view.size + 64, req.ctx);
  }
  svc->record(sched_.now() - svc_t0);
  co_return Reply{Errno::ok, kObjRpcHeader + reply_bytes, Body::make(std::move(resp))};
}

sim::CoTask<net::Reply> Engine::on_enum_dkeys(net::Request req) {
  auto& r = req.body.get<ObjEnumReq>();
  Target& t = target_for(r.target);
  co_await dtx_read_barrier(t, r.cont, r.epoch);
  const sim::Time svc_t0 = sched_.now();
  telemetry::DurationHistogram* svc = svc_enter(t, "enum_dkeys");

  co_await xstream_exec(t, cfg_.enum_cpu, req.ctx);

  ObjEnumResp resp;
  resp.keys = t.vos.container(r.cont).list_dkeys(r.oid, r.epoch);
  std::uint64_t bytes = kObjRpcHeader;
  for (const auto& k : resp.keys) bytes += k.size() + 8;
  co_await media_read(t, bytes, req.ctx);
  svc->record(sched_.now() - svc_t0);
  co_return Reply{Errno::ok, bytes, Body::make(std::move(resp))};
}

sim::CoTask<net::Reply> Engine::on_enum_akeys(net::Request req) {
  auto& r = req.body.get<ObjEnumReq>();
  Target& t = target_for(r.target);
  co_await dtx_read_barrier(t, r.cont, r.epoch);
  const sim::Time svc_t0 = sched_.now();
  telemetry::DurationHistogram* svc = svc_enter(t, "enum_akeys");

  co_await xstream_exec(t, cfg_.enum_cpu, req.ctx);

  ObjEnumResp resp;
  resp.keys = t.vos.container(r.cont).list_akeys(r.oid, r.dkey, r.epoch);
  std::uint64_t bytes = kObjRpcHeader;
  for (const auto& k : resp.keys) bytes += k.size() + 8;
  co_await media_read(t, bytes, req.ctx);
  svc->record(sched_.now() - svc_t0);
  co_return Reply{Errno::ok, bytes, Body::make(std::move(resp))};
}

sim::CoTask<net::Reply> Engine::on_punch(net::Request req) {
  auto& r = req.body.get<ObjPunchReq>();
  Target& t = target_for(r.target);
  const sim::Time svc_t0 = sched_.now();
  telemetry::DurationHistogram* svc = svc_enter(t, "punch");

  co_await xstream_exec(t, cfg_.punch_cpu, req.ctx);
  co_await media_write(t, 64, req.ctx);

  auto& cont = t.vos.container(r.cont);
  cont.observe_time(vos::hlc_base(sched_.now()));
  const vos::Epoch epoch = cont.next_epoch();
  cont.punch(r.oid, r.scope, r.dkey, r.akey, epoch);
  svc->record(sched_.now() - svc_t0);
  co_return Reply{Errno::ok, kObjRpcHeader, {}};
}

sim::CoTask<net::Reply> Engine::on_query(net::Request req) {
  auto& r = req.body.get<ObjQueryReq>();
  Target& t = target_for(r.target);
  co_await dtx_read_barrier(t, r.cont, r.epoch);
  const sim::Time svc_t0 = sched_.now();
  telemetry::DurationHistogram* svc = svc_enter(t, "query");

  co_await xstream_exec(t, cfg_.fetch_cpu, req.ctx);
  co_await media_read(t, 64, req.ctx);

  ObjQueryResp resp;
  auto& cont = t.vos.container(r.cont);
  switch (r.kind) {
    case QueryKind::array_end_hint: resp.value = cont.array_end_hint(r.oid); break;
    case QueryKind::dkey_array_size:
      resp.value = cont.array_size(r.oid, r.dkey, r.akey, r.epoch);
      break;
  }
  svc->record(sched_.now() - svc_t0);
  co_return Reply{Errno::ok, kObjRpcHeader, Body::make(resp)};
}

}  // namespace daosim::engine
