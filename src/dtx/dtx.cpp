#include "dtx/dtx.hpp"

#include <set>
#include <utility>

namespace daosim::dtx {

using net::Body;
using net::Reply;

namespace {
// Trace tags folded into the deterministic run hash (0xFA17E009..E00D).
constexpr std::uint64_t kTraceTxPrepare = 0xFA17E009'0000'0000ULL;
constexpr std::uint64_t kTraceTxCommit = 0xFA17E00A'0000'0000ULL;
constexpr std::uint64_t kTraceTxAbort = 0xFA17E00B'0000'0000ULL;
constexpr std::uint64_t kTraceTxResolve = 0xFA17E00C'0000'0000ULL;
constexpr std::uint64_t kTraceTxReap = 0xFA17E00D'0000'0000ULL;

constexpr std::uint64_t tx_tag(std::uint64_t client, std::uint64_t seq) {
  return (client << 32) ^ seq;
}
}  // namespace

DtxService::DtxService(engine::Engine& eng, pool::PoolMap base_map, DtxConfig cfg)
    : eng_(eng),
      sched_(eng.endpoint().domain().scheduler()),
      base_map_(std::move(base_map)),
      cfg_(cfg) {
  eng_.endpoint().register_handler(
      engine::kOpTxPrepare, [this](net::Request req) { return on_prepare(std::move(req)); });
  eng_.endpoint().register_handler(
      engine::kOpTxCommit, [this](net::Request req) { return on_commit(std::move(req)); });
  eng_.endpoint().register_handler(
      engine::kOpTxAbort, [this](net::Request req) { return on_abort(std::move(req)); });
  eng_.endpoint().register_handler(
      engine::kOpTxResolve, [this](net::Request req) { return on_resolve(std::move(req)); });
  eng_.endpoint().register_handler(engine::kOpContAggregate, [this](net::Request req) {
    return on_aggregate(std::move(req));
  });
  telemetry::Registry& reg = eng_.telemetry();
  prepares_ = &reg.find_or_create<telemetry::Counter>("dtx/prepares");
  conflicts_ = &reg.find_or_create<telemetry::Counter>("dtx/conflicts");
  commits_ = &reg.find_or_create<telemetry::Counter>("dtx/commits");
  aborts_ = &reg.find_or_create<telemetry::Counter>("dtx/aborts");
  resolves_ = &reg.find_or_create<telemetry::Counter>("dtx/resolves");
  orphans_aborted_ = &reg.find_or_create<telemetry::Counter>("dtx/orphans_aborted");
  resyncs_resolved_ = &reg.find_or_create<telemetry::Counter>("dtx/resyncs_resolved");
}

std::uint64_t DtxService::orphans_aborted() const { return orphans_aborted_->value(); }
std::uint64_t DtxService::resyncs_resolved() const { return resyncs_resolved_->value(); }

void DtxService::start() {
  if (running_) return;
  running_ = true;
  sim::CoTask<void> loop = reaper_loop();
  sched_.spawn(std::move(loop));
}

void DtxService::stop() { running_ = false; }

void DtxService::note_restart() {
  // Delay one tick so the endpoint is back up before resolve RPCs go out
  // (the harness pins restart state before reopening the endpoint).
  sim::CoTask<void> task = [](DtxService* self) -> sim::CoTask<void> {
    co_await self->sched_.delay(10 * sim::kMs);
    co_await self->sweep(/*force=*/true);
  }(this);
  sched_.spawn(std::move(task));
}

sim::CoTask<net::Reply> DtxService::on_prepare(net::Request req) {
  const auto& r = req.body.get<engine::TxPrepareReq>();
  std::uint64_t bytes = 0;
  for (const auto& op : r.ops) bytes += op.length;
  // Staging cost: the prepare record persists the ops plus a table entry
  // through the target's xstream and media write path, like a foreground
  // update (rebuild_write charges exactly that).
  co_await eng_.rebuild_write(r.target, bytes + 64 * (r.ops.size() + 1));
  // Shard lookup after the last suspension (suspension-safety audit).
  vos::VosContainer& cont = eng_.vos_target(r.target).container(r.cont);
  vos::DtxEntry entry;
  entry.id = vos::DtxId{r.tx_client, r.tx_seq};
  entry.epoch = r.epoch;
  entry.leader = r.leader;
  entry.prepared_at = sched_.now();
  entry.ops.reserve(r.ops.size());
  for (const auto& op : r.ops) {
    vos::DtxOp o;
    o.oid = op.oid;
    o.dkey = op.dkey;
    o.akey = op.akey;
    o.single_value = op.type == engine::RecordType::single_value;
    o.offset = op.offset;
    o.length = op.length;
    o.array_end_hint = op.array_end_hint;
    o.data = op.data;
    entry.ops.push_back(std::move(o));
  }
  const Errno st = cont.dtx_prepare(std::move(entry));
  prepares_->inc();
  if (st == Errno::tx_restart) conflicts_->inc();
  sched_.trace_note(kTraceTxPrepare ^ tx_tag(r.tx_client, r.tx_seq));
  co_return Reply{st, engine::kObjRpcHeader, {}};
}

sim::CoTask<net::Reply> DtxService::on_commit(net::Request req) {
  const auto& r = req.body.get<engine::TxDecideReq>();
  co_await eng_.rebuild_write(r.target, 64);  // decision record
  vos::VosContainer& cont = eng_.vos_target(r.target).container(r.cont);
  const bool ok = cont.dtx_commit(vos::DtxId{r.tx_client, r.tx_seq});
  commits_->inc();
  sched_.trace_note(kTraceTxCommit ^ tx_tag(r.tx_client, r.tx_seq));
  // A commit that runs into a sticky abort (the reaper won the race) tells
  // the coordinator to restart.
  co_return Reply{ok ? Errno::ok : Errno::tx_restart, engine::kObjRpcHeader, {}};
}

sim::CoTask<net::Reply> DtxService::on_abort(net::Request req) {
  const auto& r = req.body.get<engine::TxDecideReq>();
  co_await eng_.rebuild_write(r.target, 64);
  vos::VosContainer& cont = eng_.vos_target(r.target).container(r.cont);
  const vos::DtxId id{r.tx_client, r.tx_seq};
  cont.dtx_abort(id);
  aborts_->inc();
  sched_.trace_note(kTraceTxAbort ^ tx_tag(r.tx_client, r.tx_seq));
  // Report the decision that now stands: `aborted` normally, `committed`
  // when a sticky commit record already existed. The participant fence path
  // (settle) needs to know which way the race went.
  engine::TxResolveResp resp;
  resp.state = cont.dtx_state(id);
  co_return Reply{Errno::ok, engine::kObjRpcHeader, Body::make(resp)};
}

sim::CoTask<net::Reply> DtxService::on_resolve(net::Request req) {
  const auto& r = req.body.get<engine::TxResolveReq>();
  co_await eng_.rebuild_read(r.target, 64);
  vos::VosContainer& cont = eng_.vos_target(r.target).container(r.cont);
  engine::TxResolveResp resp;
  resp.state = cont.dtx_state(vos::DtxId{r.tx_client, r.tx_seq});
  co_return Reply{Errno::ok, engine::kObjRpcHeader, Body::make(resp)};
}

sim::CoTask<net::Reply> DtxService::on_aggregate(net::Request req) {
  const auto& r = req.body.get<engine::ContAggregateReq>();
  co_await eng_.rebuild_write(r.target, 64);
  eng_.vos_target(r.target).container(r.cont).aggregate(r.upto);
  co_return Reply{Errno::ok, engine::kObjRpcHeader, {}};
}

sim::CoTask<void> DtxService::reaper_loop() {
  while (running_) {
    co_await sched_.delay(cfg_.reap_tick);
    if (!running_) break;
    if (eng_.endpoint().is_down()) continue;  // a crashed engine acts on restart
    co_await sweep(/*force=*/false);
  }
}

std::vector<DtxService::SweepItem> DtxService::collect_prepared() const {
  std::vector<SweepItem> items;
  const sim::Time now = sched_.now();
  for (std::uint32_t t = 0; t < eng_.target_count(); ++t) {
    vos::VosTarget& vt = eng_.vos_target(t);
    for (const vos::Uuid& uuid : vt.list_containers()) {
      const vos::VosContainer* cont = vt.find_container(uuid);
      if (cont == nullptr) continue;
      for (const vos::DtxId& id : cont->dtx_prepared_ids()) {
        const vos::DtxEntry* e = cont->dtx_find_prepared(id);
        if (e == nullptr) continue;
        items.push_back(SweepItem{t, uuid, id, e->leader,
                                  now - sim::Time(e->prepared_at)});
      }
    }
  }
  return items;
}

sim::CoTask<void> DtxService::sweep(bool force) {
  if (sweeping_) co_return;
  sweeping_ = true;
  // Copy the worklist out of VOS first: settle() suspends on RPCs and media,
  // and no container reference may live across those suspensions.
  const std::vector<SweepItem> items = collect_prepared();
  // Drop failure counters for entries that settled by other means (a late
  // client decision landed between sweeps), so the map cannot grow without
  // bound and a re-prepared id starts from a clean count.
  std::set<EntryKey> live;
  for (const SweepItem& item : items) live.insert({item.target, item.cont, item.id});
  std::erase_if(resolve_failures_,
                [&live](const auto& kv) { return !live.contains(kv.first); });
  for (const SweepItem& item : items) {
    if (!force && item.age < cfg_.orphan_timeout) continue;
    co_await settle(item);
  }
  sweeping_ = false;
}

sim::CoTask<void> DtxService::settle(SweepItem item) {
  DAOSIM_REQUIRE(item.leader < base_map_.targets.size(), "dtx leader out of range");
  const pool::TargetRef lt = base_map_.targets[item.leader];
  vos::DtxState verdict = vos::DtxState::unknown;
  if (lt.engine == eng_.node()) {
    // The leader shard lives on this engine: consult its tables directly
    // (no suspension, so the transient container references are safe).
    verdict = eng_.vos_target(lt.target).container(item.cont).dtx_state(item.id);
    if (verdict == vos::DtxState::prepared || verdict == vos::DtxState::unknown) {
      if (item.age < cfg_.orphan_timeout) co_return;
      // Authoritative orphan abort: the coordinator is gone, and the sticky
      // decision sends any late commit attempt into tx_restart.
      eng_.vos_target(lt.target).container(item.cont).dtx_abort(item.id);
      orphans_aborted_->inc();
      sched_.trace_note(kTraceTxReap ^ tx_tag(item.id.client, item.id.seq));
      verdict = vos::DtxState::aborted;
    }
  } else {
    const EntryKey fkey{item.target, item.cont, item.id};
    resolves_->inc();
    engine::TxResolveReq rreq;
    rreq.cont = item.cont;
    rreq.tx_client = item.id.client;
    rreq.tx_seq = item.id.seq;
    rreq.target = lt.target;
    Body body = Body::make(rreq);
    Reply rep = co_await eng_.endpoint().call(lt.engine, engine::kOpTxResolve, std::move(body),
                                              engine::kObjRpcHeader);
    if (rep.status != Errno::ok) {
      // Leader unreachable. Normally the next sweep just retries, but a
      // leader engine that is gone for good would leave this entry prepared
      // forever, pinning dtx_min_prepared_epoch and the aggregation floor.
      // Commit requires the leader's durable decision record, which nobody
      // else can reach either, so once this engine's pool map shows the
      // leader's engine EXCLUDED — or resolves have kept failing well past
      // the orphan window (the backstop for maps that never converge) — an
      // abort is authoritative.
      if (item.age < cfg_.orphan_timeout) co_return;
      const std::uint32_t failures = ++resolve_failures_[fkey];
      if (failures < cfg_.abandon_resolve_failures && !eng_.map_excludes(lt.engine)) co_return;
      resolve_failures_.erase(fkey);
      verdict = vos::DtxState::aborted;
      orphans_aborted_->inc();
      sched_.trace_note(kTraceTxReap ^ tx_tag(item.id.client, item.id.seq));
    } else {
      resolve_failures_.erase(fkey);
      verdict = rep.body.get<engine::TxResolveResp>().state;
      if (verdict == vos::DtxState::prepared) co_return;  // undecided: keep waiting
      if (verdict == vos::DtxState::unknown) {
        // No leader record: the transaction can never commit (commit
        // requires the leader's durable decision), but give an in-flight
        // prepare its grace period before declaring the coordinator dead.
        if (item.age < cfg_.orphan_timeout) co_return;
        // Fence the leader BEFORE aborting locally: a prepare RPC may still
        // be in flight (the client retry policy allows several seconds per
        // attempt), and without a sticky abort at the leader a late prepare
        // could land there, the client would commit at the leader, and the
        // commit fan-out would bounce off our local abort — the transaction
        // reported committed with this shard's writes lost.
        engine::TxDecideReq areq;
        areq.cont = item.cont;
        areq.tx_client = item.id.client;
        areq.tx_seq = item.id.seq;
        areq.target = lt.target;
        Body abody = Body::make(areq);
        Reply arep = co_await eng_.endpoint().call(lt.engine, engine::kOpTxAbort,
                                                   std::move(abody), engine::kObjRpcHeader);
        if (arep.status != Errno::ok) co_return;  // fence failed: retry next sweep
        const auto fenced = arep.body.get<engine::TxResolveResp>().state;
        if (fenced == vos::DtxState::committed) {
          // The fence lost the race: a late prepare+commit landed at the
          // leader first. The decision is durable — honour it.
          verdict = vos::DtxState::committed;
        } else {
          verdict = vos::DtxState::aborted;
          orphans_aborted_->inc();
          sched_.trace_note(kTraceTxReap ^ tx_tag(item.id.client, item.id.seq));
        }
      }
    }
  }
  co_await eng_.rebuild_write(item.target, 64);  // local decision record
  vos::VosContainer& cont = eng_.vos_target(item.target).container(item.cont);
  if (cont.dtx_state(item.id) != vos::DtxState::prepared) co_return;  // settled under us
  if (verdict == vos::DtxState::committed) {
    cont.dtx_commit(item.id);
  } else {
    cont.dtx_abort(item.id);
  }
  resyncs_resolved_->inc();
  sched_.trace_note(kTraceTxResolve ^ tx_tag(item.id.client, item.id.seq));
}

}  // namespace daosim::dtx
