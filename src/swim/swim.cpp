#include "swim/swim.hpp"

#include <utility>

namespace daosim::swim {

using net::Body;
using net::Reply;
using net::Request;

namespace {
// Trace-digest tags folded into the deterministic run hash (0xFA17E010..E013).
constexpr std::uint64_t kTraceSwimSuspect = 0xFA17E010'0000'0000ULL;
constexpr std::uint64_t kTraceSwimRefute = 0xFA17E011'0000'0000ULL;
constexpr std::uint64_t kTraceSwimDead = 0xFA17E012'0000'0000ULL;
constexpr std::uint64_t kTraceIvFetch = 0xFA17E013'0000'0000ULL;

/// Wire size of a SWIM probe / ack / delta fetch; probes use net::Lane::control.
constexpr std::uint64_t kSwimMsgBytes = 128;

// pool_evict submission budget for pool::SvcClient, per round. A campaign
// runs up to kEvictRounds rounds, but starts another only while a quorum
// may still answer (see submit_evict): 4 rounds of 4 x 50 ms pauses outlast
// a Raft election (election_timeout_max 300 ms plus a vote round).
constexpr int kEvictAttempts = 4;
constexpr sim::Time kEvictRetryDelay = 50 * sim::kMs;
constexpr int kEvictRounds = 4;

// Delta fetch: bounded rounds per trigger; the probe loop re-triggers while
// the engine remains behind, so giving up costs one probe period.
constexpr int kFetchRounds = 8;
constexpr sim::Time kFetchRetryDelay = 20 * sim::kMs;
}  // namespace

SwimService::SwimService(engine::Engine& eng, std::uint32_t index,
                         std::vector<net::NodeId> members, std::vector<net::NodeId> svc_nodes,
                         SwimConfig cfg, std::uint64_t seed)
    : eng_(eng),
      sched_(eng.endpoint().domain().scheduler()),
      index_(index),
      members_(std::move(members)),
      svc_(sched_, std::move(svc_nodes), {kEvictAttempts, kEvictRetryDelay},
           [this](net::NodeId dst, Body body, std::uint64_t) {
             return send_svc(dst, std::move(body));
           }),
      cfg_(cfg),
      rng_(seed),
      state_(members_.size()) {
  DAOSIM_REQUIRE(index_ < members_.size(), "swim: member index %u out of range", index_);
  DAOSIM_REQUIRE(members_[index_] == eng_.node(), "swim: member list disagrees with engine");
  eng_.endpoint().register_handler(
      engine::kOpSwimPing, [this](Request req) { return on_ping(std::move(req)); });
  eng_.endpoint().register_handler(
      engine::kOpSwimPingReq, [this](Request req) { return on_ping_req(std::move(req)); });
  eng_.endpoint().register_handler(
      engine::kOpMapFetch, [this](Request req) { return on_map_fetch(std::move(req)); });
  telemetry::Registry& reg = eng_.telemetry();
  probes_ = &reg.find_or_create<telemetry::Counter>("swim/probes");
  ping_reqs_ = &reg.find_or_create<telemetry::Counter>("swim/ping_reqs");
  suspects_ = &reg.find_or_create<telemetry::Counter>("swim/suspects");
  refutations_ = &reg.find_or_create<telemetry::Counter>("swim/refutations");
  deaths_declared_ = &reg.find_or_create<telemetry::Counter>("swim/deaths_declared");
  delta_fetches_ = &reg.find_or_create<telemetry::Counter>("map/delta_fetches");
}

std::uint64_t SwimService::probes_sent() const { return probes_->value(); }
std::uint64_t SwimService::suspects_raised() const { return suspects_->value(); }
std::uint64_t SwimService::refutations() const { return refutations_->value(); }
std::uint64_t SwimService::deaths_declared() const { return deaths_declared_->value(); }
std::uint64_t SwimService::delta_fetches() const { return delta_fetches_->value(); }

void SwimService::start() {
  if (running_) return;
  running_ = true;
  sim::CoTask<void> loop = probe_loop();
  sched_.spawn(std::move(loop));
}

void SwimService::stop() { running_ = false; }

void SwimService::note_restart() {
  // Others may have accrued suspicion (or a local death verdict) against any
  // incarnation we gossiped before the crash; jumping past them lets our
  // first post-restart alive entry override all of it.
  incarnation_ += 2;
}

std::optional<std::uint32_t> SwimService::member_index(net::NodeId node) const {
  for (std::uint32_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == node) return i;
  }
  return std::nullopt;
}

bool SwimService::probeable(std::uint32_t m) const {
  return m != index_ && !state_[m].dead && !map_excluded(m);
}

std::uint32_t SwimService::next_member() {
  bool any = false;
  for (std::uint32_t i = 0; i < state_.size(); ++i) any = any || probeable(i);
  if (!any) return kNone;
  // Randomized round robin (the SWIM paper's probe order): walk a shuffled
  // permutation, reshuffling on wrap, so every member is probed within one
  // round yet the order varies — deterministically, from the seeded rng.
  for (;;) {
    if (rotation_pos_ >= rotation_.size()) {
      rotation_.resize(members_.size());
      for (std::uint32_t i = 0; i < rotation_.size(); ++i) rotation_[i] = i;
      rng_.shuffle(rotation_);
      rotation_pos_ = 0;
    }
    const std::uint32_t m = rotation_[rotation_pos_++];
    if (probeable(m)) return m;
  }
}

std::vector<std::uint32_t> SwimService::pick_witnesses(std::uint32_t subject) const {
  // Deterministic: the next alive members after the subject in index order.
  std::vector<std::uint32_t> out;
  for (std::uint32_t step = 1; step < members_.size() && out.size() < cfg_.witnesses; ++step) {
    const std::uint32_t m = (subject + step) % std::uint32_t(members_.size());
    if (m != index_ && m != subject && probeable(m)) out.push_back(m);
  }
  return out;
}

std::vector<engine::SwimMemberUpdate> SwimService::gossip() const {
  std::vector<engine::SwimMemberUpdate> out;
  out.push_back(engine::SwimMemberUpdate{eng_.node(), incarnation_, false});
  for (std::uint32_t m = 0; m < state_.size(); ++m) {
    const Member& mi = state_[m];
    // Suspicions ride every message; a local death verdict that the map has
    // not confirmed keeps riding too, so a wrong verdict (partitioned
    // observer) keeps being challenged until the victim refutes it.
    if (map_excluded(m)) continue;
    if (mi.suspect || mi.dead) {
      out.push_back(engine::SwimMemberUpdate{members_[m], mi.incarnation, true});
    }
  }
  return out;
}

void SwimService::process_updates(const std::vector<engine::SwimMemberUpdate>& updates) {
  for (const engine::SwimMemberUpdate& u : updates) {
    if (u.member == eng_.node()) {
      // Somebody suspects us: refute by bumping our incarnation. The bumped
      // alive entry rides our next ack/probe and overrides the suspicion.
      if (u.suspect && u.incarnation >= incarnation_) {
        incarnation_ = u.incarnation + 1;
        refutations_->inc();
        sched_.trace_note(kTraceSwimRefute ^ (std::uint64_t(index_) << 32) ^ incarnation_);
      }
      continue;
    }
    const std::optional<std::uint32_t> idx = member_index(u.member);
    if (!idx) continue;
    Member& mi = state_[*idx];
    if (map_excluded(*idx)) continue;  // map-confirmed state is authoritative
    if (u.suspect) {
      // Suspicion wins ties (SWIM: suspect(i) overrides alive(i)).
      if (u.incarnation >= mi.incarnation && !mi.suspect && !mi.dead) {
        mi.suspect = true;
        mi.suspect_since = sched_.now();
        suspects_->inc();
        sched_.trace_note(kTraceSwimSuspect ^ (std::uint64_t(index_) << 32) ^ *idx);
      }
      if (u.incarnation > mi.incarnation) mi.incarnation = u.incarnation;
    } else if (u.incarnation > mi.incarnation) {
      // A strictly newer alive entry is a refutation: it clears suspicion
      // and revives a locally-dead member the map never confirmed dead.
      mi.incarnation = u.incarnation;
      mi.suspect = false;
      mi.dead = false;
      mi.evict_tried = false;
    }
  }
}

// ---------------------------------------------------------------------------
// Handlers

sim::CoTask<net::Reply> SwimService::on_ping(net::Request req) {
  const auto& r = req.body.get<engine::SwimPingReq>();
  process_updates(r.updates);
  note_remote_map_version(r.map_version);
  engine::SwimPingResp resp;
  resp.map_version = eng_.cached_map_version();
  resp.updates = gossip();
  co_return Reply{Errno::ok, kSwimMsgBytes, Body::make(std::move(resp))};
}

sim::CoTask<net::Reply> SwimService::on_ping_req(net::Request req) {
  // Witness role: ping the subject on the prober's behalf. The indirect path
  // is what separates "the subject is dead" from "my link to it is bad".
  const auto& r = req.body.get<engine::SwimPingReqReq>();
  process_updates(r.updates);
  note_remote_map_version(r.map_version);
  const net::NodeId subject = r.subject;
  engine::SwimPingReq ping;
  ping.from = eng_.node();
  ping.map_version = eng_.cached_map_version();
  ping.updates = gossip();
  Body body = Body::make(std::move(ping));
  // req.ctx threads the prober's trace through the relay: probe -> ping-req
  // -> relayed ping shows up as one chain across three nodes.
  Reply sub = co_await eng_.endpoint().call(subject, engine::kOpSwimPing, std::move(body),
                                            kSwimMsgBytes, req.ctx, net::Lane::control);
  engine::SwimPingResp resp;
  resp.subject_acked = sub.status == Errno::ok;
  if (sub.status == Errno::ok) {
    const auto& ack = sub.body.get<engine::SwimPingResp>();
    process_updates(ack.updates);
    note_remote_map_version(ack.map_version);
  }
  resp.map_version = eng_.cached_map_version();
  resp.updates = gossip();
  co_return Reply{Errno::ok, kSwimMsgBytes, Body::make(std::move(resp))};
}

sim::CoTask<net::Reply> SwimService::on_map_fetch(net::Request req) {
  const auto& r = req.body.get<engine::MapFetchReq>();
  engine::MapFetchResp resp;
  if (local_map_source_) {
    // Root: answer from the co-located replica's Raft-committed state.
    resp = local_map_source_(r.since);
  } else {
    resp.latest_version = eng_.cached_map_version();
    for (const engine::MapDeltaEntry& d : deltas_) {
      if (d.version > r.since) resp.deltas.push_back(d);
    }
  }
  const std::uint64_t wire = kSwimMsgBytes + 16 * resp.deltas.size();
  co_return Reply{Errno::ok, wire, Body::make(std::move(resp))};
}

// ---------------------------------------------------------------------------
// IV map dissemination

void SwimService::note_remote_map_version(std::uint32_t v) {
  if (v <= target_version_) return;
  target_version_ = v;
  if (local_map_source_) {
    poll_local_root();  // a root is never more than one poll behind its replica
    return;
  }
  if (!fetching_ && running_ && !eng_.endpoint().is_down()) {
    sim::CoTask<void> task = fetch_deltas();
    sched_.spawn(std::move(task));
  }
}

void SwimService::poll_local_root() {
  if (!local_map_source_) return;
  const engine::MapFetchResp resp = local_map_source_(eng_.cached_map_version());
  if (resp.latest_version > eng_.cached_map_version()) apply_map_fetch(resp);
}

void SwimService::apply_map_fetch(const engine::MapFetchResp& resp) {
  const std::uint32_t before = eng_.cached_map_version();
  for (const engine::MapDeltaEntry& d : resp.deltas) {
    if (d.version <= before) continue;  // already have it
    deltas_.push_back(d);
    eng_.apply_map_delta(d);
    const std::optional<std::uint32_t> idx = member_index(d.engine);
    if (!idx || *idx == index_) continue;
    Member& mi = state_[*idx];
    if (d.excluded) {
      // Eviction committed: the verdict is final, stop probing the member.
      mi.dead = true;
      mi.suspect = false;
      mi.evict_tried = true;
    } else {
      // Reintegration: the member is back; start from a clean slate.
      mi.dead = false;
      mi.suspect = false;
      mi.evict_tried = false;
    }
  }
  if (resp.latest_version > before) {
    eng_.set_cached_map_version(resp.latest_version);
    if (resp.latest_version > target_version_) target_version_ = resp.latest_version;
  }
}

net::NodeId SwimService::parent_node() const {
  const std::uint32_t fanout = cfg_.iv_fanout > 0 ? cfg_.iv_fanout : 1;
  const std::uint32_t parent = index_ == 0 ? 0 : (index_ - 1) / fanout;
  return members_[parent];
}

sim::CoTask<void> SwimService::fetch_deltas() {
  if (fetching_) co_return;  // single-flight: the running fetch covers us
  fetching_ = true;
  for (int round = 0; round < kFetchRounds; ++round) {
    if (!running_ || eng_.endpoint().is_down()) break;
    if (target_version_ <= eng_.cached_map_version()) break;
    // Tree parent first; on failure (or a parent as stale as us) fall back
    // to the tree root, which is a pool-service engine and authoritative.
    const net::NodeId src = round == 0 ? parent_node() : members_[0];
    engine::MapFetchReq req{eng_.cached_map_version()};
    Body body = Body::make(std::move(req));
    Reply r =
        co_await eng_.endpoint().call(src, engine::kOpMapFetch, std::move(body), kSwimMsgBytes);
    if (r.status == Errno::ok) {
      const auto& resp = r.body.get<engine::MapFetchResp>();
      if (resp.latest_version > eng_.cached_map_version()) {
        delta_fetches_->inc();
        apply_map_fetch(resp);
        sched_.trace_note(kTraceIvFetch ^ (std::uint64_t(index_) << 32) ^
                          eng_.cached_map_version());
        continue;
      }
    }
    co_await sched_.delay(kFetchRetryDelay);
  }
  fetching_ = false;
}

// ---------------------------------------------------------------------------
// Probe loop

sim::CoTask<void> SwimService::probe_loop() {
  while (running_) {
    co_await sched_.delay(cfg_.probe_period);
    if (!running_) break;
    if (eng_.endpoint().is_down()) continue;  // a crashed engine acts on restart
    poll_local_root();
    co_await probe_once();
    co_await sweep_suspects();
    if (!local_map_source_ && target_version_ > eng_.cached_map_version() && !fetching_) {
      co_await fetch_deltas();  // backstop; normally triggered from gossip
    }
  }
}

sim::CoTask<void> SwimService::probe_once() {
  const std::uint32_t m = next_member();
  if (m == kNone) co_return;
  const net::NodeId subject = members_[m];
  probes_->inc();
  // Every probe round is a trace root (no sampling): the direct ping and any
  // witness fan assemble into one tree under the "probe" span emitted by the
  // guard below. Id allocation is a pure counter bump.
  const sim::TraceContext ctx = sim::TraceContext::root(sched_.alloc_span_id());
  const sim::Time probe_t0 = sched_.now();
  struct ProbeSpan {
    sim::Scheduler& sched;
    net::NodeId node;
    net::NodeId subject;
    sim::Time t0;
    sim::TraceContext ctx;
    ~ProbeSpan() {
      if (sim::SpanSink* sink = sched.span_sink()) {
        sink->span("probe", strfmt("probe ->%u", subject), node, 0, t0, sched.now(), ctx);
      }
    }
  } probe_span{sched_, eng_.node(), subject, probe_t0, ctx};
  engine::SwimPingReq ping;
  ping.from = eng_.node();
  ping.map_version = eng_.cached_map_version();
  ping.updates = gossip();
  Body body = Body::make(std::move(ping));
  Reply r = co_await eng_.endpoint().call(subject, engine::kOpSwimPing, std::move(body),
                                          kSwimMsgBytes, ctx, net::Lane::control);
  if (r.status == Errno::ok) {
    const auto& ack = r.body.get<engine::SwimPingResp>();
    process_updates(ack.updates);
    note_remote_map_version(ack.map_version);
    co_return;
  }
  // Direct probe failed: try k witnesses before suspecting. The witnesses'
  // own links to the subject stand in for ours, so a one-way partition or a
  // dropped probe does not immediately indict the subject.
  const std::vector<std::uint32_t> witnesses = pick_witnesses(m);
  for (const std::uint32_t w : witnesses) {
    ping_reqs_->inc();
    engine::SwimPingReqReq rr;
    rr.from = eng_.node();
    rr.subject = subject;
    rr.map_version = eng_.cached_map_version();
    rr.updates = gossip();
    Body rbody = Body::make(std::move(rr));
    Reply wr = co_await eng_.endpoint().call(members_[w], engine::kOpSwimPingReq,
                                             std::move(rbody), kSwimMsgBytes, ctx,
                                             net::Lane::control);
    if (wr.status != Errno::ok) continue;
    const auto& ack = wr.body.get<engine::SwimPingResp>();
    process_updates(ack.updates);
    note_remote_map_version(ack.map_version);
    if (ack.subject_acked) co_return;  // reachable through the witness: alive
  }
  Member& mi = state_[m];
  if (!mi.suspect && !mi.dead && !map_excluded(m)) {
    mi.suspect = true;
    mi.suspect_since = sched_.now();
    suspects_->inc();
    sched_.trace_note(kTraceSwimSuspect ^ (std::uint64_t(index_) << 32) ^ m);
  }
}

sim::CoTask<void> SwimService::sweep_suspects() {
  if (sweeping_) co_return;
  sweeping_ = true;
  const sim::Time now = sched_.now();
  std::vector<std::uint32_t> verdicts;  // members to campaign against
  for (std::uint32_t m = 0; m < state_.size(); ++m) {
    if (state_[m].suspect && !state_[m].dead &&
        now - state_[m].suspect_since >= cfg_.suspect_timeout) {
      state_[m].suspect = false;
      state_[m].dead = true;
      deaths_declared_->inc();
      sched_.trace_note(kTraceSwimDead ^ (std::uint64_t(index_) << 32) ^ m);
    }
    if (state_[m].dead && !map_excluded(m) && !state_[m].evict_tried) {
      state_[m].evict_tried = true;
      verdicts.push_back(m);
    }
  }
  // Every campaign at once: run back to back, k verdicts would keep a
  // partitioned minority campaigning k campaign lengths after its first
  // verdict, and a heal inside that span would let a stale verdict evict a
  // healthy engine. The first campaign runs inline, so a lone verdict costs
  // no extra scheduler event.
  sim::WaitGroup rest(sched_);
  for (std::size_t i = 1; i < verdicts.size(); ++i) rest.spawn(submit_evict(verdicts[i]));
  if (!verdicts.empty()) co_await submit_evict(verdicts.front());
  co_await rest.wait();
  sweeping_ = false;
}

sim::CoTask<net::Reply> SwimService::send_svc(net::NodeId dst, net::Body body) {
  // svc_ carries nothing but pool_evict: the evicted member names the campaign.
  const net::NodeId evictee = std::get<pool::PoolEvict>(body.get<pool::PoolSvcReq>().cmd).engine;
  const std::uint32_t m = *member_index(evictee);
  Reply r = co_await eng_.endpoint().call(dst, engine::kOpPoolSvc, std::move(body), kSwimMsgBytes);
  Member& mi = state_[m];  // indexed after the suspension
  if (r.status != Errno::timed_out) {
    mi.svc_answered.insert(dst);
    mi.svc_silent.erase(dst);
  } else if (!mi.svc_answered.contains(dst)) {
    mi.svc_silent.insert(dst);
  }
  co_return r;
}

bool SwimService::svc_quorum_may_answer(std::uint32_t m) const {
  const Member& mi = state_[m];
  return !mi.svc_answered.empty() && 2 * mi.svc_silent.size() < svc_.replicas().size();
}

sim::CoTask<void> SwimService::submit_evict(std::uint32_t m) {
  // One campaign per death declaration: if the pool service is unreachable
  // (we may be the partitioned minority), do NOT retry later — a stale
  // verdict replayed after the partition heals would evict a healthy
  // engine. If the member is truly dead, a detector that CAN reach the
  // service evicts it; if we were wrong, refutation revives the member.
  // A round that failed while replicas answered and no majority of them
  // stayed silent met an election, not a partition (a quorum may still be
  // reachable but has no leader yet), so the campaign rides it out with
  // further rounds. A minority hears a majority of the replicas stay silent
  // in its first round, even with a replica on its side of the cut: that
  // replica is a candidate, names no leader, and the round walks them all.
  // Refuted or evicted since the sweep picked it: nothing to campaign for.
  if (!state_[m].dead || map_excluded(m)) co_return;
  const net::NodeId member = members_[m];
  state_[m].svc_answered.clear();
  state_[m].svc_silent.clear();
  for (int round = 0; round < kEvictRounds; ++round) {
    auto version = co_await svc_.run(pool::PoolEvict{member});
    // The committed eviction comes back as a delta; apply_map_fetch marks
    // the member excluded when it arrives.
    if (version.ok()) {
      note_remote_map_version(*version);
      co_return;
    }
    if (!svc_quorum_may_answer(m)) co_return;
  }
}

}  // namespace daosim::swim
