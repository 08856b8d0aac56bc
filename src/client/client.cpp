#include "client/client.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace daosim::client {

using engine::ObjEnumReq;
using engine::ObjEnumResp;
using engine::ObjFetchReq;
using engine::ObjFetchResp;
using engine::ObjPunchReq;
using engine::ObjQueryReq;
using engine::ObjQueryResp;
using engine::ObjUpdateReq;
using engine::PunchScope;
using engine::RecordType;
using net::Body;
using net::Reply;

namespace {
constexpr std::uint64_t kSvcMsgBytes = 128;
constexpr int kSvcMaxRetries = 16;
constexpr sim::Time kSvcRetryDelay = 20 * sim::kMs;
/// Bound on re-placement rounds after Errno::stale: each round follows one
/// pool-map refresh, and maps only move forward, so a handful suffices.
constexpr int kMaxPlaceRounds = 3;

// Trace-digest tags for recovery actions (arbitrary distinct constants,
// xor-combined with the affected engine/version).
constexpr std::uint64_t kTraceEvictReport = 0xFA17E001'0000'0000ULL;
// 0xFA17E002 (map refresh) and 0xFA17E014/15 (staleness/delta apply) live in
// client/refresh.cpp.
constexpr std::uint64_t kTraceRefreshFail = 0xFA17E003'0000'0000ULL;
constexpr std::uint64_t kTraceDataLoss = 0xFA17E004'0000'0000ULL;

std::uint64_t key_hash(const vos::Key& k) {
  return std::hash<std::string>{}(k);
}

/// True when every nominal replica of the group sits on an EXCLUDED target:
/// the group's pre-eviction data has no surviving copy.
bool nominal_group_lost(const pool::PoolMap& map, const GroupLayout& nominal, std::uint32_t g) {
  for (std::uint32_t r = 0; r < nominal.replicas; ++r) {
    if (map.targets[nominal.at(g, r)].health != pool::TargetHealth::excluded) return false;
  }
  return true;
}
}  // namespace

DaosClient::DaosClient(net::RpcDomain& domain, net::NodeId node, pool::PoolMap map,
                       std::vector<net::NodeId> svc_replicas, ClientConfig cfg)
    : ep_(domain, node),
      sched_(domain.scheduler()),
      map_(std::move(map)),
      svc_(sched_, std::move(svc_replicas), {kSvcMaxRetries, kSvcRetryDelay},
           [this](net::NodeId dst, Body body, std::uint64_t command_bytes) {
             return call_with_deadline(dst, engine::kOpPoolSvc, std::move(body),
                                       kSvcMsgBytes + command_bytes, retry_.deadline);
           }),
      cfg_(cfg),
      metrics_(strfmt("client/%u", node)) {
  DAOSIM_REQUIRE(!svc_.replicas().empty(), "no pool service replicas");
  DAOSIM_REQUIRE(map_.target_count() > 0, "empty pool map");
  DAOSIM_REQUIRE(cfg_.max_batch_extents >= 1, "max_batch_extents must be >= 1");
  DAOSIM_REQUIRE(cfg_.max_inflight_rpcs >= 1, "max_inflight_rpcs must be >= 1");
  rpc_credits_ = std::make_unique<sim::Semaphore>(sched_, cfg_.max_inflight_rpcs);
  ep_.set_telemetry(&metrics_);
  retry_attempts_ = &metrics_.find_or_create<telemetry::Counter>("retry/attempts");
  retry_backoff_ns_ = &metrics_.find_or_create<telemetry::Counter>("retry/backoff_ns");
  degraded_reads_ = &metrics_.find_or_create<telemetry::Counter>("degraded/reads");
  batch_extents_coalesced_ =
      &metrics_.find_or_create<telemetry::Counter>("batch/extents_coalesced");
  batch_rpcs_saved_ = &metrics_.find_or_create<telemetry::Counter>("batch/rpcs_saved");
  tx_commits_ = &metrics_.find_or_create<telemetry::Counter>("tx/commits");
  tx_aborts_ = &metrics_.find_or_create<telemetry::Counter>("tx/aborts");
  tx_restarts_ = &metrics_.find_or_create<telemetry::Counter>("tx/restarts");
  tx_commit_time_ = &metrics_.find_or_create<telemetry::DurationHistogram>("tx/commit_time_ns");
  metrics_.add_probe("evictions_reported", [this] { return evictions_; });
  metrics_.add_probe("degraded/data_loss", [this] { return data_loss_; });
  metrics_.add_probe("map_refreshes", [this] { return map_refreshes_; });
  metrics_.add_probe("map/delta_fetches", [this] { return map_delta_fetches_; });
  metrics_.add_probe("map/full_fetches", [this] { return map_full_fetches_; });
  metrics_.add_probe("map/piggyback_staleness_detected",
                     [this] { return map_staleness_detected_; });
}

// ---------------------------------------------------------------------------
// Resilient RPC path

struct DaosClient::PendingCall {
  explicit PendingCall(sim::Scheduler& s) : done(s) {}
  sim::Event done;
  net::Reply reply;
};

sim::CoTask<void> DaosClient::run_call(net::RpcEndpoint* ep, net::NodeId dst,
                                       std::uint16_t opcode, net::Body body,
                                       std::uint64_t wire_bytes, sim::TraceContext ctx,
                                       std::shared_ptr<PendingCall> st) {
  st->reply = co_await ep->call(dst, opcode, std::move(body), wire_bytes, ctx);  // daosim-lint: allow(raw-rpc-call): this IS the wrapper; call_with_deadline owns the timeout
  st->done.set();
}

sim::CoTask<net::Reply> DaosClient::call_with_deadline(net::NodeId dst, std::uint16_t opcode,
                                                       net::Body body, std::uint64_t wire_bytes,
                                                       sim::Time deadline,
                                                       sim::TraceContext ctx) {
  auto st = std::make_shared<PendingCall>(sched_);
  // The attempt runs detached so an expired deadline abandons it without
  // cancelling it: the request already left this node, and the server will
  // still execute it — which is why retried updates must be idempotent.
  sim::CoTask<void> runner = run_call(&ep_, dst, opcode, std::move(body), wire_bytes, ctx, st);
  sched_.spawn(std::move(runner));
  const bool replied = co_await st->done.wait_for(deadline);
  if (!replied) co_return net::Reply{Errno::timed_out, 0, {}};
  co_return std::move(st->reply);
}

sim::CoTask<net::Reply> DaosClient::call_retry(net::NodeId dst, std::uint16_t opcode,
                                               net::Body body, std::uint64_t wire_bytes,
                                               sim::TraceContext ctx) {
  Reply r{};
  for (int attempt = 1;; ++attempt) {
    Body attempt_body = body;  // bodies are shared_ptr-held: copies are cheap
    r = co_await call_with_deadline(dst, opcode, std::move(attempt_body), wire_bytes,
                                    retry_.deadline, ctx);
    if (r.status != Errno::timed_out && r.status != Errno::busy) co_return r;
    if (attempt >= retry_.max_attempts) co_return r;
    const sim::Time backoff = retry_backoff(retry_, attempt);
    retry_attempts_->inc();
    retry_backoff_ns_->inc(backoff);
    // Backoff as a "retry" child span: traced ops show the wait between
    // attempts instead of an unexplained gap. Id allocated unconditionally.
    const sim::TraceContext retry_ctx = ctx.child(sched_.alloc_span_id());
    const sim::Time b0 = sched_.now();
    co_await sched_.delay(backoff);
    if (sim::SpanSink* sink = sched_.span_sink()) {
      sink->span("retry", strfmt("backoff after attempt %d ->%u", attempt, dst), ep_.node(),
                 opcode, b0, sched_.now(), retry_ctx);
    }
  }
}

sim::CoTask<net::Reply> DaosClient::call_target(std::uint32_t map_target, std::uint16_t opcode,
                                                net::Body body, std::uint64_t wire_bytes,
                                                sim::TraceContext ctx) {
  DAOSIM_REQUIRE(map_target < map_.target_count(), "target %u outside pool map", map_target);
  const pool::TargetRef ref = map_.targets[map_target];  // copy: map_ may refresh mid-call
  if (ref.health == pool::TargetHealth::excluded) {
    co_return net::Reply{Errno::stale, 0, {}};
  }
  net::Reply r = co_await call_retry(ref.engine, opcode, std::move(body), wire_bytes, ctx);
  if (r.map_version > map_.version) {
    // IV piggyback: the reply is stamped with a newer pool-map version than
    // ours. Pull the missing deltas (single-flight, from the very engine that
    // revealed the staleness) before returning, so the caller re-places
    // against a current map without anyone polling the leader. Timed-out
    // replies carry map_version 0 and never trigger this.
    ++map_staleness_detected_;
    co_await refresh_to_version(r.map_version, ref.engine);
  }
  if (r.status != Errno::timed_out) co_return r;
  // The whole attempt budget burned: suspect the engine (DOWN), report it for
  // eviction, and hand Errno::stale to the caller so it re-places against the
  // refreshed map.
  for (auto& t : map_.targets) {
    if (t.engine == ref.engine && t.health == pool::TargetHealth::up) {
      t.health = pool::TargetHealth::down;
    }
  }
  co_await report_engine_failure(ref.engine);
  co_return net::Reply{Errno::stale, 0, {}};
}

sim::CoTask<void> DaosClient::report_engine_failure(net::NodeId engine) {
  if (auto it = evict_gates_.find(engine); it != evict_gates_.end()) {
    auto gate = it->second;  // keep the Event alive across the wait
    co_await gate->wait();
    co_return;
  }
  auto gate = std::make_shared<sim::Event>(sched_);
  evict_gates_.emplace(engine, gate);
  ++evictions_;
  sched_.trace_note(kTraceEvictReport ^ engine);
  auto evicted = co_await svc_.run(pool::PoolEvict{engine});
  if (evicted.ok()) {
    Result<void> refreshed = co_await refresh_pool_map();
    if (!refreshed.ok()) {
      // Targets stay marked DOWN; the next failing call retries the refresh.
      sched_.trace_note(kTraceRefreshFail ^ engine);
    }
  }
  evict_gates_.erase(engine);
  gate->set();
}

sim::TraceContext DaosClient::sample_op_trace() {
  // Both counters bump unconditionally — the op sequence and the span id are
  // pure increments — so the stream of ids (and thus trace JSON and
  // trace_hash) is identical whatever the sampling rate or sink state.
  const std::uint64_t seq = ++trace_op_seq_;
  const std::uint64_t id = sched_.alloc_span_id();
  if (cfg_.trace_sample == 0) return {};
  const std::uint64_t h = mix64(cfg_.trace_seed ^ (std::uint64_t(ep_.node()) << 32) ^ seq);
  if (h % cfg_.trace_sample != 0) return {};
  return sim::TraceContext::root(id);
}

void DaosClient::note_data_loss(vos::ObjId oid, std::uint32_t group) {
  ++data_loss_;
  last_data_loss_ = strfmt("object %llx.%llx group %u: all replicas lost",
                           static_cast<unsigned long long>(oid.hi),
                           static_cast<unsigned long long>(oid.lo), group);
  sched_.trace_note(kTraceDataLoss ^ oid.lo ^ group);
}

// DaosClient::refresh_pool_map / refresh_to_version / apply_map_deltas live
// in client/refresh.cpp — the only client module allowed to issue the raw
// leader map query (direct-map-query lint rule).

sim::CoTask<Result<void>> DaosClient::pool_reint(net::NodeId engine) {
  auto res = co_await svc_.run(pool::PoolReint{engine});
  if (!res.ok()) co_return res.error();
  co_return co_await refresh_pool_map();
}

// ---------------------------------------------------------------------------
// Pool service operations

sim::CoTask<Result<ContInfo>> DaosClient::cont_create(vos::Uuid uuid, pool::ContProps props) {
  auto res = co_await svc_.run(pool::ContCreate{uuid, props});
  if (!res.ok()) co_return res.error();
  co_return ContInfo{uuid, props};
}

sim::CoTask<Result<ContInfo>> DaosClient::cont_open(vos::Uuid uuid) {
  auto res = co_await svc_.run(pool::ContOpen{uuid});
  if (!res.ok()) co_return res.error();
  co_return ContInfo{uuid, *res};
}

sim::CoTask<Result<void>> DaosClient::cont_destroy(vos::Uuid uuid) {
  auto res = co_await svc_.run(pool::ContDestroy{uuid});
  if (!res.ok()) co_return res.error();
  co_return Result<void>{};
}

sim::CoTask<Result<std::uint64_t>> DaosClient::alloc_oids(vos::Uuid cont, std::uint64_t count) {
  co_return co_await svc_.run(pool::AllocOids{cont, count});
}

// ---------------------------------------------------------------------------
// KvObject

KvObject::KvObject(DaosClient& client, vos::Uuid cont, vos::ObjId oid)
    : client_(client), cont_(cont), oid_(oid) {
  const auto cls = class_of(oid);
  const std::uint32_t n = client.pool_map().target_count();
  map_version_ = client.pool_map().version;
  nominal_ = compute_nominal_layout(oid, client::group_count(cls, n),
                                    client::replica_count(cls), client.pool_map());
  layout_ = compute_group_layout(oid, nominal_.groups(), nominal_.replicas, client.pool_map());
}

std::uint32_t KvObject::group_of(const vos::Key& dkey) const {
  return kv_dkey_group(dkey, layout_.groups());
}

bool KvObject::group_lost(std::uint32_t group) const {
  return nominal_group_lost(client_.pool_map(), nominal_, group);
}

void KvObject::refresh_layout() {
  if (map_version_ == client_.pool_map().version) return;
  map_version_ = client_.pool_map().version;
  layout_ = compute_group_layout(oid_, nominal_.groups(), nominal_.replicas, client_.pool_map());
}

sim::CoTask<Errno> KvObject::put(const vos::Key& dkey, const vos::Key& akey,
                                 std::span<const std::byte> value, bool excl) {
  OpTrace tr(client_, "kv_put");
  ObjUpdateReq req;
  req.cont = cont_;
  req.oid = oid_;
  req.dkey = dkey;
  req.akey = akey;
  req.type = RecordType::single_value;
  req.cond_insert = excl;
  req.length = value.size();
  req.data = std::make_shared<std::vector<std::byte>>(value.begin(), value.end());
  const std::uint32_t g = group_of(dkey);
  // Fan the update to every replica of the dkey's group. All-or-retry: the
  // first failure aborts the fan and surfaces to the caller (replica 0 is
  // always first, so conditional-insert races resolve consistently there).
  for (std::uint32_t rep = 0; rep < layout_.replicas; ++rep) {
    for (int round = 0;; ++round) {
      refresh_layout();
      const std::uint32_t map_target = layout_.at(g, rep);
      req.target = client_.pool_map().targets[map_target].target;
      Body body = Body::make(req);
      Reply r = co_await client_.call_target(map_target, engine::kOpObjUpdate, std::move(body),
                                             engine::kObjRpcHeader + value.size(), tr.ctx());
      if (r.status == Errno::stale && round < kMaxPlaceRounds) continue;
      if (r.status != Errno::ok) co_return r.status;
      break;
    }
  }
  co_return Errno::ok;
}

sim::CoTask<Result<std::vector<std::byte>>> KvObject::get(const vos::Key& dkey,
                                                          const vos::Key& akey,
                                                          vos::Epoch epoch) {
  OpTrace tr(client_, "kv_get");
  ObjFetchReq req;
  req.cont = cont_;
  req.oid = oid_;
  req.dkey = dkey;
  req.akey = akey;
  req.type = RecordType::single_value;
  req.epoch = epoch;
  const std::uint32_t g = group_of(dkey);
  const std::uint32_t nreps = layout_.replicas;
  // Degraded read: try replicas in order from a per-key starting point
  // (spreads load); first one holding the record wins.
  const std::uint32_t r0 =
      nreps == 1 ? 0 : std::uint32_t(mix64(key_hash(dkey) ^ oid_.lo) % nreps);
  bool all_answered = true;
  Errno last = Errno::io;
  for (std::uint32_t i = 0; i < nreps; ++i) {
    const std::uint32_t rep = (r0 + i) % nreps;
    Reply r{};
    for (int round = 0;; ++round) {
      refresh_layout();
      const std::uint32_t map_target = layout_.at(g, rep);
      req.target = client_.pool_map().targets[map_target].target;
      Body body = Body::make(req);
      r = co_await client_.call_target(map_target, engine::kOpObjFetch, std::move(body),
                                       engine::kObjRpcHeader, tr.ctx());
      if (r.status != Errno::stale || round >= kMaxPlaceRounds) break;
    }
    if (r.status != Errno::ok) {
      last = r.status;
      all_answered = false;
      client_.note_degraded_read();
      continue;
    }
    auto& resp = r.body.get<ObjFetchResp>();
    if (resp.exists) {
      if (resp.data == nullptr) co_return std::vector<std::byte>{};
      co_return std::move(*resp.data);
    }
  }
  if (group_lost(g)) {
    client_.note_data_loss(oid_, g);
    co_return Errno::data_loss;
  }
  // "Key does not exist" is only definitive when every replica answered: an
  // ok-but-missing reply from a not-yet-rebuilt substitute must not mask a
  // failed replica that may actually hold the record.
  co_return all_answered ? Errno::no_entry : last;
}

sim::CoTask<Result<std::vector<vos::Key>>> KvObject::list_dkeys() {
  OpTrace tr(client_, "kv_list_dkeys");
  std::set<vos::Key> merged;
  refresh_layout();
  for (std::uint32_t g = 0; g < layout_.groups(); ++g) {
    bool got = false;
    Errno last = Errno::io;
    for (std::uint32_t rep = 0; rep < layout_.replicas && !got; ++rep) {
      ObjEnumReq req;
      req.cont = cont_;
      req.oid = oid_;
      Reply r{};
      for (int round = 0;; ++round) {
        refresh_layout();
        const std::uint32_t map_target = layout_.at(g, rep);
        req.target = client_.pool_map().targets[map_target].target;
        Body body = Body::make(req);
        r = co_await client_.call_target(map_target, engine::kOpObjEnumDkeys, std::move(body),
                                         engine::kObjRpcHeader, tr.ctx());
        if (r.status != Errno::stale || round >= kMaxPlaceRounds) break;
      }
      if (r.status != Errno::ok) {
        last = r.status;
        continue;
      }
      got = true;
      for (auto& k : r.body.get<ObjEnumResp>().keys) merged.insert(std::move(k));
    }
    if (!got) {
      if (group_lost(g)) {
        client_.note_data_loss(oid_, g);
        co_return Errno::data_loss;
      }
      co_return last;
    }
  }
  co_return std::vector<vos::Key>(merged.begin(), merged.end());
}

sim::CoTask<Errno> KvObject::punch() {
  OpTrace tr(client_, "kv_punch");
  refresh_layout();
  Errno status = Errno::ok;
  // The layout is a permutation on a healthy map, so per-shard iteration hits
  // each target once; degraded layouts may punch a substitute twice, which is
  // harmless (punch is idempotent).
  for (std::uint32_t s = 0; s < layout_.size(); ++s) {
    ObjPunchReq req;
    req.cont = cont_;
    req.oid = oid_;
    req.scope = PunchScope::object;
    Reply r{};
    for (int round = 0;; ++round) {
      refresh_layout();
      const std::uint32_t map_target = layout_.targets[s];
      req.target = client_.pool_map().targets[map_target].target;
      Body body = Body::make(req);
      r = co_await client_.call_target(map_target, engine::kOpObjPunch, std::move(body),
                                       engine::kObjRpcHeader, tr.ctx());
      if (r.status != Errno::stale || round >= kMaxPlaceRounds) break;
    }
    if (r.status != Errno::ok) status = r.status;
  }
  co_return status;
}

sim::CoTask<Errno> KvObject::punch_dkey(const vos::Key& dkey) {
  OpTrace tr(client_, "kv_punch_dkey");
  ObjPunchReq req;
  req.cont = cont_;
  req.oid = oid_;
  req.scope = PunchScope::dkey;
  req.dkey = dkey;
  const std::uint32_t g = group_of(dkey);
  for (std::uint32_t rep = 0; rep < layout_.replicas; ++rep) {
    for (int round = 0;; ++round) {
      refresh_layout();
      const std::uint32_t map_target = layout_.at(g, rep);
      req.target = client_.pool_map().targets[map_target].target;
      Body body = Body::make(req);
      Reply r = co_await client_.call_target(map_target, engine::kOpObjPunch, std::move(body),
                                             engine::kObjRpcHeader, tr.ctx());
      if (r.status == Errno::stale && round < kMaxPlaceRounds) continue;
      if (r.status != Errno::ok) co_return r.status;
      break;
    }
  }
  co_return Errno::ok;
}

// ---------------------------------------------------------------------------
// ArrayObject

ArrayObject::ArrayObject(DaosClient& client, vos::Uuid cont, vos::ObjId oid,
                         std::uint64_t chunk_size)
    : client_(client), cont_(cont), oid_(oid), chunk_(chunk_size) {
  DAOSIM_REQUIRE(chunk_ > 0, "chunk size must be positive");
  const auto cls = class_of(oid);
  const std::uint32_t n = client.pool_map().target_count();
  map_version_ = client.pool_map().version;
  nominal_ = compute_nominal_layout(oid, client::group_count(cls, n),
                                    client::replica_count(cls), client.pool_map());
  layout_ = compute_group_layout(oid, nominal_.groups(), nominal_.replicas, client.pool_map());
}

bool ArrayObject::group_lost(std::uint32_t group) const {
  return nominal_group_lost(client_.pool_map(), nominal_, group);
}

void ArrayObject::refresh_layout() {
  if (map_version_ == client_.pool_map().version) return;
  map_version_ = client_.pool_map().version;
  layout_ = compute_group_layout(oid_, nominal_.groups(), nominal_.replicas, client_.pool_map());
}

std::vector<ArrayObject::Piece> ArrayObject::split_pieces(std::uint64_t offset,
                                                          std::uint64_t length) const {
  std::vector<Piece> pieces;
  const std::uint64_t end = offset + length;
  std::uint64_t pos = offset;
  while (pos < end) {
    const std::uint64_t chunk_idx = pos / chunk_;
    const std::uint64_t in_chunk = pos % chunk_;
    const std::uint64_t len = std::min(chunk_ - in_chunk, end - pos);
    pieces.push_back(Piece{chunk_idx, in_chunk, len, pos - offset});
    pos += len;
  }
  return pieces;
}

sim::CoTask<Errno> ArrayObject::write(std::uint64_t offset, std::uint64_t length,
                                      std::span<const std::byte> data) {
  DAOSIM_REQUIRE(data.empty() || data.size() == length, "payload size mismatch");
  if (length == 0) co_return Errno::ok;
  OpTrace tr(client_, "arr_write");
  const std::uint64_t global_end = offset + length;
  const std::vector<Piece> pieces = split_pieces(offset, length);
  const std::size_t max_batch = client_.config().max_batch_extents;

  // Fan each piece to every replica of its group. Pieces sharing a target
  // this round ride one batched RPC (bounded by max_batch_extents); pairs
  // whose batch came back stale re-group against the refreshed map next
  // round (bounded, like the old per-piece re-placement loop).
  struct Pend {
    std::uint32_t piece;
    std::uint32_t rep;
  };
  std::vector<Pend> pending;
  pending.reserve(pieces.size() * layout_.replicas);
  for (std::uint32_t p = 0; p < pieces.size(); ++p) {
    for (std::uint32_t rep = 0; rep < layout_.replicas; ++rep) pending.push_back(Pend{p, rep});
  }

  Errno status = Errno::ok;
  for (int round = 0; !pending.empty() && round <= kMaxPlaceRounds; ++round) {
    // One "batch" span per coalescing round: everything the round issues
    // (credit waits, RPCs) hangs beneath it. Id allocated unconditionally.
    const sim::TraceContext round_ctx = tr.ctx().child(client_.scheduler().alloc_span_id());
    const sim::Time round_t0 = client_.scheduler().now();
    refresh_layout();
    // std::map: batch issue order must never depend on addresses (determinism).
    std::map<std::uint32_t, std::vector<Pend>> by_target;
    for (const Pend& p : pending) {
      const std::uint32_t tgt = layout_.at(group_of_chunk(pieces[p.piece].chunk_idx), p.rep);
      by_target[tgt].push_back(p);
    }
    // Local fan-out bound: don't materialise more batch coroutines than the
    // client-wide credit window (update_batch's semaphore is what actually
    // protects the endpoint's in-flight cap across concurrent calls).
    EventQueue eq(client_.scheduler(), client_.config().max_inflight_rpcs);
    std::vector<std::pair<std::vector<Pend>, std::shared_ptr<Errno>>> batches;
    for (auto& [tgt, list] : by_target) {
      for (std::size_t i = 0; i < list.size(); i += max_batch) {
        const std::size_t n = std::min(max_batch, list.size() - i);
        ObjUpdateReq req;
        req.cont = cont_;
        req.oid = oid_;
        req.akey = "0";
        req.type = RecordType::array;
        req.array_end_hint = global_end;
        req.extents.reserve(n);
        std::uint64_t payload_bytes = 0;
        for (std::size_t k = 0; k < n; ++k) {
          const Piece& pc = pieces[list[i + k].piece];
          req.extents.push_back(
              {strfmt("%llu", static_cast<unsigned long long>(pc.chunk_idx)), pc.offset,
               pc.length, payload_bytes});
          payload_bytes += pc.length;
        }
        if (!data.empty()) {
          auto buf = std::make_shared<std::vector<std::byte>>();
          buf->reserve(std::size_t(payload_bytes));
          for (std::size_t k = 0; k < n; ++k) {
            const Piece& pc = pieces[list[i + k].piece];
            auto sub = data.subspan(std::size_t(pc.buffer_off), std::size_t(pc.length));
            buf->insert(buf->end(), sub.begin(), sub.end());
          }
          req.data = std::move(buf);
        }
        const std::uint64_t wire = engine::obj_wire_bytes(n, payload_bytes);
        auto rc = std::make_shared<Errno>(Errno::ok);
        std::vector<Pend> members(list.begin() + std::ptrdiff_t(i),
                                  list.begin() + std::ptrdiff_t(i + n));
        sim::CoTask<void> task = update_batch(tgt, std::move(req), wire, round_ctx, rc);
        co_await eq.launch(std::move(task));
        batches.emplace_back(std::move(members), std::move(rc));
      }
    }
    co_await eq.wait_all();
    if (sim::SpanSink* sink = client_.scheduler().span_sink()) {
      sink->span("batch", strfmt("write round %d: %zu batches", round, batches.size()),
                 client_.endpoint().node(), 0, round_t0, client_.scheduler().now(), round_ctx);
    }
    std::vector<Pend> next;
    for (auto& [members, rc] : batches) {
      if (*rc == Errno::stale) {
        next.insert(next.end(), members.begin(), members.end());
      } else if (*rc != Errno::ok) {
        status = *rc;
      }
    }
    pending = std::move(next);
  }
  if (status == Errno::ok && !pending.empty()) status = Errno::stale;
  co_return status;
}

sim::CoTask<Result<std::uint64_t>> ArrayObject::read(std::uint64_t offset,
                                                     std::span<std::byte> out,
                                                     vos::Epoch epoch) {
  if (out.empty()) co_return std::uint64_t{0};
  OpTrace tr(client_, "arr_read");
  const std::vector<Piece> pieces = split_pieces(offset, out.size());
  const std::size_t max_batch = client_.config().max_batch_extents;
  const std::uint32_t nreps = layout_.replicas;

  // Degraded read, batched: each round every unfinished piece probes one
  // (target, replica) — pieces sharing a target ride one RPC. Replies that
  // are stale re-place (bounded) on the same replica; failures fall back to
  // the next replica from the piece's hashed starting point; the best
  // (most-filled) answer wins, exactly as the old per-piece loop did.
  std::vector<ReadProgress> prog(pieces.size());
  auto rep_of = [&](std::uint32_t i) {
    const std::uint32_t r0 =
        nreps == 1 ? 0 : std::uint32_t(mix64(pieces[i].chunk_idx ^ mix64(oid_.lo)) % nreps);
    return (r0 + prog[i].attempt) % nreps;
  };

  for (int round = 0;; ++round) {
    std::vector<std::uint32_t> active;
    for (std::uint32_t i = 0; i < prog.size(); ++i) {
      if (!prog[i].done && prog[i].attempt < nreps) active.push_back(i);
    }
    if (active.empty()) break;
    // Per-round "batch" span, as in write. Id allocated unconditionally.
    const sim::TraceContext round_ctx = tr.ctx().child(client_.scheduler().alloc_span_id());
    const sim::Time round_t0 = client_.scheduler().now();
    refresh_layout();
    std::map<std::uint32_t, std::vector<std::uint32_t>> by_target;
    for (const std::uint32_t i : active) {
      by_target[layout_.at(group_of_chunk(pieces[i].chunk_idx), rep_of(i))].push_back(i);
    }
    EventQueue eq(client_.scheduler(), client_.config().max_inflight_rpcs);
    std::vector<std::pair<std::vector<std::uint32_t>, std::shared_ptr<Reply>>> batches;
    for (auto& [tgt, list] : by_target) {
      for (std::size_t b = 0; b < list.size(); b += max_batch) {
        const std::size_t n = std::min(max_batch, list.size() - b);
        ObjFetchReq req;
        req.cont = cont_;
        req.oid = oid_;
        req.akey = "0";
        req.type = RecordType::array;
        req.epoch = epoch;
        req.extents.reserve(n);
        std::uint64_t payload_bytes = 0;
        for (std::size_t k = 0; k < n; ++k) {
          const Piece& pc = pieces[list[b + k]];
          req.extents.push_back(
              {strfmt("%llu", static_cast<unsigned long long>(pc.chunk_idx)), pc.offset,
               pc.length, payload_bytes});
          payload_bytes += pc.length;
        }
        auto reply = std::make_shared<Reply>();
        std::vector<std::uint32_t> members(list.begin() + std::ptrdiff_t(b),
                                           list.begin() + std::ptrdiff_t(b + n));
        sim::CoTask<void> task = fetch_batch(tgt, std::move(req), round_ctx, reply);
        co_await eq.launch(std::move(task));
        batches.emplace_back(std::move(members), std::move(reply));
      }
    }
    co_await eq.wait_all();
    if (sim::SpanSink* sink = client_.scheduler().span_sink()) {
      sink->span("batch", strfmt("read round %d: %zu batches", round, batches.size()),
                 client_.endpoint().node(), 0, round_t0, client_.scheduler().now(), round_ctx);
    }
    for (auto& [members, reply] : batches) {
      if (reply->status == Errno::stale) {
        for (const std::uint32_t i : members) {
          ReadProgress& st = prog[i];
          if (st.stale_rounds < kMaxPlaceRounds) {
            ++st.stale_rounds;  // re-place on the same replica next round
          } else {
            st.last = Errno::stale;
            st.all_answered = false;
            client_.note_degraded_read();
            ++st.attempt;
            st.stale_rounds = 0;
          }
        }
      } else if (reply->status != Errno::ok) {
        for (const std::uint32_t i : members) {
          ReadProgress& st = prog[i];
          st.last = reply->status;
          st.all_answered = false;
          client_.note_degraded_read();
          ++st.attempt;
          st.stale_rounds = 0;
        }
      } else {
        auto& resp = reply->body.get<ObjFetchResp>();
        DAOSIM_REQUIRE(resp.fills.size() == members.size(), "batched fetch fill mismatch");
        std::uint64_t payload_off = 0;
        for (std::size_t k = 0; k < members.size(); ++k) {
          const std::uint32_t i = members[k];
          const Piece& pc = pieces[i];
          ReadProgress& st = prog[i];
          if (!st.have_best || resp.fills[k] > st.best_filled) {
            st.have_best = true;
            st.best_filled = resp.fills[k];
            if (resp.data != nullptr) {
              auto src = std::span<const std::byte>(*resp.data)
                             .subspan(std::size_t(payload_off), std::size_t(pc.length));
              auto dst = out.subspan(std::size_t(pc.buffer_off), std::size_t(pc.length));
              std::copy(src.begin(), src.end(), dst.begin());
            }
          }
          payload_off += pc.length;
          if (st.best_filled >= pc.length) {
            st.done = true;
          } else {
            ++st.attempt;
            st.stale_rounds = 0;
          }
        }
      }
    }
  }

  Errno status = Errno::ok;
  std::uint64_t filled = 0;
  for (std::uint32_t i = 0; i < prog.size(); ++i) {
    const ReadProgress& st = prog[i];
    const std::uint32_t g = group_of_chunk(pieces[i].chunk_idx);
    if (!st.have_best) {
      if (group_lost(g)) {
        client_.note_data_loss(oid_, g);
        status = Errno::data_loss;
      } else {
        status = st.last;
      }
      continue;
    }
    filled += st.best_filled;
    // A short read whose group lost every nominal replica is data loss, not a
    // legitimate hole; one with a failed replica is equally inconclusive
    // (see the old fetch_piece note).
    if (st.best_filled < pieces[i].length) {
      if (group_lost(g)) {
        client_.note_data_loss(oid_, g);
        status = Errno::data_loss;
      } else if (!st.all_answered) {
        status = st.last;
      }
    }
  }
  if (status != Errno::ok) co_return status;
  co_return filled;
}

sim::CoTask<Result<std::uint64_t>> ArrayObject::size() {
  OpTrace tr(client_, "arr_size");
  refresh_layout();
  auto status = std::make_shared<Errno>(Errno::ok);
  auto max_end = std::make_shared<std::uint64_t>(0);
  sim::WaitGroup wg(client_.scheduler());
  for (std::uint32_t s = 0; s < layout_.size(); ++s) {
    ObjQueryReq req;
    req.cont = cont_;
    req.oid = oid_;
    req.kind = engine::QueryKind::array_end_hint;
    wg.spawn(query_piece(s, std::move(req), tr.ctx(), status, max_end));
  }
  co_await wg.wait();
  if (*status != Errno::ok) co_return *status;
  co_return *max_end;
}

sim::CoTask<void> ArrayObject::update_batch(std::uint32_t map_target, engine::ObjUpdateReq req,
                                            std::uint64_t wire, sim::TraceContext ctx,
                                            std::shared_ptr<Errno> out) {
  req.target = client_.pool_map().targets[map_target].target;
  client_.note_batch(req.extents.size());
  Body body = Body::make(std::move(req));
  // One client-wide credit per in-flight object RPC: many concurrent array
  // calls (IOR ranks x eq_depth) must collectively stay under the endpoint's
  // hard in-flight cap, which fails excess calls with Errno::busy.
  // The wait is a "credit" child span: under EQ pressure this is where
  // client-side queueing shows up. Id allocated unconditionally.
  const sim::TraceContext credit_ctx = ctx.child(client_.scheduler().alloc_span_id());
  const sim::Time c0 = client_.scheduler().now();
  co_await client_.rpc_credits().acquire();
  if (sim::SpanSink* sink = client_.scheduler().span_sink()) {
    sink->span("credit", strfmt("rpc credit ->%u", map_target), client_.endpoint().node(), 0,
               c0, client_.scheduler().now(), credit_ctx);
  }
  Reply reply =
      co_await client_.call_target(map_target, engine::kOpObjUpdate, std::move(body), wire, ctx);
  client_.rpc_credits().release();
  *out = reply.status;
}

sim::CoTask<void> ArrayObject::fetch_batch(std::uint32_t map_target, engine::ObjFetchReq req,
                                           sim::TraceContext ctx,
                                           std::shared_ptr<net::Reply> out) {
  const std::uint64_t wire = engine::obj_wire_bytes(req.extents.size(), 0);
  req.target = client_.pool_map().targets[map_target].target;
  client_.note_batch(req.extents.size());
  Body body = Body::make(std::move(req));
  const sim::TraceContext credit_ctx = ctx.child(client_.scheduler().alloc_span_id());
  const sim::Time c0 = client_.scheduler().now();
  co_await client_.rpc_credits().acquire();  // see update_batch
  if (sim::SpanSink* sink = client_.scheduler().span_sink()) {
    sink->span("credit", strfmt("rpc credit ->%u", map_target), client_.endpoint().node(), 0,
               c0, client_.scheduler().now(), credit_ctx);
  }
  *out = co_await client_.call_target(map_target, engine::kOpObjFetch, std::move(body), wire,
                                      ctx);
  client_.rpc_credits().release();
}

sim::CoTask<void> ArrayObject::query_piece(std::uint32_t shard, engine::ObjQueryReq req,
                                           sim::TraceContext ctx,
                                           std::shared_ptr<Errno> status,
                                           std::shared_ptr<std::uint64_t> max_end) {
  Reply reply{};
  for (int round = 0;; ++round) {
    refresh_layout();
    const std::uint32_t map_target = layout_.targets[shard];
    req.target = client_.pool_map().targets[map_target].target;
    Body body = Body::make(req);
    reply = co_await client_.call_target(map_target, engine::kOpObjQuery, std::move(body),
                                         engine::kObjRpcHeader, ctx);
    if (reply.status != Errno::stale || round >= kMaxPlaceRounds) break;
  }
  if (reply.status != Errno::ok) {
    *status = reply.status;
    co_return;
  }
  *max_end = std::max(*max_end, reply.body.get<ObjQueryResp>().value);
}

sim::CoTask<Errno> ArrayObject::punch() {
  OpTrace tr(client_, "arr_punch");
  refresh_layout();
  Errno status = Errno::ok;
  for (std::uint32_t s = 0; s < layout_.size(); ++s) {
    ObjPunchReq req;
    req.cont = cont_;
    req.oid = oid_;
    req.scope = PunchScope::object;
    Reply r{};
    for (int round = 0;; ++round) {
      refresh_layout();
      const std::uint32_t map_target = layout_.targets[s];
      req.target = client_.pool_map().targets[map_target].target;
      Body body = Body::make(req);
      r = co_await client_.call_target(map_target, engine::kOpObjPunch, std::move(body),
                                       engine::kObjRpcHeader, tr.ctx());
      if (r.status != Errno::stale || round >= kMaxPlaceRounds) break;
    }
    if (r.status != Errno::ok) status = r.status;
  }
  co_return status;
}

}  // namespace daosim::client
