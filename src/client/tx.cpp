#include "client/tx.hpp"

#include <algorithm>

namespace daosim::client {

using net::Body;
using net::Reply;

namespace {
// Trace-digest tags for client-side transaction outcomes (the engine-side
// DTX service owns 0xFA17E009..E00D).
constexpr std::uint64_t kTraceTxCommitted = 0xFA17E00E'0000'0000ULL;
constexpr std::uint64_t kTraceTxRestarted = 0xFA17E00F'0000'0000ULL;
}  // namespace

// ---------------------------------------------------------------------------
// TxHandle

TxHandle::TxHandle(DaosClient& client, vos::Uuid cont, std::uint64_t seq)
    : client_(client), cont_(cont), id_{client.endpoint().node(), seq} {}

void TxHandle::stage(std::uint32_t map_target, engine::TxOpDesc op) {
  staged_[map_target].push_back(std::move(op));
}

std::size_t TxHandle::staged_ops() const {
  std::size_t n = 0;
  for (const auto& [mt, ops] : staged_) n += ops.size();
  return n;
}

void TxHandle::kv_put(vos::ObjId oid, const vos::Key& dkey, const vos::Key& akey,
                      std::span<const std::byte> value) {
  DAOSIM_REQUIRE(state_ == State::open, "kv_put on a decided transaction");
  const GroupLayout layout = object_layout(oid, client_.pool_map());
  engine::TxOpDesc op;
  op.oid = oid;
  op.dkey = dkey;
  op.akey = akey;
  op.type = engine::RecordType::single_value;
  op.length = value.size();
  op.data = std::make_shared<std::vector<std::byte>>(value.begin(), value.end());
  const std::uint32_t g = kv_dkey_group(dkey, layout.groups());
  // Replica fan happens at staging time: every replica of the group is a
  // full participant with its own prepared entry (the op payload is shared).
  for (std::uint32_t rep = 0; rep < layout.replicas; ++rep) stage(layout.at(g, rep), op);
}

void TxHandle::array_write(vos::ObjId oid, std::uint64_t chunk_size, std::uint64_t offset,
                           std::uint64_t length, std::span<const std::byte> data) {
  DAOSIM_REQUIRE(state_ == State::open, "array_write on a decided transaction");
  DAOSIM_REQUIRE(chunk_size > 0, "chunk size must be positive");
  DAOSIM_REQUIRE(data.empty() || data.size() == length, "payload size mismatch");
  const GroupLayout layout = object_layout(oid, client_.pool_map());
  for (const ArrayPiece& pc : split_pieces(chunk_size, offset, length)) {
    engine::Payload payload;  // null: metadata-only
    if (!data.empty()) {
      auto sub = data.subspan(std::size_t(pc.buffer_off), std::size_t(pc.length));
      payload = std::make_shared<std::vector<std::byte>>(sub.begin(), sub.end());
    }
    const engine::TxOpDesc op{.oid = oid,
                              .dkey = array_chunk_dkey(pc.chunk_idx),
                              .akey = "0",
                              .type = engine::RecordType::array,
                              .offset = pc.offset,
                              .length = pc.length,
                              .array_end_hint = offset + length,
                              .data = std::move(payload)};
    const std::uint32_t g = array_chunk_group(oid, pc.chunk_idx, layout.groups());
    for (std::uint32_t rep = 0; rep < layout.replicas; ++rep) stage(layout.at(g, rep), op);
  }
}

sim::CoTask<Errno> TxHandle::commit() {
  DAOSIM_REQUIRE(state_ == State::open, "commit on a decided transaction");
  if (staged_.empty()) {
    state_ = State::committed;
    client_.note_tx_commit(0);
    co_return Errno::ok;
  }
  // The commit is a traced client-level op: prepares, the leader decision
  // and both fans hang beneath one root, so a 2PC reads as a single tree.
  OpTrace tr(client_, "tx_commit");
  sim::Scheduler& sched = client_.scheduler();
  const sim::Time t0 = sched.now();
  epoch_ = client_.tx_alloc_epoch();
  leader_ = staged_.begin()->first;

  // Phase 1: prepare on every participant in parallel. A prepare stages the
  // shard's ops at epoch_ and locks the touched keys; any conflict answers
  // Errno::tx_restart.
  sim::WaitGroup wg(sched);
  std::vector<std::shared_ptr<Reply>> results;
  for (const auto& [mt, ops] : staged_) {
    engine::TxPrepareReq req;
    req.cont = cont_;
    req.tx_client = id_.client;
    req.tx_seq = id_.seq;
    req.epoch = epoch_;
    req.leader = leader_;
    req.ops = ops;
    std::uint64_t payload = 0;
    for (const auto& op : ops) payload += op.length;
    const std::uint64_t wire = engine::obj_wire_bytes(ops.size(), payload);
    auto reply = std::make_shared<Reply>();
    sim::CoTask<void> task =
        client_.call_credited(mt, engine::kOpTxPrepare, std::move(req), wire, tr.ctx(), reply);
    wg.spawn(std::move(task));
    results.push_back(std::move(reply));
  }
  co_await wg.wait();
  Errno prep = Errno::ok;
  for (const auto& reply : results) {
    if (reply->status != Errno::ok && prep == Errno::ok) prep = reply->status;
    if (reply->status == Errno::tx_restart) prep = Errno::tx_restart;  // conflicts dominate
  }
  if (prep != Errno::ok) {
    // Abort everywhere (including the leader, whose sticky abort record
    // fences any prepare still in flight after a timed-out attempt).
    co_await abort_fan(tr.ctx());
    state_ = State::aborted;
    client_.note_tx_abort();
    if (prep == Errno::tx_restart) {
      client_.note_tx_restart();
      sched.trace_note(kTraceTxRestarted ^ (id_.client << 32) ^ id_.seq);
    }
    co_return prep;
  }

  // Phase 2: decide on the leader shard FIRST — its decision record is the
  // durable commit point every resolve consults.
  const Errno lead = co_await decide_one(leader_, engine::kOpTxCommit, tr.ctx());
  if (lead == Errno::tx_restart) {
    // The orphan reaper's sticky abort beat the commit: definitive loss.
    co_await abort_fan(tr.ctx());
    state_ = State::aborted;
    client_.note_tx_abort();
    client_.note_tx_restart();
    sched.trace_note(kTraceTxRestarted ^ (id_.client << 32) ^ id_.seq);
    co_return Errno::tx_restart;
  }
  if (lead != Errno::ok) {
    // In doubt: the leader may or may not have recorded the commit, so no
    // abort may be sent. DTX resync settles every shard from the leader's
    // table (or orphan-aborts if the record never landed).
    state_ = State::in_doubt;
    co_return lead;
  }
  // Fan the commit to the remaining participants. Failures are tolerated:
  // a shard that missed the decision keeps its prepared entry until the
  // reaper resolves it against the leader.
  sim::WaitGroup fan(sched);
  for (const auto& [mt, ops] : staged_) {
    if (mt == leader_) continue;
    sim::CoTask<void> task = decide_quiet(mt, engine::kOpTxCommit, tr.ctx());
    fan.spawn(std::move(task));
  }
  co_await fan.wait();
  state_ = State::committed;
  client_.note_tx_commit(sched.now() - t0);
  sched.trace_note(kTraceTxCommitted ^ (id_.client << 32) ^ id_.seq);
  co_return Errno::ok;
}

sim::CoTask<Errno> TxHandle::abort() {
  DAOSIM_REQUIRE(state_ == State::open, "abort on a decided transaction");
  // Nothing has been prepared: staging is local until commit() runs.
  state_ = State::aborted;
  staged_.clear();
  client_.note_tx_abort();
  co_return Errno::ok;
}

sim::CoTask<Errno> TxHandle::decide_one(std::uint32_t map_target, std::uint16_t opcode,
                                        sim::TraceContext ctx) {
  engine::TxDecideReq req;
  req.cont = cont_;
  req.tx_client = id_.client;
  req.tx_seq = id_.seq;
  req.target = client_.pool_map().targets[map_target].target;
  Body body = Body::make(std::move(req));
  Reply r = co_await client_.call_target(map_target, opcode, std::move(body),
                                         engine::kObjRpcHeader, ctx);
  co_return r.status;
}

sim::CoTask<void> TxHandle::decide_quiet(std::uint32_t map_target, std::uint16_t opcode,
                                         sim::TraceContext ctx) {
  (void)co_await decide_one(map_target, opcode, ctx);
}

sim::CoTask<void> TxHandle::abort_fan(sim::TraceContext ctx) {
  sim::WaitGroup wg(client_.scheduler());
  for (const auto& [mt, ops] : staged_) {
    sim::CoTask<void> task = decide_quiet(mt, engine::kOpTxAbort, ctx);
    wg.spawn(std::move(task));
  }
  co_await wg.wait();
}

// ---------------------------------------------------------------------------
// DaosClient transaction & snapshot entry points

TxHandle DaosClient::tx_begin(vos::Uuid cont) { return TxHandle(*this, cont, ++tx_seq_); }

vos::Epoch DaosClient::tx_alloc_epoch() {
  const vos::Epoch e =
      std::max(vos::hlc_client(sched_.now(), endpoint().node()), tx_last_epoch_ + 1);
  tx_last_epoch_ = e;
  return e;
}

sim::CoTask<Errno> DaosClient::run_tx(vos::Uuid cont,
                                      std::function<sim::CoTask<Errno>(TxHandle&)> body,
                                      int max_restarts) {
  Errno last = Errno::tx_restart;
  for (int attempt = 1; attempt <= max_restarts; ++attempt) {
    TxHandle tx = tx_begin(cont);
    Errno st = co_await body(tx);
    if (st != Errno::ok) {
      if (tx.open()) co_await tx.abort();
      co_return st;
    }
    st = co_await tx.commit();
    if (st == Errno::ok) co_return Errno::ok;
    // tx_restart (lost a conflict) and stale (a participant moved) both
    // restage cleanly; anything else — including in-doubt commits — must
    // surface, not silently re-run.
    if (st != Errno::tx_restart && st != Errno::stale) co_return st;
    last = st;
    co_await sched_.delay(retry_backoff(retry_, attempt));
  }
  co_return last;
}

sim::CoTask<Result<vos::Epoch>> DaosClient::snapshot_create(vos::Uuid cont) {
  // A fresh HLC epoch is a consistent cut: every transaction this client
  // saw commit is at or below it, every later one lands above it.
  const vos::Epoch e = tx_alloc_epoch();
  auto res = co_await svc_.run(pool::SnapCreate{cont, e});
  if (!res.ok()) co_return res.error();
  co_return e;
}

sim::CoTask<Result<void>> DaosClient::snapshot_destroy(vos::Uuid cont, vos::Epoch epoch) {
  auto res = co_await svc_.run(pool::SnapDestroy{cont, epoch});
  if (!res.ok()) co_return res.error();
  co_return Result<void>{};
}

sim::CoTask<Result<std::vector<vos::Epoch>>> DaosClient::list_snapshots(vos::Uuid cont) {
  co_return co_await svc_.run(pool::SnapList{cont});
}

sim::CoTask<Result<void>> DaosClient::cont_aggregate(vos::Uuid cont, vos::Epoch upto) {
  auto snaps = co_await list_snapshots(cont);
  if (!snaps.ok()) co_return snaps.error();
  if (!snaps->empty()) {
    const vos::Epoch min_snap = snaps->front();
    if (min_snap == 0) co_return Result<void>{};
    upto = std::min(upto, min_snap - 1);  // never merge across a snapshot
  }
  if (upto == 0) co_return Result<void>{};
  Errno status = Errno::ok;
  for (std::uint32_t mt = 0; mt < map_.target_count(); ++mt) {
    if (map_.targets[mt].health == pool::TargetHealth::excluded) continue;
    engine::ContAggregateReq req;
    req.cont = cont;
    req.target = map_.targets[mt].target;
    req.upto = upto;
    Body body = Body::make(std::move(req));
    Reply r = co_await call_target(mt, engine::kOpContAggregate, std::move(body),
                                   engine::kObjRpcHeader);
    // stale = the target got evicted mid-walk: its history is rebuilt
    // elsewhere, nothing to aggregate there.
    if (r.status != Errno::ok && r.status != Errno::stale) status = r.status;
  }
  if (status != Errno::ok) co_return status;
  co_return Result<void>{};
}

}  // namespace daosim::client
