// libdaos equivalent: the client-side API the paper's interface stack builds
// on. A DaosClient lives on one client node; it talks to the pool service
// (container metadata, OID allocation) and directly to engines for object
// I/O, placing shards algorithmically from the pool map.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "client/object_class.hpp"
#include "client/placement.hpp"
#include "engine/proto.hpp"
#include "net/rpc.hpp"
#include "pool/pool_map.hpp"
#include "pool/svc_client.hpp"
#include "sim/sync.hpp"
#include "telemetry/telemetry.hpp"

namespace daosim::client {

class TxHandle;

/// Bounded asynchronous operation queue (the daos_event/EQ model): launch
/// operations without blocking, then await completion of all of them.
class EventQueue {
 public:
  /// @param max_inflight 0 = unbounded
  EventQueue(sim::Scheduler& s, std::size_t max_inflight = 0)
      : sched_(s), wg_(s), slots_(max_inflight > 0
                                      ? std::make_unique<sim::Semaphore>(s, max_inflight)
                                      : nullptr) {}

  /// Launches `op`; suspends only while the queue is at max_inflight.
  sim::CoTask<void> launch(sim::CoTask<void> op) {
    if (slots_ != nullptr) co_await slots_->acquire();
    // Hoisted into a named local: GCC 12 miscompiles coroutine temporaries
    // passed directly into another coroutine's by-value parameter.
    sim::CoTask<void> wrapped = run(std::move(op));
    wg_.spawn(std::move(wrapped));
  }

  /// Callable overload keeping the closure alive (see Scheduler::spawn).
  template <typename F>
    requires requires(F f) {
      { f() } -> std::same_as<sim::CoTask<void>>;
    }
  sim::CoTask<void> launch(F f) {
    return launch(invoke_holding(std::move(f)));
  }

  /// Completes when every launched operation has finished.
  auto wait_all() { return wg_.wait(); }
  std::size_t inflight() const { return wg_.pending(); }

 private:
  template <typename F>
  static sim::CoTask<void> invoke_holding(F f) {
    co_await f();
  }

  sim::CoTask<void> run(sim::CoTask<void> op) {
    co_await std::move(op);
    if (slots_ != nullptr) slots_->release();
  }
  sim::Scheduler& sched_;
  sim::WaitGroup wg_;
  std::unique_ptr<sim::Semaphore> slots_;
};

struct ContInfo {
  vos::Uuid uuid;
  pool::ContProps props;
};

/// Client-side I/O tuning knobs.
struct ClientConfig {
  /// Upper bound on extents coalesced into one batched ObjUpdate/ObjFetch
  /// RPC by ArrayObject::write/read (the sgl/iod vector length). 1 disables
  /// batching — one RPC per chunk piece per replica, the pre-vectorized
  /// behaviour, kept for A/B runs.
  std::uint32_t max_batch_extents = 16;
  /// Client-wide credit window on batched object RPCs: every
  /// ArrayObject::write/read on this client draws from one shared semaphore,
  /// so the node's total in-flight object I/O stays under the endpoint's
  /// hard in-flight cap (which rejects with Errno::busy instead of queueing)
  /// no matter how many concurrent calls — ranks x eq_depth under IOR — the
  /// node runs. Also bounds the coroutine fan-out of a single many-extent
  /// call (small chunk sizes, max_batch_extents=1).
  std::uint32_t max_inflight_rpcs = 32;
  /// Causal-trace sampling: 1 in trace_sample client-level ops becomes a
  /// trace root (1 = every op, 0 = none). The decision hashes
  /// (trace_seed, node, op sequence) so it is deterministic and per-op
  /// independent; unsampled ops still bump the op sequence and span-id
  /// counter, so changing the rate never perturbs ids, timings or
  /// trace_hash().
  std::uint64_t trace_sample = 1;
  std::uint64_t trace_seed = 0;
};

/// Client-side RPC resilience policy: every RPC gets a per-attempt reply
/// deadline and a bounded number of retries separated by deterministic
/// exponential backoff. All durations are virtual time, so the resulting
/// retry pattern is bit-reproducible.
///
/// The default deadline is deliberately generous (cf. CaRT's 60s RPC
/// timeout): it must sit well above worst-case *legitimate* queueing — a
/// single-shard (S1) object at 256 ranks funnels every transfer through one
/// target, where the tail request waits >1s of virtual time. Unreachable
/// engines don't need the deadline at all: each attempt fails after
/// net::kRpcTimeout, so the time to give up on one is governed by that, not
/// by this.
/// Tests that want aggressive duplicate-apply behaviour shrink the deadline
/// via set_retry_policy.
struct RetryPolicy {
  int max_attempts = 4;                      // total attempts (first + retries)
  sim::Time deadline = 5 * sim::kSec;        // per-attempt reply deadline
  sim::Time backoff_base = 20 * sim::kMs;    // delay before the first retry
  sim::Time backoff_cap = 500 * sim::kMs;    // backoff growth ceiling
};

/// Backoff inserted before retry attempt `attempt` (1-based: the delay
/// between attempt N and attempt N+1 is retry_backoff(policy, N)):
/// base, 2*base, 4*base, ... capped at backoff_cap.
constexpr sim::Time retry_backoff(const RetryPolicy& p, int attempt) {
  sim::Time d = p.backoff_base;
  for (int i = 1; i < attempt && d < p.backoff_cap; ++i) d *= 2;
  return d < p.backoff_cap ? d : p.backoff_cap;
}

class DaosClient {
 public:
  /// @param node          this client's fabric node
  /// @param map           the pool map obtained at pool connect
  /// @param svc_replicas  engines hosting the pool service (Raft group)
  DaosClient(net::RpcDomain& domain, net::NodeId node, pool::PoolMap map,
             std::vector<net::NodeId> svc_replicas, ClientConfig cfg = {});

  const net::RpcEndpoint& endpoint() const { return rpc_.endpoint(); }
  sim::Scheduler& scheduler() { return sched_; }
  const pool::PoolMap& pool_map() const { return map_; }

  const RetryPolicy& retry_policy() const { return retry_; }
  void set_retry_policy(RetryPolicy p) { retry_ = p; }

  const ClientConfig& config() const { return cfg_; }
  /// Must not be called with object I/O in flight: the RPC credit semaphore
  /// is rebuilt to the new window size.
  void set_config(ClientConfig cfg) {
    DAOSIM_REQUIRE(cfg.max_batch_extents >= 1, "max_batch_extents must be >= 1");
    DAOSIM_REQUIRE(cfg.max_inflight_rpcs >= 1, "max_inflight_rpcs must be >= 1");
    cfg_ = cfg;
    rpc_credits_ = std::make_unique<sim::Semaphore>(sched_, cfg_.max_inflight_rpcs);
  }

  // --- pool service operations ---
  sim::CoTask<Result<ContInfo>> cont_create(vos::Uuid uuid, pool::ContProps props);
  sim::CoTask<Result<ContInfo>> cont_open(vos::Uuid uuid);
  sim::CoTask<Result<void>> cont_destroy(vos::Uuid uuid);
  /// Allocates a contiguous range of object sequence numbers; returns base.
  sim::CoTask<Result<std::uint64_t>> alloc_oids(vos::Uuid cont, std::uint64_t count);

  // --- distributed transactions & snapshots (client/tx.cpp) ---

  /// Opens a transaction on `cont`. Writes staged through the handle become
  /// visible atomically at commit; see TxHandle. Every handle must be closed
  /// with a co_await'ed commit() or abort() (enforced by the tx-unresolved
  /// lint rule).
  TxHandle tx_begin(vos::Uuid cont);

  /// Runs `body` inside a transaction, committing afterwards and restarting
  /// from scratch (fresh handle, fresh epoch, deterministic backoff) on
  /// Errno::tx_restart conflicts or stale placements, up to `max_restarts`.
  sim::CoTask<Errno> run_tx(vos::Uuid cont, std::function<sim::CoTask<Errno>(TxHandle&)> body,
                            int max_restarts = 8);

  /// Allocates a fresh client HLC epoch: vos::hlc_client(now) bumped past
  /// every epoch this client handed out before, so one client's transactions
  /// and snapshots are strictly ordered.
  vos::Epoch tx_alloc_epoch();

  /// Registers a snapshot of `cont` at a fresh HLC epoch and returns that
  /// epoch. Reads at it (KvObject::get / ArrayObject::read epoch parameter)
  /// see the committed state as of the cut; aggregation stays below the
  /// lowest registered snapshot until snapshot_destroy unpins it.
  sim::CoTask<Result<vos::Epoch>> snapshot_create(vos::Uuid cont);
  sim::CoTask<Result<void>> snapshot_destroy(vos::Uuid cont, vos::Epoch epoch);
  /// Registered snapshot epochs, ascending.
  sim::CoTask<Result<std::vector<vos::Epoch>>> list_snapshots(vos::Uuid cont);
  /// Fans epoch aggregation over every UP target of the pool, with `upto`
  /// clamped below the container's lowest snapshot (engines additionally
  /// clamp below their oldest prepared transaction).
  sim::CoTask<Result<void>> cont_aggregate(vos::Uuid cont, vos::Epoch upto = vos::kEpochMax);

  // --- resilient RPC (the only path to RpcEndpoint::call; see Rpc) ---

  /// One RPC attempt racing a reply deadline. On expiry the attempt is
  /// abandoned (the in-flight call still completes against the server — the
  /// duplicate-apply window real retries face) and Errno::timed_out returns.
  /// `ctx` links the attempt into the caller's trace tree (see call_target).
  sim::CoTask<net::Reply> call_with_deadline(net::NodeId dst, std::uint16_t opcode,
                                             net::Body body, std::uint64_t wire_bytes,
                                             sim::Time deadline, sim::TraceContext ctx = {}) {
    return rpc_.call_with_deadline(dst, opcode, std::move(body), wire_bytes, deadline, ctx);
  }

  /// Bounded retry with deterministic exponential backoff: retries on
  /// timed_out/busy up to the policy's attempt budget, then surfaces the
  /// final status. Backoff waits are recorded as "retry" child spans of
  /// `ctx`, so traced ops show retry storms explicitly.
  sim::CoTask<net::Reply> call_retry(net::NodeId dst, std::uint16_t opcode, net::Body body,
                                     std::uint64_t wire_bytes, sim::TraceContext ctx = {});

  /// Object RPC to a pool-map target. Targets this client already knows are
  /// EXCLUDED fail fast with Errno::stale. A target that exhausts its retry
  /// budget gets its engine marked DOWN locally; the call then waits for the
  /// engines' failure detector (SWIM) to evict it, pulling map deltas until
  /// the engine shows EXCLUDED or kMapWait expires, and returns Errno::stale
  /// so the caller re-places. Clients never evict anyone themselves.
  sim::CoTask<net::Reply> call_target(std::uint32_t map_target, std::uint16_t opcode,
                                      net::Body body, std::uint64_t wire_bytes,
                                      sim::TraceContext ctx = {});

  /// The credited send: call_target holding one credit of the client-wide
  /// object-RPC window (ClientConfig::max_inflight_rpcs), so every batched
  /// update/fetch and transaction prepare on this client, however many run
  /// at once (IOR ranks x eq_depth), stays under the endpoint's hard
  /// in-flight cap, which fails excess calls with Errno::busy. The credit
  /// wait is a "credit" child span of `ctx`: under EQ pressure this is where
  /// client-side queueing shows. Fills in `req.target` for `map_target` and
  /// parks the reply in `out`, so an EventQueue or WaitGroup launches it
  /// directly.
  template <typename Req>
  sim::CoTask<void> call_credited(std::uint32_t map_target, std::uint16_t opcode, Req req,
                                  std::uint64_t wire_bytes, sim::TraceContext ctx,
                                  std::shared_ptr<net::Reply> out) {
    req.target = map_.targets[map_target].target;
    net::Body body = net::Body::make(std::move(req));
    const sim::TraceContext credit_ctx = ctx.child(sched_.alloc_span_id());
    const sim::Time c0 = sched_.now();
    co_await rpc_credits_->acquire();
    if (sim::SpanSink* sink = sched_.span_sink()) {
      sink->span("credit", strfmt("rpc credit ->%u", map_target), endpoint().node(), 0, c0,
                 sched_.now(), credit_ctx);
    }
    *out = co_await call_target(map_target, opcode, std::move(body), wire_bytes, ctx);
    rpc_credits_->release();
  }

  /// Samples the next client-level op into a trace: bumps the op sequence
  /// and allocates a root span id unconditionally (both pure counters), then
  /// returns an active root context for 1-in-trace_sample ops and an
  /// inactive one otherwise. Object handles use this via OpTrace.
  sim::TraceContext sample_op_trace();

  /// Admin reintegration (the `dmg pool reintegrate` equivalent): clears the
  /// engine's EXCLUDED state through the pool service, then pulls map deltas
  /// from the engines until the local map reaches the committed version
  /// (Errno::timed_out if it does not within kMapWait). Restarting an engine
  /// does NOT reintegrate it — this call does.
  sim::CoTask<Result<void>> pool_reint(net::NodeId engine);

  /// Records a whole-redundancy-group loss surfaced by a degraded read: every
  /// nominal replica of the group is EXCLUDED. The message names the object
  /// and group so data loss is never silent.
  void note_data_loss(vos::ObjId oid, std::uint32_t group);

  std::uint64_t rpcs_sent() const { return endpoint().calls_made(); }
  std::uint64_t map_delta_fetches() const { return map_delta_fetches_; }
  std::uint64_t map_staleness_detected() const { return map_staleness_detected_; }
  std::uint64_t data_loss_events() const { return data_loss_; }
  const std::string& last_data_loss() const { return last_data_loss_; }

  /// This client's metric tree ("client/<node>"): per-opcode RPC metrics from
  /// the endpoint plus retry/backoff, map-delta, degraded-read and data-loss
  /// counters.
  telemetry::Registry& telemetry() { return metrics_; }
  const telemetry::Registry& telemetry() const { return metrics_; }

  /// Counts a read that had to fall back past a failed/unreachable replica
  /// (called by the object handles' degraded-read loops).
  void note_degraded_read() { degraded_reads_->inc(); }

  /// Transaction outcome accounting (called by TxHandle / run_tx).
  void note_tx_commit(sim::Time duration) {
    tx_commits_->inc();
    tx_commit_time_->record(duration);
  }
  void note_tx_abort() { tx_aborts_->inc(); }
  void note_tx_restart() { tx_restarts_->inc(); }
  std::uint64_t tx_commits() const { return tx_commits_->value(); }
  std::uint64_t tx_aborts() const { return tx_aborts_->value(); }
  std::uint64_t tx_restarts() const { return tx_restarts_->value(); }

  /// Records one batched object RPC carrying `extents` descriptors:
  /// batch/extents_coalesced counts extents that shared an RPC with at least
  /// one other, batch/rpcs_saved the RPCs batching avoided sending.
  void note_batch(std::size_t extents) {
    if (extents > 1) {
      batch_extents_coalesced_->inc(extents);
      batch_rpcs_saved_->inc(extents - 1);
    }
  }

 private:
  /// This client's endpoint, sealed: call_with_deadline is its only route to
  /// RpcEndpoint::call, so every client RPC has a reply deadline. An
  /// enclosing class cannot reach a nested class's private members, so a raw
  /// `rpc_.ep_.call(...)` anywhere in DaosClient does not compile.
  class Rpc {
   public:
    Rpc(net::RpcDomain& domain, net::NodeId node) : ep_(domain, node) {}
    const net::RpcEndpoint& endpoint() const { return ep_; }
    void set_telemetry(telemetry::Registry* reg) { ep_.set_telemetry(reg); }
    /// See DaosClient::call_with_deadline.
    sim::CoTask<net::Reply> call_with_deadline(net::NodeId dst, std::uint16_t opcode,
                                               net::Body body, std::uint64_t wire_bytes,
                                               sim::Time deadline, sim::TraceContext ctx);

   private:
    struct PendingCall;
    static sim::CoTask<void> run_call(net::RpcEndpoint* ep, net::NodeId dst,
                                      std::uint16_t opcode, net::Body body,
                                      std::uint64_t wire_bytes, sim::TraceContext ctx,
                                      std::shared_ptr<PendingCall> st);
    net::RpcEndpoint ep_;
  };

  // --- IV map pull (client/refresh.cpp) ---

  /// Pulls version deltas (kOpMapFetch) from the engines until `done()`
  /// holds or kMapWait expires. The first round asks `first` (the engine
  /// whose reply revealed the staleness) when this client does not see it
  /// DOWN; later rounds walk the other engines round-robin. Single-flight:
  /// while one round is in flight, concurrent waiters share it instead of
  /// issuing their own fetch, and rounds that move nothing are paced
  /// client-wide. Never touches the pool service.
  sim::CoTask<void> pull_map(std::function<bool()> done, std::optional<net::NodeId> first);
  /// One kOpMapFetch to `source`; true when it moved the local map.
  sim::CoTask<bool> pull_round(net::NodeId source);
  /// The next engine, round-robin in pool-map order, that this client sees UP.
  std::optional<net::NodeId> next_pull_source();
  /// `engine`'s health in this client's map (all its targets share it).
  pool::TargetHealth engine_health(net::NodeId engine) const;
  /// Moves every target of `engine` in health `from` to `to` (local view).
  void mark_engine(net::NodeId engine, pool::TargetHealth from, pool::TargetHealth to);
  /// Applies a fetched delta suffix to the local map (health flips per
  /// entry), then advances map_.version to `latest`.
  void apply_map_deltas(std::uint32_t latest, const std::vector<engine::MapDeltaEntry>& deltas);

  Rpc rpc_;
  sim::Scheduler& sched_;
  pool::PoolMap map_;
  pool::SvcClient svc_;
  RetryPolicy retry_;
  ClientConfig cfg_;
  std::unique_ptr<sim::Semaphore> rpc_credits_;
  telemetry::Registry metrics_;
  telemetry::Counter* retry_attempts_ = nullptr;
  telemetry::Counter* retry_backoff_ns_ = nullptr;
  telemetry::Counter* degraded_reads_ = nullptr;
  telemetry::Counter* batch_extents_coalesced_ = nullptr;
  telemetry::Counter* batch_rpcs_saved_ = nullptr;
  telemetry::Counter* tx_commits_ = nullptr;
  telemetry::Counter* tx_aborts_ = nullptr;
  telemetry::Counter* tx_restarts_ = nullptr;
  telemetry::DurationHistogram* tx_commit_time_ = nullptr;
  std::uint64_t tx_seq_ = 0;         // per-client transaction sequence
  vos::Epoch tx_last_epoch_ = 0;     // last HLC epoch handed out
  std::uint64_t trace_op_seq_ = 0;   // client-level op counter for trace sampling
  /// Single-flight gate of the pull_map round in flight: the map is
  /// client-global, so one round serves every concurrent waiter.
  std::shared_ptr<sim::Event> pull_gate_;
  /// Earliest time the next pull round may start after one that moved
  /// nothing (pull rounds are paced client-wide, not per waiter).
  sim::Time next_pull_ = 0;
  /// First map target of each engine, in pool-map order (pull sources).
  std::vector<std::uint32_t> engine_targets_;
  std::size_t pull_cursor_ = 0;  // next engine_targets_ slot to pull from
  std::uint64_t data_loss_ = 0;
  /// IV accounting (exported as map/delta_fetches and
  /// map/piggyback_staleness_detected — see docs/membership.md).
  std::uint64_t map_delta_fetches_ = 0;
  std::uint64_t map_staleness_detected_ = 0;
  std::string last_data_loss_;
};

/// RAII root-span guard for one client-level operation (a KvObject put, an
/// ArrayObject write, ...). Construction draws the sampling decision from
/// DaosClient::sample_op_trace; destruction — at the coroutine frame's
/// co_return, i.e. the op's virtual completion time — emits the "op" span.
/// Everything the op does derives child contexts from ctx(); when the op was
/// not sampled, ctx() is inactive and the whole subtree stays unsampled.
class OpTrace {
 public:
  OpTrace(DaosClient& client, const char* name)
      : client_(client), name_(name), begin_(client.scheduler().now()),
        ctx_(client.sample_op_trace()) {}
  ~OpTrace() {
    if (sim::SpanSink* sink = client_.scheduler().span_sink()) {
      sink->span("op", name_, client_.endpoint().node(), 0, begin_,
                 client_.scheduler().now(), ctx_);
    }
  }
  OpTrace(const OpTrace&) = delete;
  OpTrace& operator=(const OpTrace&) = delete;

  const sim::TraceContext& ctx() const { return ctx_; }

 private:
  DaosClient& client_;
  const char* name_;  // static label: no formatting unless a sink is attached
  sim::Time begin_;
  sim::TraceContext ctx_;
};

/// What the object handles share: the object's placement on the pool,
/// re-placed when the client's map moves, the one placed send with bounded
/// stale re-placement, and the whole-object punch.
class ObjectHandle {
 public:
  vos::ObjId oid() const { return oid_; }

 protected:
  ObjectHandle(DaosClient& client, vos::Uuid cont, vos::ObjId oid);

  /// Recomputes the layout when the client's pool map moved past the version
  /// this handle last placed against (refresh-on-stale).
  void refresh_layout();
  /// True when every nominal replica of `group` sits on an EXCLUDED target:
  /// the group's pre-eviction data has no surviving copy.
  bool group_lost(std::uint32_t group) const;

  /// The placed send: `req` to the target at layout slot `slot` (g*R + r),
  /// re-placed against the refreshed map after each Errno::stale for up to
  /// kMaxPlaceRounds more rounds. With `read`, a stale reply whose target
  /// this client still suspects ends the loop: the wait for its eviction
  /// expired, so the caller asks another replica rather than this one again.
  template <typename Req>
  sim::CoTask<net::Reply> send_placed(std::uint32_t slot, std::uint16_t opcode, Req req,
                                      std::uint64_t wire_bytes, sim::TraceContext ctx,
                                      bool read = false);
  /// Punches the object on every shard (traced as `op`). A degraded layout
  /// may punch a substitute twice, which is harmless: punch is idempotent.
  sim::CoTask<Errno> punch_object(const char* op);

  DaosClient& client_;
  vos::Uuid cont_;
  vos::ObjId oid_;
  GroupLayout layout_;   // health-aware: where I/O goes right now
  GroupLayout nominal_;  // intact-pool placement: which replicas exist at all
  std::uint32_t map_version_ = 0;
};

/// KV-style object handle (DAOS "multi-level KV" API): dkey -> akey -> value.
/// Replicated classes (RP_*) fan puts to every replica of the dkey's
/// redundancy group and serve degraded gets from any UP replica; a get whose
/// group lost every nominal replica fails with Errno::data_loss.
class KvObject : public ObjectHandle {
 public:
  KvObject(DaosClient& client, vos::Uuid cont, vos::ObjId oid)
      : ObjectHandle(client, cont, oid) {}

  /// With `excl`, fails with Errno::exists when the dkey already holds a
  /// visible record (DAOS conditional insert).
  sim::CoTask<Errno> put(const vos::Key& dkey, const vos::Key& akey,
                         std::span<const std::byte> value, bool excl = false);
  /// `epoch` bounds visibility (read-at-snapshot): only records committed at
  /// or below it are seen. Default = present state.
  sim::CoTask<Result<std::vector<std::byte>>> get(const vos::Key& dkey, const vos::Key& akey,
                                                  vos::Epoch epoch = vos::kEpochMax);
  sim::CoTask<Result<std::vector<vos::Key>>> list_dkeys();
  sim::CoTask<Errno> punch() { return punch_object("kv_punch"); }
  sim::CoTask<Errno> punch_dkey(const vos::Key& dkey);

 private:
  std::uint32_t group_of(const vos::Key& dkey) const;
  /// The degraded replica walk over group `g`: asks its replicas from `r0`
  /// (rotating), the ones this client suspects last, until `accept` takes an
  /// ok reply, which is returned. Otherwise Errno::data_loss when the group
  /// lost every nominal replica, Errno::no_entry when every replica answered
  /// and none was accepted, else the last failure.
  template <typename Req>
  sim::CoTask<Result<net::Reply>> read_group(std::uint32_t g, std::uint32_t r0,
                                             std::uint16_t opcode, Req req,
                                             sim::TraceContext ctx,
                                             bool (*accept)(const net::Reply&));
};

/// Byte-array object handle (the DAOS array API): a flat address space
/// chunked into dkeys and striped over the object's shards.
class ArrayObject : public ObjectHandle {
 public:
  ArrayObject(DaosClient& client, vos::Uuid cont, vos::ObjId oid, std::uint64_t chunk_size);

  /// Writes `length` logical bytes at `offset`. `data` must be either
  /// length bytes or empty (metadata-only mode for large benchmarks).
  sim::CoTask<Errno> write(std::uint64_t offset, std::uint64_t length,
                           std::span<const std::byte> data);
  /// Reads into `out`; returns bytes overlapping written data. `epoch`
  /// bounds visibility (read-at-snapshot); default = present state.
  sim::CoTask<Result<std::uint64_t>> read(std::uint64_t offset, std::span<std::byte> out,
                                          vos::Epoch epoch = vos::kEpochMax);
  /// Array size = high-water mark of all completed writes.
  sim::CoTask<Result<std::uint64_t>> size();
  sim::CoTask<Errno> punch() { return punch_object("arr_punch"); }

  std::uint64_t chunk_size() const { return chunk_; }
  std::uint32_t shard_count() const { return std::uint32_t(layout_.size()); }

 private:
  std::uint32_t group_of_chunk(std::uint64_t chunk_idx) const {
    return array_chunk_group(oid_, chunk_idx, layout_.groups());
  }

  /// Per-piece degraded-read bookkeeping (see ArrayObject::read).
  struct ReadProgress {
    std::uint32_t attempt = 0;  // replica attempts consumed (0..nreps)
    std::uint64_t tried = 0;    // bit r: replica r consumed
    std::uint32_t rep = 0;      // replica being probed
    int stale_rounds = 0;       // re-placement rounds burned on the current replica
    bool done = false;          // best answer covers the piece
    bool have_best = false;
    bool all_answered = true;
    std::uint64_t best_filled = 0;
    Errno last = Errno::io;
  };

  // One array-end query to one shard (explicit parameters; see CP.51 note in
  // scheduler.hpp): size() fans these out over every shard.
  sim::CoTask<void> query_piece(std::uint32_t shard, engine::ObjQueryReq req,
                                sim::TraceContext ctx, std::shared_ptr<Errno> status,
                                std::shared_ptr<std::uint64_t> max_end);

  std::uint64_t chunk_;
};

}  // namespace daosim::client
