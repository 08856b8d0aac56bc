// Engine-side DTX service: serves the two-phase-commit RPCs a client
// coordinator fans over the participating shards (prepare / commit / abort),
// answers resolve queries against the leader shard's decision table, and
// runs the recovery machinery — a periodic orphan reaper plus a resync pass
// after engine restart — that settles prepared-but-undecided entries left by
// client or engine crashes. Also serves snapshot-floored container
// aggregation. Protocol and failure matrix: docs/dtx.md.
#pragma once

#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "engine/engine.hpp"
#include "pool/pool_map.hpp"
#include "pool/svc_client.hpp"

namespace daosim::dtx {

struct DtxConfig {
  /// Age at which a prepared-but-undecided transaction is treated as a
  /// crashed coordinator's orphan: the leader shard aborts it (sticky — a
  /// later commit attempt gets Errno::tx_restart); a participant asks the
  /// leader and settles on the answer. Must sit well above a healthy
  /// prepare-to-decide round trip.
  sim::Time orphan_timeout = 2 * sim::kSec;
  /// Reaper sweep period per engine.
  sim::Time reap_tick = 250 * sim::kMs;
  /// A participant entry whose leader shard never answers resolve RPCs can
  /// never commit (commit requires the leader's durable decision record,
  /// which nobody else can reach either), so it must not stay prepared
  /// forever pinning dtx_min_prepared_epoch and the aggregation floor.
  /// Past orphan_timeout the reaper consults the pool service's exclusion
  /// list (map_query) and aborts once the leader's engine is EXCLUDED; as a
  /// backstop for maps that never converge, this many consecutive failed
  /// resolves force the same authoritative abort.
  std::uint32_t abandon_resolve_failures = 16;
};

class DtxService {
 public:
  /// @param base_map   the pool map at assembly time (membership only; maps
  ///                   the leader shard's map-target index to its engine)
  /// @param svc_nodes  pool-service replica nodes (for map_query when a
  ///                   leader shard stays unreachable; empty disables the
  ///                   exclusion check, leaving only the failure backstop)
  DtxService(engine::Engine& eng, pool::PoolMap base_map, std::vector<net::NodeId> svc_nodes,
             DtxConfig cfg = {});
  DtxService(const DtxService&) = delete;
  DtxService& operator=(const DtxService&) = delete;

  /// Spawns the orphan-reaper loop (idempotent). stop() lets it retire.
  void start();
  void stop();

  /// Called by the harness when this engine comes back up after a crash:
  /// schedules a resync sweep that resolves every locally prepared entry
  /// against its leader shard, so undecided state never outlives the
  /// restart by more than one sweep.
  void note_restart();

  const DtxConfig& config() const { return cfg_; }
  std::uint64_t orphans_aborted() const;
  std::uint64_t resyncs_resolved() const;

 private:
  /// One prepared entry picked up by a sweep, copied out of VOS so the RPC
  /// suspension never spans a container reference.
  struct SweepItem {
    std::uint32_t target = 0;  // local target index holding the entry
    vos::Uuid cont;
    vos::DtxId id;
    std::uint32_t leader = 0;  // pool-map target index of the leader shard
    sim::Time age = 0;
  };

  sim::CoTask<net::Reply> on_prepare(net::Request req);
  sim::CoTask<net::Reply> on_commit(net::Request req);
  sim::CoTask<net::Reply> on_abort(net::Request req);
  sim::CoTask<net::Reply> on_resolve(net::Request req);
  sim::CoTask<net::Reply> on_aggregate(net::Request req);

  sim::CoTask<void> reaper_loop();
  /// Scans every local shard for prepared entries and settles what it can:
  /// leader-local orphans past the timeout are aborted; participant entries
  /// (past the timeout, or all of them when `force`) are resolved against
  /// the leader shard. `force` is the post-restart resync mode.
  sim::CoTask<void> sweep(bool force);
  std::vector<SweepItem> collect_prepared() const;
  sim::CoTask<void> settle(SweepItem item);
  /// Asks the pool service (map_query, with the usual leader-hint redirect)
  /// whether `engine` is in the Raft-committed exclusion list. False when
  /// the service is unreachable — absence of evidence is not authoritative.
  sim::CoTask<bool> engine_excluded(net::NodeId engine);

  /// Identifies one local prepared entry across sweeps (for the
  /// consecutive-resolve-failure backstop).
  using EntryKey = std::tuple<std::uint32_t, vos::Uuid, vos::DtxId>;

  engine::Engine& eng_;
  sim::Scheduler& sched_;
  pool::PoolMap base_map_;
  pool::SvcClient svc_;
  /// Consecutive failed leader resolves per prepared entry; reset on any
  /// successful resolve and pruned when the entry settles by other means.
  std::map<EntryKey, std::uint32_t> resolve_failures_;
  DtxConfig cfg_;
  bool running_ = false;
  bool sweeping_ = false;
  telemetry::Counter* prepares_ = nullptr;
  telemetry::Counter* conflicts_ = nullptr;
  telemetry::Counter* commits_ = nullptr;
  telemetry::Counter* aborts_ = nullptr;
  telemetry::Counter* resolves_ = nullptr;
  telemetry::Counter* orphans_aborted_ = nullptr;
  telemetry::Counter* resyncs_resolved_ = nullptr;
};

}  // namespace daosim::dtx
