// Engine-side rebuild service: answers the pool-service coordinator's
// rebuild_scan RPCs (find objects whose redundancy group lost a replica, or
// whose reintegrated replica is stale), pulls the missing records from the
// surviving source over rebuild_fetch, applies them to the local VOS, and
// reports rebuild_done to the Raft leader.
//
// Throttling: a bounded number of pulls is in flight per engine
// (RebuildConfig::max_inflight), and every transfer is charged through the
// engine's xstream + media path, so rebuild traffic shares bandwidth with
// foreground I/O instead of starving it. See docs/rebuild.md.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "engine/engine.hpp"
#include "pool/pool_map.hpp"
#include "pool/svc_client.hpp"
#include "sim/sync.hpp"

namespace daosim::rebuild {

struct RebuildConfig {
  /// Throttle knob: concurrent rebuild pulls per destination engine.
  std::uint32_t max_inflight = 4;
};

class RebuildService {
 public:
  /// @param base_map   the pool map at connect time (membership only; health
  ///                   is taken from each scan request's exclusion list)
  /// @param svc_nodes  pool-service replica nodes (for rebuild_done reports)
  RebuildService(engine::Engine& eng, pool::PoolMap base_map,
                 std::vector<net::NodeId> svc_nodes, RebuildConfig cfg = {});
  RebuildService(const RebuildService&) = delete;
  RebuildService& operator=(const RebuildService&) = delete;

  const RebuildConfig& config() const { return cfg_; }
  std::uint64_t records_rebuilt() const { return records_; }
  std::uint64_t bytes_rebuilt() const { return bytes_; }
  std::uint32_t peak_inflight() const { return peak_inflight_; }

  /// Called by the harness when this engine comes back up after a crash.
  /// Records each local container's epoch clock as a resync floor: the clock
  /// is frozen while the engine is down, so everything at or below the floor
  /// is pre-eviction state a later resync may overwrite, and everything above
  /// it is a post-reintegration client write that must not be shadowed.
  void note_restart();

  /// Lowest resync epoch floor this engine may still compare record epochs
  /// against: the minimum over restart floors and the floors pinned by
  /// resync tasks that have not completed; vos::kEpochMax when none.
  /// Background aggregation must not flatten across a resync floor —
  /// coalescing stamps a merged extent with the run's newest epoch, which
  /// could lift a pre-eviction byte above the floor and make a later resync
  /// preserve it as if it were a post-reintegration write.
  vos::Epoch min_resync_floor() const;

 private:
  sim::CoTask<net::Reply> on_scan(net::Request req);
  sim::CoTask<net::Reply> on_fetch(net::Request req);

  /// Walks this engine's VOS trees and reports the entries it is the
  /// canonical source for (CPU-only; the data moves later, throttled).
  engine::RebuildScanResp scan_local(const engine::RebuildScanReq& req);
  /// Exports one object's records for the requested group (source side).
  engine::RebuildFetchResp fetch_records(const engine::RebuildFetchReq& req) const;

  sim::CoTask<void> run_assignment(std::uint32_t version,
                                   std::vector<engine::RebuildEntry> entries);
  /// `ctx` is the assignment's trace root: each pull's fetch RPC and its
  /// local read/write charges hang beneath it as one rebuild trace tree.
  sim::CoTask<void> pull_entry(std::uint32_t version, engine::RebuildEntry entry,
                               sim::TraceContext ctx, std::shared_ptr<bool> failed);
  /// Writes a pulled image just above the task floor (epoch 1 for an
  /// eviction rebuild) and lets VOS visibility merge it (docs/rebuild.md §5).
  void apply_records(std::uint32_t version, const engine::RebuildEntry& entry,
                     const engine::RebuildFetchResp& resp);
  sim::CoTask<void> report_done(std::uint32_t version);

  /// Pins this resync task's destination-side epoch floors on the first
  /// scan/assign receipt naming this engine as the reintegrated node.
  void record_task_floors(std::uint32_t version);
  vos::Epoch task_floor(std::uint32_t version, std::uint32_t target,
                        const vos::Uuid& cont) const;

  engine::Engine& eng_;
  sim::Scheduler& sched_;
  pool::PoolMap base_map_;
  pool::SvcClient svc_;
  RebuildConfig cfg_;
  sim::Semaphore inflight_;
  std::uint32_t cur_inflight_ = 0;
  std::uint32_t peak_inflight_ = 0;
  std::set<std::uint32_t> active_;     // task versions currently pulling
  std::set<std::uint32_t> completed_;  // task versions fully applied locally
  /// Resync marks: (eviction map version, in-engine target, container) ->
  /// the container's epoch when the eviction was first scanned. A later
  /// pool_reint resync only copies records newer than the mark (epoch diff,
  /// not full copy). Epoch clocks are per-(target, container), so marks are
  /// recorded exactly where they are later consumed.
  std::map<std::tuple<std::uint32_t, std::uint32_t, vos::Uuid>, vos::Epoch> marks_;
  /// Per-(target, container) epoch clock at the most recent restart. The
  /// clock freezes while the engine is down, so this separates pre-eviction
  /// records (<= floor) from post-reintegration client writes (> floor).
  std::map<std::pair<std::uint32_t, vos::Uuid>, vos::Epoch> restart_floors_;
  /// Resync floors pinned per task version at the first scan/assign receipt
  /// (restart floor when one exists, current clock otherwise — for live
  /// evictions that never went through a restart). Containers absent at
  /// pin time have no floor, so the image lands at epoch 1, under everything
  /// they hold: a container created after reintegration has no
  /// pre-eviction state.
  std::map<std::uint32_t, std::map<std::pair<std::uint32_t, vos::Uuid>, vos::Epoch>>
      task_floors_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  // Metrics live under the owning engine's registry ("engine/<node>/rebuild/...").
  telemetry::Counter* records_pulled_ = nullptr;
  telemetry::Counter* bytes_pulled_ = nullptr;
  telemetry::Counter* resync_bytes_ = nullptr;
  telemetry::DurationHistogram* task_time_ = nullptr;
};

}  // namespace daosim::rebuild
