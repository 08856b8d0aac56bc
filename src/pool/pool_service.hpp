// The pool service: DAOS's Raft-replicated metadata service, co-located with
// a subset of engines. It owns container metadata (create/open/destroy,
// snapshots), object-ID range allocation, pool-map health and the rebuild
// task table, all serialized through the Raft log so every replica applies
// the same transactional updates.
//
// Requests are typed: one pool::SvcCmd alternative per command, each naming
// its typed reply (pool/svc_cmd.hpp, which also lists the text form). A
// kOpPoolSvc request carries the SvcCmd; the leader appends its encoded text
// to the Raft log, PoolMetaSm::apply decodes it once and dispatches on the
// alternative, and the encoded reply travels back in PoolSvcResp. Followers
// redirect with a leader hint; pool::SvcClient (pool/svc_client.hpp) is the
// one client that follows it.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/rpc.hpp"
#include "pool/pool_map.hpp"
#include "pool/svc_cmd.hpp"
#include "raft/raft.hpp"
#include "telemetry/telemetry.hpp"

namespace daosim::pool {

/// Raft state machine holding the pool's container metadata.
class PoolMetaSm final : public raft::StateMachine {
 public:
  /// Decodes one log entry and runs it; the reply comes back encoded
  /// ("EINVAL" for an entry that does not decode).
  std::string apply(const std::string& command) override;
  std::string snapshot() const override;
  void restore(const std::string& snap) override;

  /// Typed commands, one overload each (apply() dispatches here).
  Result<Ack> execute(const ContCreate& c);
  Result<ContProps> execute(const ContOpen& c);
  Result<Ack> execute(const ContDestroy& c);
  Result<std::uint64_t> execute(const AllocOids& c);
  Result<std::vector<vos::Uuid>> execute(const ListConts& c);
  Result<std::uint32_t> execute(const PoolEvict& c);
  Result<std::uint32_t> execute(const PoolReint& c);
  Result<RebuildAck> execute(const RebuildDone& c);
  Result<Ack> execute(const SnapCreate& c);
  Result<Ack> execute(const SnapDestroy& c);
  Result<std::vector<vos::Epoch>> execute(const SnapList& c);

  struct ContMeta {
    ContProps props;
    std::uint64_t oid_counter = 1;
    /// Container snapshot epochs (Raft-replicated like the rest of the
    /// metadata). Readers pin an epoch in this set; aggregation must stay
    /// below the lowest entry so pinned history is never merged away.
    std::set<vos::Epoch> snapshots;
  };
  const std::map<vos::Uuid, ContMeta>& containers() const { return containers_; }

  /// Pool-map health state, replicated through the Raft log. The version
  /// starts at 1 (the map handed out at connect) and bumps exactly once per
  /// effective eviction/reintegration; repeated evictions of the same engine
  /// are no-ops returning the current version.
  std::uint32_t map_version() const { return map_version_; }
  const std::set<net::NodeId>& excluded_engines() const { return excluded_; }

  /// One committed membership change, for the IV delta log. Rebuild requeues
  /// bump map_version() without a membership change, so the log is sparse:
  /// a fetcher applies the deltas then jumps its version to the responder's
  /// latest (MapFetchResp::latest_version).
  struct MapDelta {
    std::uint32_t version = 0;
    net::NodeId engine = 0;
    bool excluded = false;  // true: eviction; false: reintegration
  };
  /// Append-only since version 1 — deltas_since(v) is complete for any v.
  const std::vector<MapDelta>& map_deltas() const { return deltas_; }
  std::vector<MapDelta> deltas_since(std::uint32_t version) const;

  /// One rebuild task, Raft-replicated with the rest of the pool metadata:
  /// created when an eviction (or reintegration resync) becomes effective,
  /// complete when every surviving participant reported rebuild_done for its
  /// map version — so a leader crash mid-rebuild resumes from the committed
  /// `done` set instead of redoing (or losing) the task.
  struct RebuildTask {
    std::uint32_t version = 0;        // map version the task was created at
    bool resync = false;              // reintegration catch-up, not eviction
    net::NodeId node = 0;             // the evicted / reintegrated engine
    std::uint32_t since_version = 0;  // resync: map version of the eviction
    std::set<net::NodeId> excluded;   // exclusion set at task creation
    std::set<net::NodeId> participants;
    std::set<net::NodeId> done;
    bool superseded = false;  // a newer map change restarted the scan
    bool complete() const {
      if (superseded) return true;
      for (const net::NodeId p : participants) {
        if (!done.contains(p)) return false;
      }
      return true;
    }
  };

  /// Engine roster (static cluster config, derived from the pool map by every
  /// replica identically — not part of the replicated state). Rebuild tasks
  /// are only created once the roster is known.
  void set_engines(std::set<net::NodeId> engines) { engines_ = std::move(engines); }

  const std::map<std::uint32_t, RebuildTask>& rebuild_tasks() const { return rebuilds_; }
  const RebuildTask* rebuild_task(std::uint32_t version) const;
  /// Highest-version task still in flight.
  std::optional<std::uint32_t> newest_incomplete_rebuild() const;
  /// All in-flight task versions, ascending (the leader drives each in turn:
  /// after a re-queue several tasks can be pending at once).
  std::vector<std::uint32_t> incomplete_rebuilds() const;
  std::size_t rebuilds_incomplete() const;

 private:
  void start_rebuild(bool resync, net::NodeId node, std::uint32_t since_version);
  /// Creates one rebuild task at the current map version against the current
  /// exclusion set and surviving-engine roster.
  void queue_task(bool resync, net::NodeId node, std::uint32_t since_version);

  std::map<vos::Uuid, ContMeta> containers_;
  std::uint32_t map_version_ = 1;
  std::set<net::NodeId> excluded_;
  std::set<net::NodeId> engines_;
  std::map<net::NodeId, std::uint32_t> evicted_at_;  // engine -> eviction map version
  std::map<std::uint32_t, RebuildTask> rebuilds_;    // keyed by map version
  std::vector<MapDelta> deltas_;                     // IV delta log, version-ascending
};

/// One pool-service replica, sharing an engine's RPC endpoint. The replica
/// answers kOpPoolSvc requests: the Raft leader commits the command, others
/// redirect with a leader hint. Committed rebuild_done reports also bump the
/// rebuild/done_reports counter and note the trace digest.
class PoolServiceReplica {
 public:
  PoolServiceReplica(net::RpcEndpoint& ep, std::vector<net::NodeId> replicas, PoolMap map,
                     raft::RaftConfig cfg, std::uint64_t seed);

  void start();
  void stop();
  bool is_leader() const { return raft_->is_leader(); }
  raft::RaftNode& raft() { return *raft_; }
  const PoolMap& pool_map() const { return map_; }
  const PoolMetaSm& meta() const { return sm_; }

  /// This replica's metric tree ("pool/<node>"): leader-side command and
  /// rebuild-report counters plus task/map-version probes.
  telemetry::Registry& telemetry() { return metrics_; }
  const telemetry::Registry& telemetry() const { return metrics_; }

 private:
  sim::CoTask<net::Reply> on_command(net::Request req);
  /// Leader-side rebuild coordinator: a periodic tick that drives the newest
  /// incomplete task (scan -> assign). Runs on every replica; only the
  /// current leader acts, so a new leader resumes a crashed leader's task
  /// from the Raft-committed state.
  sim::CoTask<void> coordinator_loop();
  sim::CoTask<void> drive_task(std::uint32_t version);

  net::RpcEndpoint& ep_;
  PoolMap map_;
  PoolMetaSm sm_;
  telemetry::Registry metrics_;
  telemetry::Counter* commands_applied_ = nullptr;
  telemetry::Counter* rebuild_reports_ = nullptr;
  std::unique_ptr<raft::RaftNode> raft_;
  bool coord_running_ = false;
  bool driving_ = false;
};

}  // namespace daosim::pool
