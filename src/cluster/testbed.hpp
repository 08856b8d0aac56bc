// Testbed: assembles the simulated NEXTGenIO-like cluster the paper
// benchmarks on — server nodes with two DAOS engines each (one per socket,
// each with its own DCPMM interleave set and fabric rail), a Raft-replicated
// pool service on the first engines, and a set of client nodes.
#pragma once

#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "agg/agg.hpp"
#include "client/client.hpp"
#include "dtx/dtx.hpp"
#include "engine/engine.hpp"
#include "fault/fault.hpp"
#include "media/dcpmm.hpp"
#include "net/fabric.hpp"
#include "net/rpc.hpp"
#include "pool/pool_service.hpp"
#include "rebuild/rebuild.hpp"
#include "sim/scheduler.hpp"
#include "swim/swim.hpp"
#include "telemetry/telemetry.hpp"

namespace daosim::cluster {

struct ClusterConfig {
  std::uint32_t server_nodes = 8;        // NEXTGenIO benchmark deployment
  std::uint32_t engines_per_server = 2;  // one per socket
  std::uint32_t targets_per_engine = 8;
  std::uint32_t client_nodes = 1;
  std::uint32_t svc_replicas = 3;  // pool service Raft group size
  net::FabricConfig fabric{};      // dual-rail for clients; engines bind 1 rail
  media::DcpmmConfig dcpmm{};
  engine::EngineConfig engine{};
  client::ClientConfig client{};  // batching knobs for every testbed client
  raft::RaftConfig raft{};
  vos::PayloadMode payload = vos::PayloadMode::store;
  rebuild::RebuildConfig rebuild{};  // per-engine rebuild throttle
  dtx::DtxConfig dtx{};              // per-engine DTX reaper/resync knobs
  swim::SwimConfig swim{};           // failure detector + IV relay; always on
  agg::AggConfig agg{};              // background epoch aggregation; off by default
  std::uint64_t seed = 42;
};

/// The benchmark pool's UUID (one pool spanning every target, as deployed
/// for the paper's runs).
constexpr vos::Uuid kPoolUuid{0xDA05, 0x1};

class Testbed {
 public:
  explicit Testbed(ClusterConfig cfg);
  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Starts the pool service and runs until a Raft leader is established.
  void start();
  /// Stops services and drains the event queue.
  void stop();

  /// Runs `main` to completion while the services keep ticking.
  void run(sim::CoTask<void> main);
  template <typename F>
    requires requires(F f) {
      { f() } -> std::same_as<sim::CoTask<void>>;
    }
  void run(F f) {
    run(invoke_holding(std::move(f)));
  }

  sim::Scheduler& sched() { return sched_; }
  net::Fabric& fabric() { return fabric_; }
  net::RpcDomain& domain() { return *domain_; }
  const pool::PoolMap& pool_map() const { return map_; }
  const std::vector<net::NodeId>& svc_nodes() const { return svc_nodes_; }
  const ClusterConfig& config() const { return cfg_; }

  std::uint32_t engine_count() const { return std::uint32_t(engines_.size()); }
  engine::Engine& engine(std::uint32_t i) { return *engines_[i]; }

  std::uint32_t client_node_count() const { return std::uint32_t(clients_.size()); }
  /// The DaosClient living on client node `i` (all ranks on that node share it).
  client::DaosClient& client(std::uint32_t i) { return *clients_[i]; }

  // --- fault injection ---

  /// Arms a fault schedule against this cluster (event times are offsets
  /// from now()). Crash/restart/stall events resolve engine indices to the
  /// right engine endpoint — and to its co-located pool-service replica,
  /// whose Raft node crashes/restarts along with it.
  fault::Injector& inject_faults(const fault::Schedule& s, std::uint64_t seed);

  /// Network-level crash of engine `i`: its endpoint goes down (in-flight
  /// replies are lost) and any co-located pool-service replica crashes.
  /// VOS state survives, as on persistent media.
  void crash_engine(std::uint32_t i);
  /// Brings a crashed engine back; a co-located replica recovers from its
  /// stable Raft state. The engine stays EXCLUDED from placement until a
  /// pool_reint command reintegrates it (explicit, as in DAOS).
  void restart_engine(std::uint32_t i);

  std::uint32_t svc_replica_count() const { return std::uint32_t(svc_.size()); }
  pool::PoolServiceReplica& svc_replica(std::uint32_t i) { return *svc_[i]; }
  /// Index of the current pool-service leader replica, if any.
  std::optional<std::uint32_t> svc_leader() const;

  /// Engine `i`'s rebuild service (scan/pull counters, throttle config).
  rebuild::RebuildService& rebuild_service(std::uint32_t i) { return *rebuilds_[i]; }
  /// Engine `i`'s DTX service (2PC handlers, orphan reaper, resync).
  dtx::DtxService& dtx_service(std::uint32_t i) { return *dtxs_[i]; }
  /// Engine `i`'s SWIM failure detector / IV map relay.
  swim::SwimService& swim_service(std::uint32_t i) { return *swims_[i]; }
  /// Engine `i`'s background aggregation service (flattening only when
  /// ClusterConfig::agg.enabled).
  agg::AggregationService& agg_service(std::uint32_t i) { return *aggs_[i]; }
  /// Barrier: runs the simulation until the pool service's Raft-committed
  /// rebuild state shows no incomplete task (every eviction healed, every
  /// reintegration resynced). Returns false if `timeout` virtual time passes
  /// first — e.g. too few surviving engines to ever elect a leader.
  bool wait_rebuild(sim::Time timeout = 60 * sim::kSec);

  /// Aggregate engine-side counters (for reports and shape assertions).
  std::uint64_t total_updates() const;
  std::uint64_t total_fetches() const;
  std::uint64_t total_shard_cache_misses() const;

  // --- telemetry ---

  /// Every metric registry in the cluster: fabric, engines, pool-service
  /// replicas, clients. Order is fixed; exporters re-sort by path anyway.
  std::vector<const telemetry::Registry*> registries() const;
  /// Deterministic snapshot dump of all registries (sorted paths —
  /// byte-identical across same-seed runs).
  void dump_metrics(std::ostream& os,
                    telemetry::DumpFormat fmt = telemetry::DumpFormat::json) const;
  /// Summed client-side completed-RPC latency histogram for opcode label
  /// `op` ("update", "fetch") — the per-phase breakdown source for IOR.
  telemetry::DurationHistogram::State client_rpc_latency(const std::string& op) const;

  /// Attaches `log` as the scheduler's span sink (nullptr detaches). Purely
  /// observational: toggling it never changes timings or trace_hash().
  void attach_trace(telemetry::TraceLog* log);
  telemetry::TraceLog* trace_log() const { return trace_log_; }
  /// Deterministic slow-op report from the attached trace log: the top-k
  /// sampled client ops at or above `threshold`, each with its critical-path
  /// stage breakdown (see TraceLog::write_slow_ops). No-op when no log is
  /// attached.
  void dump_slow_ops(std::ostream& os, sim::Time threshold, std::size_t top_k = 10) const;

 private:
  template <typename F>
  static sim::CoTask<void> invoke_holding(F f) {
    co_await f();
  }
  static sim::CoTask<void> wrap_main(sim::CoTask<void> main, bool& done);

  ClusterConfig cfg_;
  sim::Scheduler sched_;
  telemetry::Registry fabric_metrics_{"fabric"};  // before fabric_: bound in its ctor body
  net::Fabric fabric_;
  std::unique_ptr<net::RpcDomain> domain_;
  std::vector<std::unique_ptr<media::DcpmmInterleaveSet>> sockets_;
  std::vector<std::unique_ptr<engine::Engine>> engines_;
  std::vector<std::unique_ptr<pool::PoolServiceReplica>> svc_;
  std::vector<net::NodeId> svc_nodes_;
  std::vector<std::unique_ptr<rebuild::RebuildService>> rebuilds_;  // one per engine
  std::vector<std::unique_ptr<dtx::DtxService>> dtxs_;              // one per engine
  std::vector<std::unique_ptr<swim::SwimService>> swims_;           // one per engine
  std::vector<std::unique_ptr<agg::AggregationService>> aggs_;      // one per engine
  std::vector<std::unique_ptr<client::DaosClient>> clients_;
  pool::PoolMap map_;
  /// Declared after domain_/engines_/svc_: the injector's destructor
  /// uninstalls its hooks from the domain, so it must die first.
  std::unique_ptr<fault::Injector> injector_;
  telemetry::TraceLog* trace_log_ = nullptr;  // observed only, never owned
  bool started_ = false;
};

}  // namespace daosim::cluster
