// The DAOS engine: one I/O server instance bound to one CPU socket (two per
// server node on NEXTGenIO). An engine owns a set of targets, each backed by
// a slice of the socket's DCPMM interleave set and served by one xstream.
//
// Request path for an update/fetch:
//   NIC (fabric, charged by RpcEndpoint) ->
//   target xstream (FIFO semaphore: per-op CPU cost, shard-cache warmup) ->
//   media (per-target slice AND shared socket pipe, concurrently) ->
//   VOS apply -> reply.
#pragma once

#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "engine/proto.hpp"
#include "media/dcpmm.hpp"
#include "net/rpc.hpp"
#include "sim/sync.hpp"
#include "telemetry/telemetry.hpp"
#include "vos/target.hpp"

namespace daosim::engine {

struct EngineConfig {
  std::uint32_t targets = 8;
  sim::Time update_cpu = 9 * sim::kUs;  // per-RPC server CPU (checksums, tree ops)
  sim::Time fetch_cpu = 6 * sim::kUs;
  /// Marginal CPU per additional extent in a batched (multi-extent) RPC:
  /// the per-descriptor checksum/tree work that batching cannot amortize.
  /// A k-extent update costs update_cpu + (k-1)*update_cpu_extent, so a
  /// 1-extent batch costs exactly what the unbatched path did.
  sim::Time update_cpu_extent = 2 * sim::kUs;
  sim::Time fetch_cpu_extent = 1 * sim::kUs;
  sim::Time enum_cpu = 12 * sim::kUs;
  sim::Time punch_cpu = 8 * sim::kUs;
  /// Per-target sustained throughput (xstream service + its share of the
  /// DIMM channels). Deliberately far below a proportional slice of the raw
  /// interleave set: the per-target xstream software path dominates, as in
  /// production DAOS.
  double target_read_bw = 2.6e9;
  double target_write_bw = 1.8e9;
  /// Stream-locality model: each target keeps hot state (VOS tree path,
  /// media write-combining / prefetch context) for this many distinct
  /// objects. I/O to an object outside the set pays a stream-switch cost.
  /// This is what separates the object classes in the paper's figures:
  /// file-per-process SX scatters every file over every target (constant
  /// switching) while S1/S2 files and any single shared file stream warmly.
  std::uint32_t stream_contexts = 3;
  sim::Time stream_switch_read = 1300 * sim::kUs;
  sim::Time stream_switch_write = 600 * sim::kUs;
  vos::PayloadMode payload = vos::PayloadMode::store;
};

class Engine {
 public:
  /// @param media  the socket's DCPMM interleave set (shared by this engine's
  ///               targets; the sibling engine on the other socket has its own)
  Engine(net::RpcDomain& domain, net::NodeId node, media::DcpmmInterleaveSet& media,
         EngineConfig cfg);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  net::NodeId node() const { return ep_.node(); }
  net::RpcEndpoint& endpoint() { return ep_; }
  std::uint32_t target_count() const { return std::uint32_t(targets_.size()); }
  const EngineConfig& config() const { return cfg_; }

  vos::VosTarget& vos_target(std::uint32_t idx) { return targets_[idx]->vos; }

  /// Fault injection: wedges target `idx`'s xstream for `duration` of virtual
  /// time (a GC stall / PMDK flush storm). Requests queue behind the stall in
  /// FIFO order and drain when it ends — nothing is lost, only delayed.
  void stall_target(std::uint32_t idx, sim::Time duration);

  /// Rebuild traffic: charges the target's xstream and media bandwidth like a
  /// foreground fetch/update, so rebuild transfers share the pipes with
  /// application I/O instead of teleporting data. `ctx` links the work into
  /// the rebuild task's trace tree.
  sim::CoTask<void> rebuild_read(std::uint32_t idx, std::uint64_t bytes,
                                 sim::TraceContext ctx = {});
  sim::CoTask<void> rebuild_write(std::uint32_t idx, std::uint64_t bytes,
                                  sim::TraceContext ctx = {});

  std::uint64_t updates_served() const { return updates_; }
  std::uint64_t fetches_served() const { return fetches_; }
  std::uint64_t shard_cache_misses() const { return cache_misses_; }  // stream-context misses

  /// The engine's cached pool map: its version, stamped on every reply this
  /// endpoint serves (the IV piggyback — see docs/membership.md), and the
  /// engines it shows EXCLUDED. The version starts at 1, the map handed out
  /// at connect; the SwimService is the only writer of both, applying each
  /// delta as it disseminates.
  std::uint32_t cached_map_version() const { return cached_map_version_; }
  void set_cached_map_version(std::uint32_t v) { cached_map_version_ = v; }
  bool map_excludes(net::NodeId engine) const { return excluded_engines_.contains(engine); }
  void apply_map_delta(const MapDeltaEntry& d) {
    if (d.excluded) {
      excluded_engines_.insert(d.engine);
    } else {
      excluded_engines_.erase(d.engine);
    }
  }

  /// This engine's metric tree ("engine/<node>"): per-opcode service-time
  /// histograms, per-target queue-depth stat gauges, VOS index probes, plus
  /// the endpoint's RPC metrics. The rebuild service hangs its counters
  /// here too.
  telemetry::Registry& telemetry() { return metrics_; }
  const telemetry::Registry& telemetry() const { return metrics_; }

 private:
  struct Target {
    Target(sim::Scheduler& s, vos::PayloadMode mode, double read_bw, double write_bw)
        : vos(mode), xstream(s, 1), read_slice(s, read_bw), write_slice(s, write_bw) {}
    vos::VosTarget vos;
    sim::Semaphore xstream;  // one service stream per target
    sim::SharedBandwidth read_slice;
    sim::SharedBandwidth write_slice;
    std::deque<std::pair<vos::Uuid, vos::ObjId>> stream_lru;  // hot object streams
    std::uint32_t idx = 0;
    telemetry::StatGauge* queue_depth = nullptr;
  };

  sim::CoTask<net::Reply> on_update(net::Request req);
  sim::CoTask<net::Reply> on_fetch(net::Request req);
  sim::CoTask<net::Reply> on_enum_dkeys(net::Request req);
  sim::CoTask<net::Reply> on_enum_akeys(net::Request req);
  sim::CoTask<net::Reply> on_punch(net::Request req);
  sim::CoTask<net::Reply> on_query(net::Request req);

  Target& target_for(std::uint32_t idx);
  /// Snapshot-stable reads: an epoch-bounded read parks until every prepared
  /// transaction that could still commit at or below `epoch` has settled.
  /// Plain reads (kEpochMax) never wait.
  sim::CoTask<void> dtx_read_barrier(Target& t, vos::Uuid cont, vos::Epoch epoch);
  /// Checks/updates the target's stream-context set; returns the switch cost.
  sim::Time stream_context_touch(Target& t, vos::Uuid cont, vos::ObjId oid, bool write);
  sim::CoTask<void> media_write(Target& t, std::uint64_t bytes, sim::TraceContext ctx = {});
  sim::CoTask<void> media_read(Target& t, std::uint64_t bytes, sim::TraceContext ctx = {});
  /// Queue on the target's xstream, then charge `cpu` of service time.
  /// Emits a "queue" span for the wait and a "vos" span for the CPU burn
  /// (tree descent, checksums), both children of `ctx`.
  sim::CoTask<void> xstream_exec(Target& t, sim::Time cpu, sim::TraceContext ctx);

  /// Samples the target's queue depth and returns the service-time histogram
  /// for `op` — called at handler entry; the handler records at exit.
  telemetry::DurationHistogram* svc_enter(Target& t, const char* op);

  net::RpcEndpoint ep_;
  sim::Scheduler& sched_;
  media::DcpmmInterleaveSet& media_;
  EngineConfig cfg_;
  telemetry::Registry metrics_;
  /// Extents per object RPC (1 for unbatched/KV), as histograms so the
  /// batching ablations can read the whole distribution.
  telemetry::DurationHistogram* update_extents_ = nullptr;
  telemetry::DurationHistogram* fetch_extents_ = nullptr;
  std::vector<std::unique_ptr<Target>> targets_;
  std::uint64_t updates_ = 0;
  std::uint64_t fetches_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint32_t cached_map_version_ = 1;
  std::set<net::NodeId> excluded_engines_;
};

}  // namespace daosim::engine
