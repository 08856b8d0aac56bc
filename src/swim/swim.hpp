// Engine-side SWIM failure detector + IV map relay: each engine runs a
// randomized round-robin probe loop over the membership (direct ping, then
// indirect ping-req through k witnesses), tracks alive/suspect/dead states
// with incarnation-number refutation, piggybacks membership updates on every
// probe and ack, and feeds confirmed-dead verdicts into the pool service as
// Raft-replicated auto-evictions — so failure detection no longer depends on
// client traffic, and a merely-stalled engine refutes suspicion instead of
// being evicted.
//
// The same service is the engine half of IV-style incremental map
// dissemination: every engine keeps a local pool-map delta log and a cached
// map version (stamped on each reply it serves — net::Reply::map_version),
// hears newer versions through SWIM gossip, and pulls the missing deltas
// over a tree rooted at the pool service (engines co-located with a replica
// read the Raft-committed state directly, zero RPCs; everyone else fetches
// kOpMapFetch from its tree parent). Protocol, parameters, and the failure
// matrix: docs/membership.md.
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "engine/engine.hpp"
#include "pool/svc_client.hpp"
#include "sim/random.hpp"

namespace daosim::swim {

struct SwimConfig {
  /// Must stay true: SWIM is the only way an engine leaves the pool map, and
  /// cluster::Testbed rejects false. The field remains so that existing
  /// configurations that set it to true keep compiling.
  bool enabled = true;
  /// One direct probe (of the next rotation member) per period.
  sim::Time probe_period = 500 * sim::kMs;
  /// Suspect -> dead. Must comfortably exceed one full probe round plus the
  /// gossip hops a refutation needs to travel (see docs/membership.md).
  sim::Time suspect_timeout = 2 * sim::kSec;
  /// Indirect probes (ping-req witnesses) tried after a failed direct probe.
  std::uint32_t witnesses = 2;
  /// IV dissemination tree fan-out: member i fetches deltas from member
  /// (i-1)/iv_fanout, falling back to the root on parent failure.
  std::uint32_t iv_fanout = 4;
};

/// One SwimService per engine (DtxService-style): registers the 0x60-block
/// handlers at construction, probes only between start()/stop().
class SwimService {
 public:
  /// @param index      this engine's index in `members` (testbed engine index)
  /// @param members    every engine's fabric node, in engine-index order —
  ///                   identical on all engines, so tree shape and witness
  ///                   choice agree everywhere
  /// @param svc_nodes  pool-service replica nodes (for pool_evict submission)
  SwimService(engine::Engine& eng, std::uint32_t index, std::vector<net::NodeId> members,
              std::vector<net::NodeId> svc_nodes, SwimConfig cfg, std::uint64_t seed);
  SwimService(const SwimService&) = delete;
  SwimService& operator=(const SwimService&) = delete;

  /// Spawns the probe loop (idempotent). stop() lets it retire.
  void start();
  void stop();

  /// Called by the harness when this engine comes back up after a crash:
  /// bumps our incarnation past any suspicion accrued while down, so the
  /// first post-restart gossip exchange refutes instead of confirming.
  void note_restart();

  /// Root wiring: engines co-located with a pool-service replica read the
  /// Raft-committed map state directly (version + deltas since a version)
  /// instead of fetching over the tree. The callback must be passive.
  using LocalMapSource = std::function<engine::MapFetchResp(std::uint32_t since)>;
  void set_local_map_source(LocalMapSource src) { local_map_source_ = std::move(src); }

  const SwimConfig& config() const { return cfg_; }
  std::uint64_t probes_sent() const;
  std::uint64_t suspects_raised() const;
  std::uint64_t refutations() const;
  std::uint64_t deaths_declared() const;
  std::uint64_t delta_fetches() const;
  /// This engine's view of `member` (by engine index), for test assertions.
  bool sees_dead(std::uint32_t member) const { return state_[member].dead; }
  bool sees_suspect(std::uint32_t member) const { return state_[member].suspect; }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct Member {
    std::uint64_t incarnation = 0;
    bool suspect = false;
    sim::Time suspect_since = 0;
    bool dead = false;  // local verdict (stops probing; gossiped as suspicion)
    bool evict_tried = false;
    /// Pool-service replicas that answered / only ever timed out in the evict
    /// campaign against this member (each verdict runs its own campaign).
    std::set<net::NodeId> svc_answered;
    std::set<net::NodeId> svc_silent;
  };

  sim::CoTask<net::Reply> on_ping(net::Request req);
  sim::CoTask<net::Reply> on_ping_req(net::Request req);
  sim::CoTask<net::Reply> on_map_fetch(net::Request req);

  sim::CoTask<void> probe_loop();
  sim::CoTask<void> probe_once();
  /// Declares timed-out suspects dead and runs one evict campaign per fresh
  /// verdict, all at once, so each campaign ends within its own verdict's
  /// window however many members died together.
  sim::CoTask<void> sweep_suspects();
  /// Submits `pool_evict` for member `m` with bounded attempts. The sweep
  /// marks evict_tried, so one death declaration yields at most one
  /// submission campaign (a partitioned minority must not replay stale
  /// verdicts after the partition heals — refutation revives the member
  /// instead). The campaign outlasts a pool-service election: it keeps going
  /// while svc_quorum_may_answer(m).
  sim::CoTask<void> submit_evict(std::uint32_t m);
  /// svc_'s transport: one kOpPoolSvc call; notes in the campaign of the
  /// member the command evicts whether the replica answered or stayed silent.
  sim::CoTask<net::Reply> send_svc(net::NodeId dst, net::Body body);
  /// True while the campaign against `m` heard some replica answer and no
  /// majority of the replicas stay silent (never answered, timed out).
  bool svc_quorum_may_answer(std::uint32_t m) const;

  /// Next rotation member to probe (skips self, dead, excluded); reshuffles
  /// the permutation when exhausted. kNone when nobody is probeable.
  std::uint32_t next_member();
  std::vector<std::uint32_t> pick_witnesses(std::uint32_t subject) const;
  std::optional<std::uint32_t> member_index(net::NodeId node) const;
  bool probeable(std::uint32_t m) const;
  /// Map-confirmed exclusion (authoritative): the engine's cached pool map,
  /// which apply_map_fetch keeps current, shows member `m` EXCLUDED.
  bool map_excluded(std::uint32_t m) const { return eng_.map_excludes(members_[m]); }

  /// The piggyback: our own alive entry plus every live suspicion (including
  /// locally-dead-but-unconfirmed members, so a wrong verdict keeps being
  /// challenged until the victim refutes it).
  std::vector<engine::SwimMemberUpdate> gossip() const;
  void process_updates(const std::vector<engine::SwimMemberUpdate>& updates);
  void note_remote_map_version(std::uint32_t v);
  void apply_map_fetch(const engine::MapFetchResp& resp);
  /// Roots: pick up newly committed deltas from the co-located replica.
  void poll_local_root();
  /// Non-roots: pull missing deltas from the tree parent (root fallback).
  /// Single-flight: concurrent triggers coalesce into the running fetch.
  sim::CoTask<void> fetch_deltas();
  net::NodeId parent_node() const;

  engine::Engine& eng_;
  sim::Scheduler& sched_;
  std::uint32_t index_;
  std::vector<net::NodeId> members_;
  pool::SvcClient svc_;
  SwimConfig cfg_;
  sim::Xoshiro256 rng_;
  std::vector<Member> state_;  // parallel to members_
  std::uint64_t incarnation_ = 0;
  std::vector<std::uint32_t> rotation_;
  std::size_t rotation_pos_ = 0;
  /// Local IV delta log: complete from version 1 (we start there and only
  /// ever append fetched suffixes), so any engine can serve kOpMapFetch.
  std::vector<engine::MapDeltaEntry> deltas_;
  std::uint32_t target_version_ = 1;  // highest map version heard of
  bool fetching_ = false;             // single-flight guard for fetch_deltas
  LocalMapSource local_map_source_;
  bool running_ = false;
  bool sweeping_ = false;
  telemetry::Counter* probes_ = nullptr;
  telemetry::Counter* ping_reqs_ = nullptr;
  telemetry::Counter* suspects_ = nullptr;
  telemetry::Counter* refutations_ = nullptr;
  telemetry::Counter* deaths_declared_ = nullptr;
  telemetry::Counter* delta_fetches_ = nullptr;
};

}  // namespace daosim::swim
