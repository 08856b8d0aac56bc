#include "pool/pool_service.hpp"

#include <sstream>

#include "engine/proto.hpp"

namespace daosim::pool {

using net::Body;
using net::Reply;
using net::Request;

namespace {
/// Coordinator tick: how often the leader checks for (and re-drives)
/// incomplete rebuild tasks. Re-driving is idempotent — scans are read-only
/// and rebuild_done is duplicate-guarded — so a lost RPC just costs a tick.
constexpr sim::Time kCoordTick = 50 * sim::kMs;
/// Consecutive failed scan/assign RPCs before the coordinator evicts the
/// unresponsive participant (models SWIM-style failure detection; without it
/// a participant that crashes mid-rebuild wedges the task forever).
constexpr int kScanFailEvict = 3;

// Trace-digest tags for rebuild coordination milestones.
constexpr std::uint64_t kTraceRebuildDrive = 0xFA17E005'0000'0000ULL;
constexpr std::uint64_t kTraceRebuildAssign = 0xFA17E006'0000'0000ULL;
constexpr std::uint64_t kTraceRebuildDone = 0xFA17E007'0000'0000ULL;
}  // namespace

std::string PoolMetaSm::apply(const std::string& command) {
  const Result<SvcCmd> cmd = decode(command);
  if (!cmd.ok()) return errno_name(cmd.error());
  return std::visit([this](const auto& c) { return encode_reply(execute(c)); }, *cmd);
}

Result<Ack> PoolMetaSm::execute(const ContCreate& c) {
  ContMeta meta;
  meta.props = c.props;
  if (!containers_.emplace(c.cont, meta).second) return Errno::exists;
  return Ack{};
}

Result<ContProps> PoolMetaSm::execute(const ContOpen& c) {
  const auto it = containers_.find(c.cont);
  if (it == containers_.end()) return Errno::no_entry;
  return it->second.props;
}

Result<Ack> PoolMetaSm::execute(const ContDestroy& c) {
  if (containers_.erase(c.cont) == 0) return Errno::no_entry;
  return Ack{};
}

Result<std::uint64_t> PoolMetaSm::execute(const AllocOids& c) {
  const auto it = containers_.find(c.cont);
  if (it == containers_.end()) return Errno::no_entry;
  const std::uint64_t base = it->second.oid_counter;
  it->second.oid_counter += c.count;
  return base;
}

Result<std::vector<vos::Uuid>> PoolMetaSm::execute(const ListConts&) {
  std::vector<vos::Uuid> out;
  for (const auto& [u, meta] : containers_) out.push_back(u);
  return out;
}

Result<std::uint32_t> PoolMetaSm::execute(const PoolEvict& c) {
  if (excluded_.insert(c.engine).second) {
    ++map_version_;
    evicted_at_[c.engine] = map_version_;
    // Delta log BEFORE start_rebuild: requeues may bump map_version_ again
    // without a membership change, and the log records only the latter.
    deltas_.push_back(MapDelta{map_version_, c.engine, /*excluded=*/true});
    start_rebuild(/*resync=*/false, c.engine, 0);
  }
  return map_version_;
}

Result<std::uint32_t> PoolMetaSm::execute(const PoolReint& c) {
  if (excluded_.erase(c.engine) > 0) {
    ++map_version_;
    deltas_.push_back(MapDelta{map_version_, c.engine, /*excluded=*/false});
    const auto it = evicted_at_.find(c.engine);
    start_rebuild(/*resync=*/true, c.engine, it != evicted_at_.end() ? it->second : 0);
  }
  return map_version_;
}

Result<MapState> PoolMetaSm::execute(const MapQuery&) { return MapState{map_version_, excluded_}; }

Result<RebuildAck> PoolMetaSm::execute(const RebuildDone& c) {
  const auto it = rebuilds_.find(c.version);
  if (it == rebuilds_.end()) return RebuildAck::stale;
  // Duplicate-apply guard: a retried report (lost reply, re-driven task)
  // must not double-count the engine.
  if (!it->second.done.insert(c.engine).second) return RebuildAck::dup;
  return RebuildAck::done;
}

Result<Ack> PoolMetaSm::execute(const SnapCreate& c) {
  const auto it = containers_.find(c.cont);
  if (it == containers_.end()) return Errno::no_entry;
  it->second.snapshots.insert(c.epoch);  // idempotent: re-creating is a no-op
  return Ack{};
}

Result<Ack> PoolMetaSm::execute(const SnapDestroy& c) {
  const auto it = containers_.find(c.cont);
  if (it == containers_.end() || it->second.snapshots.erase(c.epoch) == 0) return Errno::no_entry;
  return Ack{};
}

Result<std::vector<vos::Epoch>> PoolMetaSm::execute(const SnapList& c) {
  const auto it = containers_.find(c.cont);
  if (it == containers_.end()) return Errno::no_entry;
  return std::vector<vos::Epoch>(it->second.snapshots.begin(), it->second.snapshots.end());
}

void PoolMetaSm::start_rebuild(bool resync, net::NodeId node, std::uint32_t since_version) {
  if (engines_.empty()) return;  // no roster: rebuild coordination disabled
  // A newer map change invalidates in-flight scans (they ran against a stale
  // exclusion set), but superseding must not drop their work: an eviction
  // scan only re-replicates onto substitutes for the current exclusion set,
  // and a resync scan only pushes one engine's window diff. Anything the new
  // event's own scan does not cover is re-queued as a fresh task against the
  // new map.
  bool requeue_repair = false;
  std::map<net::NodeId, std::uint32_t> requeue_resyncs;  // node -> since_version
  for (auto& [v, t] : rebuilds_) {
    if (t.complete()) continue;
    t.superseded = true;
    if (t.resync) {
      // A pending resync survives unless its engine was evicted again (then
      // the eviction rebuild restores its replicas from the survivors) or
      // this very event re-creates it.
      if (t.node != node && !excluded_.contains(t.node)) {
        requeue_resyncs.emplace(t.node, t.since_version);
      }
    } else if (resync) {
      // A reintegration scan does not re-replicate data for engines that are
      // still excluded: carry the pending eviction repair forward.
      requeue_repair = true;
    }
  }
  queue_task(resync, node, since_version);
  for (const auto& [n, since] : requeue_resyncs) {
    ++map_version_;
    queue_task(/*resync=*/true, n, since);
  }
  if (requeue_repair && !excluded_.empty()) {
    ++map_version_;
    queue_task(/*resync=*/false, /*node=*/0, /*since_version=*/0);
  }
}

void PoolMetaSm::queue_task(bool resync, net::NodeId node, std::uint32_t since_version) {
  RebuildTask task;
  task.version = map_version_;
  task.resync = resync;
  task.node = node;
  task.since_version = since_version;
  task.excluded = excluded_;
  for (const net::NodeId e : engines_) {
    if (!excluded_.contains(e)) task.participants.insert(e);
  }
  if (task.participants.empty()) return;
  rebuilds_.emplace(map_version_, std::move(task));
}

std::vector<PoolMetaSm::MapDelta> PoolMetaSm::deltas_since(std::uint32_t version) const {
  std::vector<MapDelta> out;
  for (const MapDelta& d : deltas_) {
    if (d.version > version) out.push_back(d);
  }
  return out;
}

const PoolMetaSm::RebuildTask* PoolMetaSm::rebuild_task(std::uint32_t version) const {
  const auto it = rebuilds_.find(version);
  return it == rebuilds_.end() ? nullptr : &it->second;
}

std::optional<std::uint32_t> PoolMetaSm::newest_incomplete_rebuild() const {
  std::optional<std::uint32_t> out;
  for (const auto& [v, t] : rebuilds_) {
    if (!t.complete()) out = v;
  }
  return out;
}

std::vector<std::uint32_t> PoolMetaSm::incomplete_rebuilds() const {
  std::vector<std::uint32_t> out;
  for (const auto& [v, t] : rebuilds_) {
    if (!t.complete()) out.push_back(v);
  }
  return out;
}

std::size_t PoolMetaSm::rebuilds_incomplete() const {
  std::size_t n = 0;
  for (const auto& [v, t] : rebuilds_) {
    if (!t.complete()) ++n;
  }
  return n;
}

std::string PoolMetaSm::snapshot() const {
  std::ostringstream os;
  os << containers_.size() << '\n';
  for (const auto& [u, m] : containers_) {
    os << u.hi << ' ' << u.lo << ' ' << m.props.chunk_size << ' ' << unsigned(m.props.oclass)
       << ' ' << m.oid_counter << '\n';
  }
  os << map_version_ << ' ' << excluded_.size();
  for (const net::NodeId e : excluded_) os << ' ' << e;
  os << '\n';
  os << evicted_at_.size();
  for (const auto& [e, v] : evicted_at_) os << ' ' << e << ' ' << v;
  os << '\n';
  os << rebuilds_.size() << '\n';
  for (const auto& [v, t] : rebuilds_) {
    os << t.version << ' ' << (t.resync ? 1 : 0) << ' ' << t.node << ' ' << t.since_version
       << ' ' << (t.superseded ? 1 : 0);
    os << ' ' << t.excluded.size();
    for (const net::NodeId e : t.excluded) os << ' ' << e;
    os << ' ' << t.participants.size();
    for (const net::NodeId e : t.participants) os << ' ' << e;
    os << ' ' << t.done.size();
    for (const net::NodeId e : t.done) os << ' ' << e;
    os << '\n';
  }
  // Container snapshot epochs.
  std::size_t with_snaps = 0;
  for (const auto& [u, m] : containers_) with_snaps += m.snapshots.empty() ? 0 : 1;
  os << with_snaps << '\n';
  for (const auto& [u, m] : containers_) {
    if (m.snapshots.empty()) continue;
    os << u.hi << ' ' << u.lo << ' ' << m.snapshots.size();
    for (const vos::Epoch e : m.snapshots) os << ' ' << e;
    os << '\n';
  }
  // IV delta log.
  os << deltas_.size() << '\n';
  for (const MapDelta& d : deltas_) {
    os << d.version << ' ' << d.engine << ' ' << (d.excluded ? 1 : 0) << '\n';
  }
  return os.str();
}

void PoolMetaSm::restore(const std::string& snap) {
  containers_.clear();
  map_version_ = 1;
  excluded_.clear();
  evicted_at_.clear();
  rebuilds_.clear();
  deltas_.clear();
  if (snap.empty()) return;
  std::istringstream is(snap);
  std::size_t n = 0;
  is >> n;
  for (std::size_t i = 0; i < n; ++i) {
    vos::Uuid u;
    ContMeta m;
    std::uint64_t chunk = 0;
    unsigned oclass = 0;
    is >> u.hi >> u.lo >> chunk >> oclass >> m.oid_counter;
    m.props.chunk_size = chunk;
    m.props.oclass = std::uint8_t(oclass);
    containers_.emplace(u, m);
  }
  std::size_t nexcluded = 0;
  is >> map_version_ >> nexcluded;
  for (std::size_t i = 0; i < nexcluded; ++i) {
    net::NodeId e = 0;
    is >> e;
    excluded_.insert(e);
  }
  std::size_t nevict = 0;
  is >> nevict;
  for (std::size_t i = 0; i < nevict; ++i) {
    net::NodeId e = 0;
    std::uint32_t v = 0;
    is >> e >> v;
    evicted_at_[e] = v;
  }
  std::size_t ntasks = 0;
  is >> ntasks;
  const auto read_set = [&is](std::set<net::NodeId>& out) {
    std::size_t count = 0;
    is >> count;
    for (std::size_t i = 0; i < count; ++i) {
      net::NodeId e = 0;
      is >> e;
      out.insert(e);
    }
  };
  for (std::size_t i = 0; i < ntasks; ++i) {
    RebuildTask t;
    int resync = 0;
    int superseded = 0;
    is >> t.version >> resync >> t.node >> t.since_version >> superseded;
    t.resync = resync != 0;
    t.superseded = superseded != 0;
    read_set(t.excluded);
    read_set(t.participants);
    read_set(t.done);
    rebuilds_.emplace(t.version, std::move(t));
  }
  std::size_t nsnap = 0;
  is >> nsnap;
  for (std::size_t i = 0; i < nsnap; ++i) {
    vos::Uuid u;
    std::size_t count = 0;
    is >> u.hi >> u.lo >> count;
    auto it = containers_.find(u);
    for (std::size_t k = 0; k < count; ++k) {
      vos::Epoch e = 0;
      is >> e;
      if (it != containers_.end()) it->second.snapshots.insert(e);
    }
  }
  std::size_t ndelta = 0;
  is >> ndelta;
  for (std::size_t i = 0; i < ndelta; ++i) {
    MapDelta d;
    int excluded = 0;
    is >> d.version >> d.engine >> excluded;
    d.excluded = excluded != 0;
    deltas_.push_back(d);
  }
}

PoolServiceReplica::PoolServiceReplica(net::RpcEndpoint& ep, std::vector<net::NodeId> replicas,
                                       PoolMap map, raft::RaftConfig cfg, std::uint64_t seed)
    : ep_(ep), map_(std::move(map)), metrics_(strfmt("pool/%u", ep.node())) {
  std::set<net::NodeId> engines;
  for (const auto& t : map_.targets) engines.insert(t.engine);
  sm_.set_engines(std::move(engines));
  commands_applied_ = &metrics_.find_or_create<telemetry::Counter>("commands_applied");
  rebuild_reports_ = &metrics_.find_or_create<telemetry::Counter>("rebuild/done_reports");
  metrics_.add_probe("rebuild/tasks_total", [this] { return sm_.rebuild_tasks().size(); });
  metrics_.add_probe("rebuild/tasks_incomplete", [this] { return sm_.rebuilds_incomplete(); });
  metrics_.add_probe("map_version", [this] { return sm_.map_version(); });
  raft_ = std::make_unique<raft::RaftNode>(ep_, std::move(replicas), sm_, cfg, seed);
  ep_.register_handler(engine::kOpPoolSvc, [this](Request r) { return on_command(std::move(r)); });
}

void PoolServiceReplica::start() {
  raft_->start();
  if (!coord_running_) {
    coord_running_ = true;
    sim::CoTask<void> loop = coordinator_loop();
    ep_.domain().scheduler().spawn(std::move(loop));
  }
}

void PoolServiceReplica::stop() {
  coord_running_ = false;
  raft_->stop();
}

sim::CoTask<void> PoolServiceReplica::coordinator_loop() {
  sim::Scheduler& sched = ep_.domain().scheduler();
  while (coord_running_) {
    co_await sched.delay(kCoordTick);
    if (!coord_running_) break;
    if (!raft_->is_leader() || driving_) continue;
    const std::vector<std::uint32_t> versions = sm_.incomplete_rebuilds();
    if (versions.empty()) continue;
    driving_ = true;
    // Drive every pending task, oldest first: after a re-queue, an eviction
    // repair and one or more resyncs can be in flight at the same time.
    for (const std::uint32_t version : versions) {
      if (!coord_running_ || !raft_->is_leader()) break;
      co_await drive_task(version);
    }
    driving_ = false;
  }
}

sim::CoTask<void> PoolServiceReplica::drive_task(std::uint32_t version) {
  const PoolMetaSm::RebuildTask* tp = sm_.rebuild_task(version);
  if (tp == nullptr) co_return;
  const PoolMetaSm::RebuildTask task = *tp;  // copy: sm_ may change under us
  if (task.complete()) co_return;
  ep_.domain().scheduler().trace_note(kTraceRebuildDrive ^ version);

  engine::RebuildScanReq base;
  base.version = task.version;
  base.resync = task.resync;
  base.reint_node = task.resync ? task.node : 0;
  base.since_version = task.since_version;
  base.excluded.assign(task.excluded.begin(), task.excluded.end());

  // Phase 1: every participant scans its VOS trees and reports the entries it
  // is the canonical source for. Done participants are NOT skipped here —
  // `done` means an engine finished its destination-side assignment, but its
  // scan feeds other destinations' assignments. A re-driven task (failed
  // pulls, leader crash, lost reply) must see the full entry set, or the
  // remaining destinations would silently complete against a partial one.
  // Scans are read-only and mark-recording is first-wins, so re-scanning a
  // done engine is idempotent.
  std::vector<engine::RebuildEntry> entries;
  for (const net::NodeId node : task.participants) {
    engine::RebuildScanReq req = base;
    Body body = Body::make(std::move(req));
    Reply r = co_await ep_.call(node, engine::kOpRebuildScan, std::move(body), 512);
    if (r.status != Errno::ok) {
      if (++scan_fail_[{version, node}] >= kScanFailEvict) {
        co_await raft_->submit(encode(PoolEvict{node}));
      }
      co_return;  // superseded or retried next tick
    }
    scan_fail_.erase({version, node});
    auto& resp = r.body.get<engine::RebuildScanResp>();
    entries.insert(entries.end(), resp.entries.begin(), resp.entries.end());
  }

  // Phase 2: hand each participant the entries it is the destination for. An
  // empty assignment still obliges the engine to report rebuild_done, so the
  // task's `done` set can cover every participant.
  std::map<net::NodeId, std::vector<engine::RebuildEntry>> by_dst;
  for (const auto& e : entries) by_dst[map_.targets[e.dst].engine].push_back(e);
  for (const net::NodeId node : task.participants) {
    if (task.done.contains(node)) continue;
    engine::RebuildScanReq req = base;
    req.assign = true;
    if (const auto it = by_dst.find(node); it != by_dst.end()) req.entries = it->second;
    const std::uint64_t wire = 512 + 64 * req.entries.size();
    Body body = Body::make(std::move(req));
    Reply r = co_await ep_.call(node, engine::kOpRebuildScan, std::move(body), wire);
    if (r.status != Errno::ok) {
      if (++scan_fail_[{version, node}] >= kScanFailEvict) {
        co_await raft_->submit(encode(PoolEvict{node}));
      }
      co_return;
    }
    scan_fail_.erase({version, node});
  }
  ep_.domain().scheduler().trace_note(kTraceRebuildAssign ^ version);
}

sim::CoTask<net::Reply> PoolServiceReplica::on_command(net::Request req) {
  const SvcCmd cmd = req.body.get<PoolSvcReq>().cmd;
  if (!raft_->is_leader()) {
    PoolSvcResp resp{{}, raft_->leader_hint()};
    co_return Reply{Errno::again, 64, Body::make(std::move(resp))};
  }
  raft::SubmitResult sr = co_await raft_->submit(encode(cmd));
  if (sr.status != Errno::ok) {
    PoolSvcResp resp{{}, sr.leader_hint};
    co_return Reply{sr.status, 64, Body::make(std::move(resp))};
  }
  if (const auto* done = std::get_if<RebuildDone>(&cmd)) {
    rebuild_reports_->inc();
    ep_.domain().scheduler().trace_note(kTraceRebuildDone ^ (std::uint64_t(done->version) << 16) ^
                                        done->engine);
  } else {
    commands_applied_->inc();
  }
  PoolSvcResp resp{std::move(sr.response), raft_->leader_hint()};
  co_return Reply{Errno::ok, 64 + resp.response.size(), Body::make(std::move(resp))};
}

}  // namespace daosim::pool
