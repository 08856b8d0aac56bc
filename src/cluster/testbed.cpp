#include "cluster/testbed.hpp"

namespace daosim::cluster {

Testbed::Testbed(ClusterConfig cfg) : cfg_(cfg), fabric_(sched_, cfg.fabric) {
  DAOSIM_REQUIRE(cfg_.server_nodes > 0 && cfg_.engines_per_server > 0, "bad cluster config");
  DAOSIM_REQUIRE(cfg_.client_nodes > 0, "need at least one client node");
  fabric_.set_telemetry(&fabric_metrics_);
  domain_ = std::make_unique<net::RpcDomain>(fabric_);

  // Human-readable opcode labels for metric paths and trace spans.
  domain_->name_opcode(raft::kOpRequestVote, "vote");
  domain_->name_opcode(raft::kOpAppendEntries, "append");
  domain_->name_opcode(raft::kOpInstallSnapshot, "snapshot");
  domain_->name_opcode(engine::kOpObjUpdate, "update");
  domain_->name_opcode(engine::kOpObjFetch, "fetch");
  domain_->name_opcode(engine::kOpObjEnumDkeys, "enum_dkeys");
  domain_->name_opcode(engine::kOpObjEnumAkeys, "enum_akeys");
  domain_->name_opcode(engine::kOpObjPunch, "punch");
  domain_->name_opcode(engine::kOpObjQuery, "query");
  domain_->name_opcode(engine::kOpPoolSvc, "pool_svc");
  domain_->name_opcode(engine::kOpRebuildScan, "rebuild_scan");
  domain_->name_opcode(engine::kOpRebuildFetch, "rebuild_fetch");
  domain_->name_opcode(engine::kOpTxPrepare, "tx_prepare");
  domain_->name_opcode(engine::kOpTxCommit, "tx_commit");
  domain_->name_opcode(engine::kOpTxAbort, "tx_abort");
  domain_->name_opcode(engine::kOpTxResolve, "tx_resolve");
  domain_->name_opcode(engine::kOpContAggregate, "cont_aggregate");
  domain_->name_opcode(engine::kOpSwimPing, "swim_ping");
  domain_->name_opcode(engine::kOpSwimPingReq, "swim_ping_req");
  domain_->name_opcode(engine::kOpMapFetch, "map_fetch");

  // Engines: one fabric node per engine (each socket binds one rail of the
  // server's dual-rail NIC), one DCPMM interleave set per socket.
  engine::EngineConfig ecfg = cfg_.engine;
  ecfg.targets = cfg_.targets_per_engine;
  ecfg.payload = cfg_.payload;
  const std::uint32_t total_engines = cfg_.server_nodes * cfg_.engines_per_server;
  for (std::uint32_t e = 0; e < total_engines; ++e) {
    const net::NodeId node = fabric_.add_node(/*rails=*/1);
    sockets_.push_back(std::make_unique<media::DcpmmInterleaveSet>(sched_, cfg_.dcpmm));
    engines_.push_back(
        std::make_unique<engine::Engine>(*domain_, node, *sockets_.back(), ecfg));
  }

  // Pool map: every target of every engine, in engine-major order.
  map_.pool = kPoolUuid;
  for (auto& eng : engines_) {
    for (std::uint32_t t = 0; t < eng->target_count(); ++t) {
      map_.targets.push_back(pool::TargetRef{eng->node(), t, pool::TargetHealth::up});
    }
  }

  // Pool service replicas co-located with the first engines.
  const std::uint32_t nsvc = std::min(cfg_.svc_replicas, total_engines);
  for (std::uint32_t s = 0; s < nsvc; ++s) svc_nodes_.push_back(engines_[s]->node());
  for (std::uint32_t s = 0; s < nsvc; ++s) {
    svc_.push_back(std::make_unique<pool::PoolServiceReplica>(
        engines_[s]->endpoint(), svc_nodes_, map_, cfg_.raft, cfg_.seed + s));
  }

  // One rebuild service per engine, answering the pool-service coordinator's
  // scan/assign RPCs against this pool's membership.
  for (auto& eng : engines_) {
    rebuilds_.push_back(
        std::make_unique<rebuild::RebuildService>(*eng, map_, svc_nodes_, cfg_.rebuild));
  }

  // One DTX service per engine: 2PC shard handlers plus the orphan reaper.
  for (auto& eng : engines_) {
    dtxs_.push_back(std::make_unique<dtx::DtxService>(*eng, map_, svc_nodes_, cfg_.dtx));
  }

  // One aggregation service per engine, constrained by the co-indexed
  // rebuild service's resync floors (loops spawn only when cfg.agg.enabled).
  for (std::uint32_t e = 0; e < total_engines; ++e) {
    aggs_.push_back(std::make_unique<agg::AggregationService>(*engines_[e], rebuilds_[e].get(),
                                                              svc_nodes_, cfg_.agg));
  }

  // One SWIM service per engine: failure-detector probes (only when enabled)
  // plus the always-on kOpMapFetch handler of the IV dissemination tree.
  // Engines co-located with a pool-service replica are tree roots: they read
  // the Raft-committed map state directly instead of fetching over RPC.
  std::vector<net::NodeId> engine_nodes;
  for (auto& eng : engines_) engine_nodes.push_back(eng->node());
  for (std::uint32_t e = 0; e < total_engines; ++e) {
    swims_.push_back(std::make_unique<swim::SwimService>(
        *engines_[e], e, engine_nodes, svc_nodes_, cfg_.swim, cfg_.seed + 0x5717 + e));
  }
  for (std::uint32_t s = 0; s < nsvc; ++s) {
    pool::PoolServiceReplica* rep = svc_[s].get();
    swims_[s]->set_local_map_source([rep](std::uint32_t since) {
      engine::MapFetchResp resp;
      resp.latest_version = rep->meta().map_version();
      for (const auto& d : rep->meta().deltas_since(since)) {
        resp.deltas.push_back(engine::MapDeltaEntry{d.version, d.engine, d.excluded});
      }
      return resp;
    });
  }

  // Client nodes (dual-rail NICs) with one DaosClient each.
  for (std::uint32_t c = 0; c < cfg_.client_nodes; ++c) {
    const net::NodeId node = fabric_.add_node();
    clients_.push_back(
        std::make_unique<client::DaosClient>(*domain_, node, map_, svc_nodes_, cfg_.client));
  }
}

Testbed::~Testbed() {
  if (started_) stop();
}

void Testbed::start() {
  DAOSIM_REQUIRE(!started_, "testbed already started");
  for (auto& s : svc_) s->start();
  for (auto& d : dtxs_) d->start();
  if (cfg_.swim.enabled) {
    for (auto& w : swims_) w->start();
  }
  if (cfg_.agg.enabled) {
    for (auto& a : aggs_) a->start();
  }
  started_ = true;
  // Run until the pool service has a leader.
  const sim::Time deadline = sched_.now() + 10 * sim::kSec;
  while (sched_.now() < deadline) {
    sched_.run_until(sched_.now() + 20 * sim::kMs);
    for (auto& s : svc_) {
      if (s->is_leader()) return;
    }
  }
  raise("pool service failed to elect a leader");
}

void Testbed::stop() {
  if (!started_) return;
  for (auto& s : svc_) s->stop();
  for (auto& d : dtxs_) d->stop();
  for (auto& w : swims_) w->stop();
  for (auto& a : aggs_) a->stop();
  started_ = false;
  sched_.run();  // drain retired service loops
}

sim::CoTask<void> Testbed::wrap_main(sim::CoTask<void> main, bool& done) {
  co_await std::move(main);
  done = true;
}

void Testbed::run(sim::CoTask<void> main) {
  DAOSIM_REQUIRE(started_, "start() the testbed before run()");
  bool done = false;
  sched_.spawn(wrap_main(std::move(main), done));
  // Hard cap: a year of virtual time — any workload hitting this is hung.
  const sim::Time cap = sched_.now() + 365ULL * 24 * 3600 * sim::kSec;
  while (!done && sched_.now() < cap) {
    const bool more = sched_.run_until(sched_.now() + 100 * sim::kMs);
    if (!more && !done) {
      raise("testbed workload blocked with no pending events");
    }
  }
  DAOSIM_REQUIRE(done, "testbed workload exceeded the virtual time cap");
}

fault::Injector& Testbed::inject_faults(const fault::Schedule& s, std::uint64_t seed) {
  if (!injector_) {
    fault::Hooks hooks;
    hooks.engine_count = engine_count();
    hooks.node_of = [this](std::uint32_t e) { return engines_[e]->node(); };
    hooks.crash = [this](std::uint32_t e) { crash_engine(e); };
    hooks.restart = [this](std::uint32_t e) { restart_engine(e); };
    hooks.stall = [this](std::uint32_t e, std::uint32_t t, sim::Time d) {
      engines_[e]->stall_target(t, d);
    };
    injector_ = std::make_unique<fault::Injector>(*domain_, std::move(hooks), seed);
  }
  injector_->arm(s);
  return *injector_;
}

void Testbed::crash_engine(std::uint32_t i) {
  DAOSIM_REQUIRE(i < engines_.size(), "crash_engine: no engine %u", i);
  const net::NodeId node = engines_[i]->node();
  // A co-located pool-service replica loses its volatile Raft state with the
  // engine (its stable log lives on the DCPMM interleave set and survives).
  for (std::uint32_t s = 0; s < svc_.size(); ++s) {
    if (svc_nodes_[s] == node && svc_[s]->raft().running()) svc_[s]->raft().crash();
  }
  engines_[i]->endpoint().set_down(true);
}

void Testbed::restart_engine(std::uint32_t i) {
  DAOSIM_REQUIRE(i < engines_.size(), "restart_engine: no engine %u", i);
  const net::NodeId node = engines_[i]->node();
  // Pin resync epoch floors before the endpoint comes back up, so the first
  // post-restart client write is already above the floor.
  rebuilds_[i]->note_restart();
  // Schedule the DTX resync sweep: prepared-but-undecided entries left by
  // the crash are resolved against their leader shards shortly after the
  // endpoint reopens.
  dtxs_[i]->note_restart();
  // Bump the SWIM incarnation past any suspicion accrued while down, so the
  // engine refutes instead of being (re-)declared dead on rejoin.
  swims_[i]->note_restart();
  // Drop the aggregator's cached pool-service leader hint (the leader may
  // have moved while the engine was down).
  aggs_[i]->note_restart();
  engines_[i]->endpoint().set_down(false);
  for (std::uint32_t s = 0; s < svc_.size(); ++s) {
    if (svc_nodes_[s] == node && !svc_[s]->raft().running()) svc_[s]->raft().restart();
  }
}

bool Testbed::wait_rebuild(sim::Time timeout) {
  DAOSIM_REQUIRE(started_, "start() the testbed before wait_rebuild()");
  const sim::Time deadline = sched_.now() + timeout;
  while (sched_.now() < deadline) {
    if (const auto l = svc_leader()) {
      if (svc_[*l]->meta().rebuilds_incomplete() == 0) return true;
    }
    sched_.run_until(sched_.now() + 20 * sim::kMs);
  }
  return false;
}

std::optional<std::uint32_t> Testbed::svc_leader() const {
  for (std::uint32_t s = 0; s < svc_.size(); ++s) {
    if (svc_[s]->is_leader()) return s;
  }
  return std::nullopt;
}

std::uint64_t Testbed::total_updates() const {
  std::uint64_t n = 0;
  for (const auto& e : engines_) n += e->updates_served();
  return n;
}
std::uint64_t Testbed::total_fetches() const {
  std::uint64_t n = 0;
  for (const auto& e : engines_) n += e->fetches_served();
  return n;
}
std::uint64_t Testbed::total_shard_cache_misses() const {
  std::uint64_t n = 0;
  for (const auto& e : engines_) n += e->shard_cache_misses();
  return n;
}

std::vector<const telemetry::Registry*> Testbed::registries() const {
  std::vector<const telemetry::Registry*> regs;
  regs.push_back(&fabric_metrics_);
  for (const auto& e : engines_) regs.push_back(&e->telemetry());
  for (const auto& s : svc_) regs.push_back(&s->telemetry());
  for (const auto& c : clients_) regs.push_back(&c->telemetry());
  return regs;
}

void Testbed::dump_metrics(std::ostream& os, telemetry::DumpFormat fmt) const {
  telemetry::write_dump(os, registries(), fmt);
}

telemetry::DurationHistogram::State Testbed::client_rpc_latency(const std::string& op) const {
  telemetry::DurationHistogram::State sum;
  for (const auto& c : clients_) {
    const auto* h =
        c->telemetry().find<telemetry::DurationHistogram>("rpc/" + op + "/latency_ns");
    if (h != nullptr) sum += h->state();
  }
  return sum;
}

void Testbed::attach_trace(telemetry::TraceLog* log) {
  trace_log_ = log;
  sched_.set_span_sink(log);
}

void Testbed::dump_slow_ops(std::ostream& os, sim::Time threshold, std::size_t top_k) const {
  if (trace_log_ == nullptr) return;
  trace_log_->write_slow_ops(os, threshold, top_k);
}

}  // namespace daosim::cluster
