// Pool-map refresh paths: the full point query against the pool-service
// leader (refresh_pool_map) and the IV fast path (refresh_to_version) that
// pulls version deltas from whichever engine's stamped reply revealed the
// staleness. This file is the only client module allowed to issue the raw
// leader map query — the direct-map-query lint rule keeps every other
// src/client/ file off the leader, so map dissemination load stays O(1) in
// client count (see docs/membership.md).
#include "client/client.hpp"

namespace daosim::client {

namespace {
constexpr std::uint64_t kMapMsgBytes = 128;

// Trace-digest tags (continuing the 0xFA17E0xx client block in client.cpp).
constexpr std::uint64_t kTraceMapRefresh = 0xFA17E002'0000'0000ULL;
constexpr std::uint64_t kTraceStaleness = 0xFA17E014'0000'0000ULL;
constexpr std::uint64_t kTraceDeltaApply = 0xFA17E015'0000'0000ULL;
}  // namespace

sim::CoTask<Result<void>> DaosClient::refresh_pool_map() {
  ++map_refreshes_;
  ++map_full_fetches_;
  auto res = co_await svc_.run(pool::MapQuery{});
  if (!res.ok()) co_return res.error();
  const auto& [version, excluded] = *res;
  if (version <= map_.version) co_return Result<void>{};
  map_.version = version;
  for (auto& t : map_.targets) {
    if (excluded.contains(t.engine)) {
      t.health = pool::TargetHealth::excluded;
    } else if (t.health == pool::TargetHealth::excluded) {
      t.health = pool::TargetHealth::up;  // reintegrated
    }
  }
  sched_.trace_note(kTraceMapRefresh ^ version);
  co_return Result<void>{};
}

void DaosClient::apply_map_deltas(std::uint32_t latest,
                                  const std::vector<engine::MapDeltaEntry>& deltas) {
  for (const auto& d : deltas) {
    if (d.version <= map_.version) continue;  // already reflected locally
    for (auto& t : map_.targets) {
      if (t.engine != d.engine) continue;
      t.health = d.excluded ? pool::TargetHealth::excluded : pool::TargetHealth::up;
    }
  }
  map_.version = latest;
  sched_.trace_note(kTraceDeltaApply ^ latest);
}

sim::CoTask<void> DaosClient::refresh_to_version(std::uint32_t version, net::NodeId source) {
  if (refresh_gate_ != nullptr) {
    auto gate = refresh_gate_;  // keep the Event alive across the wait
    co_await gate->wait();
    co_return;
  }
  if (version <= map_.version) co_return;
  auto gate = std::make_shared<sim::Event>(sched_);
  refresh_gate_ = gate;
  sched_.trace_note(kTraceStaleness ^ version);
  // Delta fetch from the engine whose stamped reply revealed the staleness:
  // any engine serves kOpMapFetch from its local delta log, so this never
  // touches the pool-service leader.
  engine::MapFetchReq req{map_.version};
  net::Body body = net::Body::make(std::move(req));
  net::Reply r = co_await call_with_deadline(source, engine::kOpMapFetch, std::move(body),
                                             kMapMsgBytes, retry_.deadline);
  bool applied = false;
  if (r.status == Errno::ok && r.body.has_value()) {
    const auto& resp = r.body.get<engine::MapFetchResp>();
    if (resp.latest_version > map_.version) {
      ++map_delta_fetches_;
      apply_map_deltas(resp.latest_version, resp.deltas);
      applied = true;
    }
  }
  if (!applied) {
    // The engine couldn't serve deltas (SWIM off, crashed mid-fetch, or its
    // own log hadn't caught up) — fall back to the authoritative point query.
    (void)co_await refresh_pool_map();  // daosim-lint: allow(ignored-result): best-effort; targets stay DOWN and the next staleness trigger retries
  }
  refresh_gate_.reset();
  gate->set();
}

}  // namespace daosim::client
