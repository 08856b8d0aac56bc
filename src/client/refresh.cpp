// Pool-map pull: the client half of IV dissemination. Clients learn that the
// map moved from the version every engine stamps on its replies, or because
// an engine stopped answering, and pull version deltas (kOpMapFetch) from the
// engines. The pool service is never asked; only the engines' SWIM detector
// evicts (see docs/membership.md).
#include "client/client.hpp"

namespace daosim::client {

namespace {
constexpr std::uint64_t kMapMsgBytes = 128;

/// How long pull_map waits for the map to move. Sized for an engine crash
/// under the default SWIM profile: one probe round over the default 16-engine
/// pool (16 x 500 ms) for some prober to reach the victim, the 2 s
/// suspect_timeout before it is declared dead, and 1 s for the Raft commit
/// and the delta to reach the engines a client pulls from.
constexpr sim::Time kMapWait = 11 * sim::kSec;
/// Pause after a pull round that moved nothing, before the next one: the
/// default SWIM probe period, sized by ablation_membership's `crash` series
/// (a quarter of the map fetches of 100 ms for a map consistent 0.3 s later;
/// docs/membership.md §3).
constexpr sim::Time kMapPullPause = 500 * sim::kMs;

// Trace-digest tag (continuing the 0xFA17E0xx client block in client.cpp).
constexpr std::uint64_t kTraceDeltaApply = 0xFA17E015'0000'0000ULL;
}  // namespace

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

pool::TargetHealth DaosClient::engine_health(net::NodeId engine) const {
  for (const std::uint32_t t : engine_targets_) {
    if (map_.targets[t].engine == engine) return map_.targets[t].health;
  }
  DAOSIM_REQUIRE(false, "engine %u not in the pool map", engine);
  return pool::TargetHealth::excluded;
}

std::optional<net::NodeId> DaosClient::next_pull_source() {
  const std::size_t n = engine_targets_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (pull_cursor_ + k) % n;
    const pool::TargetRef& t = map_.targets[engine_targets_[i]];
    if (t.health != pool::TargetHealth::up) continue;
    pull_cursor_ = (i + 1) % n;
    return t.engine;
  }
  return std::nullopt;
}

sim::CoTask<bool> DaosClient::pull_round(net::NodeId source) {
  // Any engine serves kOpMapFetch from its local delta log (engines next to
  // a pool-service replica answer from its committed state).
  engine::MapFetchReq req{map_.version};
  net::Body body = net::Body::make(std::move(req));
  net::Reply r = co_await call_with_deadline(source, engine::kOpMapFetch, std::move(body),
                                             kMapMsgBytes, retry_.deadline);
  if (r.status != Errno::ok || !r.body.has_value()) co_return false;
  const auto& resp = r.body.get<engine::MapFetchResp>();
  if (resp.latest_version <= map_.version) co_return false;
  ++map_delta_fetches_;
  apply_map_deltas(resp.latest_version, resp.deltas);
  co_return true;
}

sim::CoTask<void> DaosClient::pull_map(std::function<bool()> done,
                                       std::optional<net::NodeId> first) {
  const sim::Time deadline = sched_.now() + kMapWait;
  while (!done() && sched_.now() < deadline) {
    if (pull_gate_ != nullptr) {
      auto gate = pull_gate_;  // keep the Event alive across the wait
      co_await gate->wait();
      continue;
    }
    if (sched_.now() < next_pull_) {
      co_await sched_.delay(std::min(next_pull_, deadline) - sched_.now());
      continue;
    }
    std::optional<net::NodeId> source;
    if (first && engine_health(*first) == pool::TargetHealth::up) source = first;
    first.reset();
    if (!source) source = next_pull_source();
    bool moved = false;
    if (source) {
      auto gate = std::make_shared<sim::Event>(sched_);
      pull_gate_ = gate;
      moved = co_await pull_round(*source);
      pull_gate_.reset();
      gate->set();
    }
    if (!moved) next_pull_ = sched_.now() + kMapPullPause;
  }
}

}  // namespace daosim::client
