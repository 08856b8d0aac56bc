// Ablation A7 — pool-map dissemination when an engine leaves the pool, in
// two series over N clients (10^3..10^4):
//
//   iv     An engine is crashed and evicted through the admin path, the
//          engines converge on the new map over SWIM/IV, then every stale
//          client issues one small object fetch to a live engine; the reply
//          arrives stamped with the newer map version, the client detects
//          the staleness passively and pulls version deltas from that engine
//          (single-flight per client).
//   crash  Default SWIM profile, no admin path: an engine crashes while
//          every client has one object fetch in flight to it. Each client
//          burns its retry budget, marks the engine DOWN and pulls map
//          deltas from the live engines (500 ms apart) until SWIM's
//          eviction reaches it. This is the client's wait for the failure
//          detector, and its cost in map fetches on the engines.
//
// In both, no client sends the pool service anything — its load is O(1) in
// N, and the map fetches spread across the live engines.
//
//   ablation_membership [--smoke]   # --smoke: one 50-client point (CI)
//
// BENCH_ablation_membership.json column mapping (the shared JsonRow schema
// is bandwidth-shaped): x = client count, read_gibs = pool-service RPCs
// the clients sent (must be 0), write_gibs = map fetches the engines
// served to clients, read_p99_us = time-to-consistent-map in us (iv: first
// stale op -> every client at the new version; crash: the crash -> every
// client sees the engine EXCLUDED), write_p99_us = clients still stale at
// the end (must be 0). The printed table adds the most map fetches any one
// engine served (max_engine).
#include <algorithm>
#include <chrono>
#include <map>

#include "figure_common.hpp"

namespace {

using namespace daosim;
using sim::CoTask;

/// Forced eviction through the admin path (the `dmg pool exclude`
/// equivalent): engine 0 submits pool_evict through the pool-service client
/// until a leader accepts it, so the eviction does not wait for SWIM's
/// suspicion timeout.
CoTask<void> admin_evict(cluster::Testbed* tb, net::NodeId victim) {
  net::RpcEndpoint& ep = tb->engine(0).endpoint();
  pool::SvcClient svc(tb->sched(), tb->svc_nodes(), {100, 50 * sim::kMs},
                      [&ep](net::NodeId dst, net::Body body, std::uint64_t) {
                        return ep.call(dst, engine::kOpPoolSvc, std::move(body), 128);
                      });
  auto evicted = co_await svc.run(pool::PoolEvict{victim});
  if (!evicted.ok()) raise("admin eviction never accepted");
}

/// One client op of a wave: a minimal fetch against `map_target`. Against a
/// live engine its stamped reply reveals the staleness and triggers the IV
/// delta pull; against the crashed one it waits for SWIM's eviction.
CoTask<void> wave_op(client::DaosClient* cl, std::uint32_t map_target) {
  net::Body b = net::Body::make(engine::ObjFetchReq{});
  (void)co_await cl->call_target(map_target, engine::kOpObjFetch, std::move(b), 64);
}

constexpr std::uint32_t kVictim = 4;

/// One cell: `n` clients, series `iv` or (crash == true) `crash`.
bench::JsonRow run(std::uint32_t n, bool crash) {
  cluster::ClusterConfig cfg;
  cfg.server_nodes = 3;
  cfg.engines_per_server = 2;
  cfg.targets_per_engine = 4;
  cfg.client_nodes = n;
  if (!crash) {  // the crash series keeps the default SWIM profile
    cfg.swim.probe_period = 100 * sim::kMs;
    cfg.swim.suspect_timeout = 1 * sim::kSec;
  }
  cluster::Testbed tb(cfg);
  tb.start();
  const net::NodeId victim = tb.engine(kVictim).node();
  const std::uint64_t events0 = tb.sched().events_processed();
  const auto wall0 = std::chrono::steady_clock::now();
  if (!crash) {
    // Not measured: crash the victim, commit its eviction through the admin
    // path, then let every engine converge on the new version.
    tb.run([&]() -> CoTask<void> {
      tb.crash_engine(kVictim);
      co_await admin_evict(&tb, victim);
      co_await tb.sched().delay(2 * sim::kSec);  // engines pull deltas
    });
  }

  // Measured: every client's one op, and the map fetches each engine serves.
  std::map<net::NodeId, std::uint64_t> served;
  tb.domain().set_fault_hook([&served](net::NodeId, net::NodeId dst, std::uint16_t op) {
    if (op == engine::kOpMapFetch) ++served[dst];
    return net::CallFault{};
  });
  sim::Time span = 0;
  tb.run([&]() -> CoTask<void> {
    const sim::Time t0 = tb.sched().now();
    if (crash) tb.crash_engine(kVictim);
    sim::WaitGroup wg(tb.sched());
    const std::uint32_t live[] = {0, 1, 2, 3, 5};
    for (std::uint32_t c = 0; c < n; ++c) {
      const std::uint32_t eng = crash ? kVictim : live[c % 5];
      const std::uint32_t tgt = (crash ? c : c / 5) % cfg.targets_per_engine;
      wg.spawn(wave_op(&tb.client(c), eng * cfg.targets_per_engine + tgt));
    }
    co_await wg.wait();
    span = tb.sched().now() - t0;
  });
  tb.domain().set_fault_hook({});

  // A client is stale unless it shows the victim's targets EXCLUDED.
  auto sent = [](const client::DaosClient& cl, const char* path) -> std::uint64_t {
    const auto* counter = cl.telemetry().find<telemetry::Counter>(path);
    return counter != nullptr ? counter->value() : 0;
  };
  std::uint64_t svc_rpcs = 0, fetches = 0, stale = 0, max_engine = 0;
  for (std::uint32_t c = 0; c < n; ++c) {
    const client::DaosClient& cl = tb.client(c);
    svc_rpcs += sent(cl, "rpc/pool_svc/sent");
    fetches += sent(cl, "rpc/map_fetch/sent");
    const auto& ts = cl.pool_map().targets;
    stale += std::any_of(ts.begin(), ts.end(), [victim](const pool::TargetRef& t) {
      return t.engine == victim && t.health != pool::TargetHealth::excluded;
    });
  }
  for (const auto& [node, k] : served) max_engine = std::max(max_engine, k);
  const std::uint64_t events = tb.sched().events_processed() - events0;
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
  tb.stop();

  const char* series = crash ? "crash" : "iv";
  std::printf("%-8u %-7s %12llu %12llu %12llu %15.2f %10llu\n", n, series,
              static_cast<unsigned long long>(svc_rpcs), static_cast<unsigned long long>(fetches),
              static_cast<unsigned long long>(max_engine), sim::to_seconds(span) * 1e3,
              static_cast<unsigned long long>(stale));
  return bench::JsonRow{double(n), series, double(svc_rpcs), double(fetches),
                        sim::to_seconds(span) * 1e6, double(stale), events, wall_s};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const std::vector<std::uint32_t> counts =
      smoke ? std::vector<std::uint32_t>{50} : std::vector<std::uint32_t>{1000, 3162, 10000};

  std::printf("# A7 membership — pool-service load and time-to-consistent map after an eviction\n");
  std::printf("%-8s %-7s %12s %12s %12s %15s %10s\n", "clients", "series", "svc_rpcs",
              "map_fetches", "max_engine", "consistent_ms", "stale");
  std::vector<bench::JsonRow> rows;
  for (const std::uint32_t n : counts) {
    for (const bool crash : {false, true}) rows.push_back(run(n, crash));
  }
  bench::write_bench_json("ablation_membership", rows);
  return 0;
}
