// Ablation A8 — pool-map dissemination after a forced eviction: IV deltas
// vs the point-query stampede. An engine is crashed and evicted, then N
// stale clients (10^3..10^4) all learn about the new pool map at once:
//
//   point  SWIM/IV disabled. Every client does what the legacy path did —
//          a full map_query against the pool-service leader. Leader RPC
//          load is O(N) and the replies serialize on one node's NIC.
//   iv     SWIM/IV enabled. Every client issues one small object fetch to
//          a live engine; the reply arrives stamped with the newer map
//          version, the client detects the staleness passively and pulls
//          version deltas from that engine (single-flight per client).
//          The leader serves ZERO client map RPCs — load is O(1) in N,
//          spread across every engine in the pool.
//
//   ablation_membership [--smoke]   # --smoke: one 50-client point (CI)
//
// BENCH_ablation_membership.json column mapping (the shared JsonRow schema
// is bandwidth-shaped): x = client count, read_gibs = map RPCs served by
// the pool-service leader, write_gibs = delta fetches served by ordinary
// engines, read_p99_us = time-to-consistent-map in us (eviction committed
// -> every client at the new version), write_p99_us = clients still stale
// at the end (must be 0).
#include <chrono>

#include "figure_common.hpp"

namespace {

using namespace daosim;
using sim::CoTask;

/// Forced eviction through the admin path (the `dmg pool exclude`
/// equivalent): engine 0 submits pool_evict through the pool-service client
/// until a leader accepts it. Used by the point series, where no failure
/// detector runs.
CoTask<void> admin_evict(cluster::Testbed* tb, net::NodeId victim) {
  net::RpcEndpoint& ep = tb->engine(0).endpoint();
  pool::SvcClient svc(tb->sched(), tb->svc_nodes(), {100, 50 * sim::kMs},
                      [&ep](net::NodeId dst, net::Body body, std::uint64_t) {
                        return ep.call(dst, engine::kOpPoolSvc, std::move(body), 128);
                      });
  auto evicted = co_await svc.run(pool::PoolEvict{victim});
  if (!evicted.ok()) raise("admin eviction never accepted");
}

/// One client of the iv wave: a minimal fetch against a live engine whose
/// stamped reply reveals the staleness and triggers the IV delta pull.
CoTask<void> iv_wave_op(client::DaosClient* cl, std::uint32_t map_target) {
  net::Body b = net::Body::make(engine::ObjFetchReq{});
  (void)co_await cl->call_target(map_target, engine::kOpObjFetch, std::move(b), 64);
}

/// One client of the point wave: the legacy full map query at the leader.
CoTask<void> point_wave_op(client::DaosClient* cl) {
  (void)co_await cl->refresh_pool_map();  // daosim-lint: allow(ignored-result): measured stampede; the stale-count column catches failures
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const std::vector<std::uint32_t> counts =
      smoke ? std::vector<std::uint32_t>{50} : std::vector<std::uint32_t>{1000, 3162, 10000};
  const std::uint32_t victim = 4;

  std::printf("# A8 membership — leader load and time-to-consistent map after an eviction\n");
  std::printf("%-8s %-7s %12s %12s %15s %10s\n", "clients", "series", "leader_rpcs",
              "delta_fetch", "consistent_ms", "stale");

  std::vector<bench::JsonRow> rows;
  for (const std::uint32_t n : counts) {
    for (const bool iv : {false, true}) {
      cluster::ClusterConfig cfg;
      cfg.server_nodes = 3;
      cfg.engines_per_server = 2;
      cfg.targets_per_engine = 4;
      cfg.client_nodes = n;
      cfg.swim.enabled = iv;
      cfg.swim.probe_period = 100 * sim::kMs;
      cfg.swim.suspect_timeout = 1 * sim::kSec;
      cluster::Testbed tb(cfg);
      tb.start();

      const std::uint64_t events0 = tb.sched().events_processed();
      const auto wall0 = std::chrono::steady_clock::now();

      // Phase 1 (not measured): crash the victim and commit its eviction —
      // by SWIM detection when the detector runs, by the admin path when
      // not — then let every engine converge on the new version.
      tb.run([&]() -> CoTask<void> {
        tb.crash_engine(victim);
        if (!iv) co_await admin_evict(&tb, tb.engine(victim).node());
        const sim::Time deadline = tb.sched().now() + 10 * sim::kSec;
        while (tb.sched().now() < deadline) {
          if (const auto l = tb.svc_leader()) {
            if (tb.svc_replica(*l).meta().map_version() >= 2) break;
          }
          co_await tb.sched().delay(20 * sim::kMs);
        }
        if (iv) co_await tb.sched().delay(2 * sim::kSec);  // engines pull deltas
      });

      // Phase 2 (measured): every client learns the new map at once.
      sim::Time span = 0;
      tb.run([&]() -> CoTask<void> {
        const sim::Time t0 = tb.sched().now();
        sim::WaitGroup wg(tb.sched());
        const std::uint32_t live[] = {0, 1, 2, 3, 5};
        for (std::uint32_t c = 0; c < n; ++c) {
          if (iv) {
            const std::uint32_t eng = live[c % 5];
            const std::uint32_t tgt = (c / 5) % cfg.targets_per_engine;
            wg.spawn(iv_wave_op(&tb.client(c), eng * cfg.targets_per_engine + tgt));
          } else {
            wg.spawn(point_wave_op(&tb.client(c)));
          }
        }
        co_await wg.wait();
        span = tb.sched().now() - t0;
      });

      std::uint64_t leader_rpcs = 0;
      std::uint64_t delta_fetches = 0;
      std::uint64_t stale = 0;
      for (std::uint32_t c = 0; c < n; ++c) {
        leader_rpcs += tb.client(c).map_refreshes();
        delta_fetches += tb.client(c).map_delta_fetches();
        if (tb.client(c).pool_map().version < 2) ++stale;
      }
      const std::uint64_t events = tb.sched().events_processed() - events0;
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
      tb.stop();

      const char* series = iv ? "iv" : "point";
      std::printf("%-8u %-7s %12llu %12llu %15.2f %10llu\n", n, series,
                  static_cast<unsigned long long>(leader_rpcs),
                  static_cast<unsigned long long>(delta_fetches),
                  sim::to_seconds(span) * 1e3, static_cast<unsigned long long>(stale));

      rows.push_back(bench::JsonRow{double(n), series, double(leader_rpcs),
                                    double(delta_fetches), sim::to_seconds(span) * 1e6,
                                    double(stale), events, wall_s});
    }
  }

  bench::write_bench_json("ablation_membership", rows);
  return 0;
}
