// What a committed eviction looks like, shared by the tests whose premise
// is an engine leaving the pool map. SWIM is the only path out of the map:
// some engine declares the victim dead, its pool_evict commits (map version
// +1), and the delta reaches the client, which shows the victim EXCLUDED.
#pragma once

#include <algorithm>
#include <cstdint>

#include "cluster/testbed.hpp"

namespace daosim::testkit {

/// Death verdicts SWIM declared across every engine.
inline std::uint64_t swim_deaths(cluster::Testbed& tb) {
  std::uint64_t n = 0;
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) n += tb.swim_service(e).deaths_declared();
  return n;
}

/// Pool-service RPCs `cl` sent (clients never evict, so episodes that only
/// lose an engine send none).
inline std::uint64_t svc_rpcs_sent(const client::DaosClient& cl) {
  const auto* sent = cl.telemetry().find<telemetry::Counter>("rpc/pool_svc/sent");
  return sent != nullptr ? sent->value() : 0;
}

/// True when `cl`'s pool map shows every target of `engine` EXCLUDED.
inline bool client_sees_excluded(const client::DaosClient& cl, net::NodeId engine) {
  const auto& ts = cl.pool_map().targets;
  return std::all_of(ts.begin(), ts.end(), [engine](const pool::TargetRef& t) {
    return t.engine != engine || t.health == pool::TargetHealth::excluded;
  });
}

}  // namespace daosim::testkit
