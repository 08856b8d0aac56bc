// Fixture: direct-map-query — the typed pool-service MapQuery point query may
// only be issued from client/refresh.cpp (the IV fallback). Every other
// client site must learn map versions passively from reply stamps and pull
// deltas from engines (docs/membership.md). The rule matches the command
// type's name in code, so comment mentions — like this sentence's MapQuery —
// and string literals never fire. The refresh.cpp exemption is path-based and
// therefore not representable in a fixture.
#pragma once

namespace fixture {

struct MapQuery {};  // daosim-lint: allow(direct-map-query): stand-in for pool::MapQuery
struct MapQueryLog {};
struct PoolReint {
  unsigned engine;
};
struct PoolEvict {
  unsigned engine;
};

struct SvcClient {
  template <typename Cmd>
  int run(Cmd cmd);
};

inline void cases(SvcClient& svc) {
  auto a = svc.run(MapQuery{});  // EXPECT-LINT: direct-map-query
  MapQuery q;                    // EXPECT-LINT: direct-map-query
  auto b = svc.run(q);
  using Query = fixture::MapQuery;  // EXPECT-LINT: direct-map-query

  // GOOD: other pool-service commands are not map point queries.
  auto c = svc.run(PoolReint{4});
  auto d = svc.run(PoolEvict{4});
  // GOOD: a longer identifier merely starting with the name, and a string.
  MapQueryLog log;
  const char* label = "MapQuery";

  // GOOD: the one sanctioned bootstrap site may suppress explicitly.
  auto e = svc.run(MapQuery{});  // daosim-lint: allow(direct-map-query): fixture proves the suppression path

  (void)a; (void)b; (void)c; (void)d; (void)e; (void)log; (void)label; (void)sizeof(Query);
}

}  // namespace fixture
