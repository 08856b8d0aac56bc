// Direct engine tests: the object RPC handlers, target xstream serialization,
// the stream-context (locality) model, media cost accounting, and conditional
// inserts — exercised against a single engine without the client library.
#include <gtest/gtest.h>

#include <optional>

#include "common/units.hpp"

#include "co_assert.hpp"
#include "engine/engine.hpp"
#include "net/rpc.hpp"

namespace daosim::engine {
namespace {

using net::Body;
using net::Reply;
using sim::CoTask;
using sim::Time;

struct Env {
  Env(EngineConfig ecfg = {}) : fabric(sched, fabric_cfg()), domain(fabric) {
    const auto enode = fabric.add_node(1);
    media = std::make_unique<media::DcpmmInterleaveSet>(sched);
    eng = std::make_unique<Engine>(domain, enode, *media, ecfg);
    client = std::make_unique<net::RpcEndpoint>(domain, fabric.add_node());
  }
  static net::FabricConfig fabric_cfg() {
    net::FabricConfig cfg;
    cfg.latency = 1 * sim::kUs;
    return cfg;
  }
  template <typename F>
  void run(F f) {  // callable, not invoked: keeps the closure alive (CP.51)
    sched.spawn(std::move(f));
    sched.run();
  }

  /// One-extent array update of [off, off + len) in `dkey`, carrying `data`
  /// (null: metadata only).
  CoTask<Reply> update(vos::ObjId oid, std::uint32_t target, std::uint64_t off,
                       std::uint64_t len, vos::Key dkey = "0",
                       std::uint64_t array_end_hint = 0, Payload data = nullptr) {
    ObjUpdateReq req;
    req.cont = vos::Uuid{1, 1};
    req.oid = oid;
    req.target = target;
    req.akey = "0";
    req.extents = {{std::move(dkey), off, len, 0}};
    req.array_end_hint = array_end_hint;
    req.data = std::move(data);
    Body body = Body::make(std::move(req));
    co_return co_await client->call(eng->node(), kOpObjUpdate, std::move(body),
                                    obj_wire_bytes(1, len));
  }

  /// One-extent array fetch of [off, off + len) in dkey "0".
  CoTask<Reply> fetch(vos::ObjId oid, std::uint32_t target, std::uint64_t off,
                      std::uint64_t len) {
    ObjFetchReq req;
    req.cont = vos::Uuid{1, 1};
    req.oid = oid;
    req.target = target;
    req.akey = "0";
    req.extents = {{"0", off, len, 0}};
    Body body = Body::make(std::move(req));
    co_return co_await client->call(eng->node(), kOpObjFetch, std::move(body),
                                    obj_wire_bytes(1, 0));
  }

  sim::Scheduler sched;
  net::Fabric fabric;
  net::RpcDomain domain;
  std::unique_ptr<media::DcpmmInterleaveSet> media;
  std::unique_ptr<Engine> eng;
  std::unique_ptr<net::RpcEndpoint> client;
};

constexpr vos::ObjId kOid{0x0100000000000000ULL, 42};

/// Helper: discard a Reply so WaitGroup tasks type-check.
CoTask<void> drop(CoTask<Reply> t) { (void)co_await std::move(t); }

TEST(Engine, UpdateThenFetchRoundTrip) {
  Env env;
  env.run([&]() -> CoTask<void> {
    Reply w = co_await env.update(kOid, 0, 0, 4096);
    CO_ASSERT_ERRNO(w.status, Errno::ok);
    Reply r = co_await env.fetch(kOid, 0, 0, 4096);
    CO_ASSERT_ERRNO(r.status, Errno::ok);
    const auto& resp = r.body.get<ObjFetchResp>();
    CO_ASSERT_EQ(resp.filled, 4096u);
    CO_ASSERT_TRUE(resp.exists);
  });
  EXPECT_EQ(env.eng->updates_served(), 1u);
  EXPECT_EQ(env.eng->fetches_served(), 1u);
}

/// `len` bytes reading as uint8_t(seed + i).
Payload pattern(std::uint64_t len, std::uint8_t seed) {
  auto buf = std::make_shared<vos::Buffer>(len);
  for (std::uint64_t i = 0; i < len; ++i) (*buf)[i] = std::byte(std::uint8_t(seed + i));
  return buf;
}

std::vector<std::byte> concat(const std::vector<vos::Slice>& slices, std::uint64_t len) {
  std::vector<std::byte> out(len);
  vos::SliceReader(slices).read(out);
  return out;
}

// A store-mode fetch reply holds slices of the target's stored buffers, not
// a copy: overwriting, punching and aggregating the range after the reply
// is served must not change what the reply reads.
TEST(Engine, FetchReplyOutlivesOverwritePunchAndAggregate) {
  Env env;
  constexpr std::uint64_t kLen = 4096;
  const Payload first = pattern(kLen, 1);
  env.run([&]() -> CoTask<void> {
    // Two writes, so the served image spans two stored buffers.
    CO_ASSERT_ERRNO((co_await env.update(kOid, 0, 0, kLen, "0", 0, first)).status, Errno::ok);
    CO_ASSERT_ERRNO((co_await env.update(kOid, 0, 1024, 1024, "0", 0, pattern(1024, 200))).status,
                    Errno::ok);
    Reply r = co_await env.fetch(kOid, 0, 0, kLen);
    CO_ASSERT_ERRNO(r.status, Errno::ok);
    const auto& resp = r.body.get<ObjFetchResp>();
    CO_ASSERT_EQ(resp.filled, kLen);
    std::vector<std::byte> want(first->begin(), first->end());
    for (std::uint64_t i = 0; i < 1024; ++i) want[1024 + i] = std::byte(std::uint8_t(200 + i));
    CO_ASSERT_TRUE(concat(resp.slices, kLen) == want);

    CO_ASSERT_ERRNO((co_await env.update(kOid, 0, 0, kLen, "0", 0, pattern(kLen, 77))).status,
                    Errno::ok);
    ObjPunchReq punch;
    punch.cont = vos::Uuid{1, 1};
    punch.oid = kOid;
    punch.scope = PunchScope::akey;
    punch.dkey = "0";
    punch.akey = "0";
    Reply p = co_await env.client->call(env.eng->node(), kOpObjPunch, Body::make(punch),
                                        kObjRpcHeader);
    CO_ASSERT_ERRNO(p.status, Errno::ok);
    CO_ASSERT_ERRNO((co_await env.update(kOid, 0, 512, 2048, "0", 0, pattern(2048, 9))).status,
                    Errno::ok);
    vos::VosContainer& cont = env.eng->vos_target(0).container(vos::Uuid{1, 1});
    cont.aggregate(cont.current_epoch());
    CO_ASSERT_EQ(cont.stored_bytes(), 2048u);  // only the last write survives

    CO_ASSERT_TRUE(concat(resp.slices, kLen) == want);
    // A fresh fetch sees the new state: the punch, then [512, 2560).
    Reply again = co_await env.fetch(kOid, 0, 0, kLen);
    const auto& now = again.body.get<ObjFetchResp>();
    CO_ASSERT_EQ(now.filled, 2048u);
    const std::vector<std::byte> img = concat(now.slices, kLen);
    CO_ASSERT_EQ(img[0], std::byte{0});
    CO_ASSERT_EQ(img[512], std::byte{9});
    CO_ASSERT_EQ(img[kLen - 1], std::byte{0});
  });
}

// A single-value fetch resolves its record before the media wait; a newer
// put plus an aggregation pass landing inside that wait drop the resolved
// version, and the reply must still carry its bytes. The interfering writer
// is swept across the whole round trip, so some delay lands in the wait.
TEST(Engine, SingleValueFetchOutlivesAggregationDuringMediaWait) {
  const vos::Buffer old_value(64, std::byte{0x11});
  const vos::Buffer new_value(64, std::byte{0x22});
  // One fetch of the record; with `interfere_after`, that long after the
  // fetch is sent a newer value is put and the shard aggregated. Returns
  // the fetched bytes and the fetch's round trip.
  auto trial = [&](std::optional<Time> interfere_after) {
    Env env;
    std::vector<std::byte> got;
    Time rtt = 0;
    env.run([&]() -> CoTask<void> {
      ObjUpdateReq put;
      put.cont = vos::Uuid{1, 1};
      put.oid = kOid;
      put.dkey = "entry";
      put.akey = "e";
      put.type = RecordType::single_value;
      put.length = old_value.size();
      put.data = std::make_shared<const vos::Buffer>(old_value);
      Reply w = co_await env.client->call(env.eng->node(), kOpObjUpdate,
                                          Body::make(std::move(put)),
                                          kObjRpcHeader + old_value.size());
      CO_ASSERT_ERRNO(w.status, Errno::ok);
      const Time t0 = env.sched.now();
      if (interfere_after) {
        env.sched.spawn([&env, &new_value, d = *interfere_after]() -> CoTask<void> {
          co_await env.sched.delay(d);
          vos::VosContainer& cont = env.eng->vos_target(0).container(vos::Uuid{1, 1});
          cont.kv_put(kOid, "entry", "e", new_value, cont.next_epoch());
          cont.aggregate(cont.current_epoch());
        });
      }
      ObjFetchReq req;
      req.cont = vos::Uuid{1, 1};
      req.oid = kOid;
      req.dkey = "entry";
      req.akey = "e";
      req.type = RecordType::single_value;
      Reply r = co_await env.client->call(env.eng->node(), kOpObjFetch, Body::make(req),
                                          kObjRpcHeader);
      CO_ASSERT_ERRNO(r.status, Errno::ok);
      got = r.body.get<ObjFetchResp>().value;
      rtt = env.sched.now() - t0;
    });
    return std::make_pair(got, rtt);
  };
  const auto [undisturbed, rtt] = trial(std::nullopt);
  ASSERT_EQ(undisturbed, old_value);
  ASSERT_GT(rtt, 0u);
  for (Time d = 0; d <= rtt; d += 20) {
    const std::vector<std::byte> got = trial(d).first;
    ASSERT_TRUE(got == old_value || got == new_value) << "interference " << d << " ns in";
  }
}

TEST(Engine, TargetsAreIndependentStores) {
  Env env;
  env.run([&]() -> CoTask<void> {
    (void)co_await env.update(kOid, 0, 0, 128);
    Reply r = co_await env.fetch(kOid, 1, 0, 128);  // other target: nothing
    CO_ASSERT_ERRNO(r.status, Errno::ok);
    CO_ASSERT_EQ(r.body.get<ObjFetchResp>().filled, 0u);
  });
}

TEST(Engine, BadTargetIndexThrows) {
  Env env;
  EXPECT_THROW(env.run([&]() -> CoTask<void> {
                 (void)co_await env.update(kOid, 99, 0, 128);
               }),
               DaosimError);
}

TEST(Engine, StreamContextMissChargesSwitchCost) {
  EngineConfig cfg;
  cfg.stream_contexts = 2;
  cfg.stream_switch_write = 1 * sim::kMs;
  Env env(cfg);
  // Two objects fit; a third keeps evicting -> every access cold.
  env.run([&]() -> CoTask<void> {
    const Time t0 = env.sched.now();
    (void)co_await env.update(vos::ObjId{kOid.hi, 1}, 0, 0, 64);  // miss (new)
    const Time first = env.sched.now() - t0;
    const Time t1 = env.sched.now();
    (void)co_await env.update(vos::ObjId{kOid.hi, 1}, 0, 64, 64);  // hit
    const Time second = env.sched.now() - t1;
    CO_ASSERT_TRUE(first >= 1 * sim::kMs);
    CO_ASSERT_TRUE(second < 1 * sim::kMs);
  });
  EXPECT_EQ(env.eng->shard_cache_misses(), 1u);
}

TEST(Engine, StreamContextLruEvicts) {
  EngineConfig cfg;
  cfg.stream_contexts = 2;
  Env env(cfg);
  env.run([&]() -> CoTask<void> {
    for (std::uint64_t o = 1; o <= 3; ++o) {
      (void)co_await env.update(vos::ObjId{kOid.hi, o}, 0, 0, 64);
    }
    // Object 1 was evicted by 3: touching it again is a miss.
    (void)co_await env.update(vos::ObjId{kOid.hi, 1}, 0, 64, 64);
  });
  EXPECT_EQ(env.eng->shard_cache_misses(), 4u);
}

TEST(Engine, XstreamSerializesPerTargetCpu) {
  EngineConfig cfg;
  cfg.update_cpu = 100 * sim::kUs;
  cfg.stream_switch_write = 0;
  cfg.target_write_bw = 1e12;  // CPU-bound on purpose
  Env env(cfg);
  env.run([&]() -> CoTask<void> {
    sim::WaitGroup wg(env.sched);
    const Time t0 = env.sched.now();
    for (int i = 0; i < 8; ++i) wg.spawn(drop(env.update(kOid, 0, 64ull * i, 64)));
    co_await wg.wait();
    // 8 RPCs through one xstream at 100us each: >= 800us total.
    CO_ASSERT_TRUE(env.sched.now() - t0 >= 800 * sim::kUs);
  });
}

TEST(Engine, DistinctTargetsServeConcurrently) {
  EngineConfig cfg;
  cfg.update_cpu = 100 * sim::kUs;
  cfg.stream_switch_write = 0;
  cfg.target_write_bw = 1e12;
  Env env(cfg);
  env.run([&]() -> CoTask<void> {
    sim::WaitGroup wg(env.sched);
    const Time t0 = env.sched.now();
    for (std::uint32_t t = 0; t < 8; ++t) wg.spawn(drop(env.update(kOid, t, 0, 64)));
    co_await wg.wait();
    // Eight xstreams in parallel: far less than 8 serial CPU slots.
    CO_ASSERT_TRUE(env.sched.now() - t0 < 400 * sim::kUs);
  });
}

TEST(Engine, MediaBytesAccounted) {
  Env env;
  env.run([&]() -> CoTask<void> {
    (void)co_await env.update(kOid, 0, 0, 1 * kMiB);
    (void)co_await env.fetch(kOid, 0, 0, 1 * kMiB);
  });
  EXPECT_GE(env.media->bytes_written(), 1 * kMiB);
  EXPECT_GE(env.media->bytes_read(), 1 * kMiB);
}

TEST(Engine, ConditionalInsertDetectsExisting) {
  Env env;
  env.run([&]() -> CoTask<void> {
    auto put = [&](bool cond) -> CoTask<Reply> {
      ObjUpdateReq req;
      req.cont = vos::Uuid{1, 1};
      req.oid = kOid;
      req.target = 0;
      req.dkey = "entry";
      req.akey = "e";
      req.type = RecordType::single_value;
      req.length = 4;
      req.data = std::make_shared<std::vector<std::byte>>(4, std::byte{1});
      req.cond_insert = cond;
      Body body = Body::make(std::move(req));
      co_return co_await env.client->call(env.eng->node(), kOpObjUpdate, std::move(body),
                                          kObjRpcHeader + 4);
    };
    Reply first = co_await put(true);
    CO_ASSERT_ERRNO(first.status, Errno::ok);
    Reply second = co_await put(true);
    CO_ASSERT_ERRNO(second.status, Errno::exists);
    Reply overwrite = co_await put(false);
    CO_ASSERT_ERRNO(overwrite.status, Errno::ok);
  });
}

TEST(Engine, EnumDkeysReturnsVisibleKeys) {
  Env env;
  env.run([&]() -> CoTask<void> {
    (void)co_await env.update(kOid, 0, 0, 64, "chunk-a");
    (void)co_await env.update(kOid, 0, 0, 64, "chunk-b");
    ObjEnumReq req;
    req.cont = vos::Uuid{1, 1};
    req.oid = kOid;
    req.target = 0;
    Body body = Body::make(std::move(req));
    Reply r = co_await env.client->call(env.eng->node(), kOpObjEnumDkeys, std::move(body),
                                        kObjRpcHeader);
    CO_ASSERT_ERRNO(r.status, Errno::ok);
    CO_ASSERT_EQ(r.body.get<ObjEnumResp>().keys.size(), 2u);
  });
}

TEST(Engine, PunchObjectHidesData) {
  Env env;
  env.run([&]() -> CoTask<void> {
    (void)co_await env.update(kOid, 0, 0, 256);
    ObjPunchReq req;
    req.cont = vos::Uuid{1, 1};
    req.oid = kOid;
    req.target = 0;
    req.scope = PunchScope::object;
    Body body = Body::make(std::move(req));
    Reply p = co_await env.client->call(env.eng->node(), kOpObjPunch, std::move(body),
                                        kObjRpcHeader);
    CO_ASSERT_ERRNO(p.status, Errno::ok);
    Reply r = co_await env.fetch(kOid, 0, 0, 256);
    CO_ASSERT_EQ(r.body.get<ObjFetchResp>().filled, 0u);
  });
}

TEST(Engine, QueryArrayEndHint) {
  Env env;
  env.run([&]() -> CoTask<void> {
    (void)co_await env.update(kOid, 0, 0, 512, "7", /*array_end_hint=*/8 * kMiB);
    ObjQueryReq q;
    q.cont = vos::Uuid{1, 1};
    q.oid = kOid;
    q.target = 0;
    q.kind = QueryKind::array_end_hint;
    Body qbody = Body::make(std::move(q));
    Reply r = co_await env.client->call(env.eng->node(), kOpObjQuery, std::move(qbody),
                                        kObjRpcHeader);
    CO_ASSERT_ERRNO(r.status, Errno::ok);
    CO_ASSERT_EQ(r.body.get<ObjQueryResp>().value, 8 * kMiB);
  });
}

}  // namespace
}  // namespace daosim::engine
