// Tests for the simulated fabric and RPC layer.
#include <gtest/gtest.h>

#include "net/fabric.hpp"
#include "net/rpc.hpp"
#include "sim/scheduler.hpp"

namespace daosim::net {
namespace {

using sim::CoTask;
using sim::Time;

FabricConfig test_config() {
  FabricConfig cfg;
  cfg.rail_bytes_per_sec = 1e9;  // 1 byte/ns per rail
  cfg.rails_per_node = 1;
  cfg.latency = 1000;  // 1 us
  cfg.message_header_bytes = 0;
  return cfg;
}

TEST(Fabric, PointToPointTiming) {
  sim::Scheduler s;
  Fabric f(s, test_config());
  auto a = f.add_node();
  auto b = f.add_node();
  Time done = 0;
  s.spawn([&]() -> CoTask<void> {
    co_await f.transfer(a, b, 1'000'000);
    done = s.now();
  });
  s.run();
  // 1us latency + 1MB at 1 byte/ns.
  EXPECT_NEAR(double(done), 1000.0 + 1'000'000.0, 5.0);
}

TEST(Fabric, LoopbackPaysOnlyLatency) {
  sim::Scheduler s;
  Fabric f(s, test_config());
  auto a = f.add_node();
  Time done = 0;
  s.spawn([&]() -> CoTask<void> {
    co_await f.transfer(a, a, 100'000'000);
    done = s.now();
  });
  s.run();
  EXPECT_EQ(done, 500u);  // half the fabric latency
}

TEST(Fabric, ControlLanePaysLatencyOnlyAndTakesNoBandwidth) {
  sim::Scheduler s;
  Fabric f(s, test_config());
  auto a = f.add_node();
  auto b = f.add_node();
  Time bulk_done = 0, control_done = 0;
  s.spawn([&]() -> CoTask<void> {
    co_await f.transfer(a, b, 1'000'000);
    bulk_done = s.now();
  });
  s.spawn([&]() -> CoTask<void> {
    co_await f.transfer(a, b, 1'000'000, {}, Lane::control);
    control_done = s.now();
  });
  s.run();
  EXPECT_EQ(control_done, 1000u);
  // The bulk transfer keeps the whole link, exactly as if it were alone.
  EXPECT_NEAR(double(bulk_done), 1000.0 + 1'000'000.0, 5.0);
  // Both still count as traffic.
  EXPECT_EQ(f.messages_sent(), 2u);
  EXPECT_EQ(f.bytes_sent(a), 2'000'000u);
}

TEST(Fabric, EgressContentionHalvesThroughput) {
  sim::Scheduler s;
  Fabric f(s, test_config());
  auto a = f.add_node();
  auto b = f.add_node();
  auto c = f.add_node();
  Time done = 0;
  auto send = [&](NodeId dst) -> CoTask<void> {
    co_await f.transfer(a, dst, 1'000'000);
    done = std::max(done, s.now());
  };
  s.spawn(send(b));
  s.spawn(send(c));
  s.run();
  // Both leave through a's egress: 2 MB at 1 byte/ns.
  EXPECT_NEAR(double(done), 1000.0 + 2'000'000.0, 10.0);
}

TEST(Fabric, FullDuplexDoesNotContend) {
  sim::Scheduler s;
  Fabric f(s, test_config());
  auto a = f.add_node();
  auto b = f.add_node();
  Time done = 0;
  auto xfer = [&](NodeId src, NodeId dst) -> CoTask<void> {
    co_await f.transfer(src, dst, 1'000'000);
    done = std::max(done, s.now());
  };
  s.spawn(xfer(a, b));
  s.spawn(xfer(b, a));
  s.run();
  // Opposite directions use separate ingress/egress pipes (switch is 2x).
  EXPECT_NEAR(double(done), 1000.0 + 1'000'000.0, 10.0);
}

TEST(Fabric, DistinctPairsRunAtFullRate) {
  sim::Scheduler s;
  Fabric f(s, test_config());
  std::vector<NodeId> n;
  for (int i = 0; i < 4; ++i) n.push_back(f.add_node());
  Time done = 0;
  auto xfer = [&](NodeId src, NodeId dst) -> CoTask<void> {
    co_await f.transfer(src, dst, 1'000'000);
    done = std::max(done, s.now());
  };
  s.spawn(xfer(n[0], n[1]));
  s.spawn(xfer(n[2], n[3]));
  s.run();
  EXPECT_NEAR(double(done), 1000.0 + 1'000'000.0, 10.0);
}

TEST(Fabric, HeaderBytesAreCharged) {
  sim::Scheduler s;
  auto cfg = test_config();
  cfg.message_header_bytes = 128;
  Fabric f(s, cfg);
  auto a = f.add_node();
  auto b = f.add_node();
  s.spawn([&]() -> CoTask<void> { co_await f.transfer(a, b, 1000); });
  s.run();
  EXPECT_EQ(f.bytes_sent(a), 1128u);
}

TEST(Fabric, SwitchCapacityLimitsAggregate) {
  sim::Scheduler s;
  auto cfg = test_config();
  cfg.switch_bytes_per_sec = 1e9;  // same as one NIC: aggregate bottleneck
  Fabric f(s, cfg);
  std::vector<NodeId> n;
  for (int i = 0; i < 4; ++i) n.push_back(f.add_node());
  Time done = 0;
  auto xfer = [&](NodeId src, NodeId dst) -> CoTask<void> {
    co_await f.transfer(src, dst, 1'000'000);
    done = std::max(done, s.now());
  };
  s.spawn(xfer(n[0], n[1]));
  s.spawn(xfer(n[2], n[3]));
  s.run();
  // Two disjoint pairs but the shared core switch caps them at 1 byte/ns.
  EXPECT_NEAR(double(done), 1000.0 + 2'000'000.0, 10.0);
}

// ---------------------------------------------------------------------------
// RPC

constexpr std::uint16_t kEcho = 1;
constexpr std::uint16_t kAdd = 2;

TEST(Rpc, RoundTripWithHandler) {
  sim::Scheduler s;
  Fabric f(s, test_config());
  RpcDomain dom(f);
  RpcEndpoint client(dom, f.add_node());
  RpcEndpoint server(dom, f.add_node());

  server.register_handler(kEcho, [&](Request req) -> CoTask<Reply> {
    co_return Reply{Errno::ok, req.wire_bytes, std::move(req.body)};
  });

  std::string got;
  Time done = 0;
  s.spawn([&]() -> CoTask<void> {
    Reply r = co_await client.call(server.node(), kEcho, Body::make(std::string("ping")), 1000);
    got = r.body.get<std::string>();
    done = s.now();
  });
  s.run();
  EXPECT_EQ(got, "ping");
  // Two fabric traversals: 2 * (latency + 1000 bytes).
  EXPECT_NEAR(double(done), 2 * (1000.0 + 1000.0), 10.0);
}

TEST(Rpc, HandlerComputesOnServer) {
  sim::Scheduler s;
  Fabric f(s, test_config());
  RpcDomain dom(f);
  RpcEndpoint client(dom, f.add_node());
  RpcEndpoint server(dom, f.add_node());

  server.register_handler(kAdd, [&](Request req) -> CoTask<Reply> {
    auto [x, y] = req.body.get<std::pair<int, int>>();
    co_await s.delay(500);  // server CPU time
    co_return Reply{Errno::ok, 8, Body::make(x + y)};
  });

  int sum = 0;
  s.spawn([&]() -> CoTask<void> {
    Reply r = co_await client.call(server.node(), kAdd, Body::make(std::make_pair(20, 22)), 16);
    sum = r.body.get<int>();
  });
  s.run();
  EXPECT_EQ(sum, 42);
}

TEST(Rpc, UnknownOpcodeReturnsNotSupported) {
  sim::Scheduler s;
  Fabric f(s, test_config());
  RpcDomain dom(f);
  RpcEndpoint client(dom, f.add_node());
  RpcEndpoint server(dom, f.add_node());
  Errno status = Errno::ok;
  s.spawn([&]() -> CoTask<void> {
    Reply r = co_await client.call(server.node(), 999, {}, 16);
    status = r.status;
  });
  s.run();
  EXPECT_EQ(status, Errno::not_supported);
}

TEST(Rpc, DownNodeTimesOut) {
  sim::Scheduler s;
  Fabric f(s, test_config());
  RpcDomain dom(f);
  RpcEndpoint client(dom, f.add_node());
  RpcEndpoint server(dom, f.add_node());
  server.register_handler(kEcho, [](Request req) -> CoTask<Reply> {
    co_return Reply{Errno::ok, 0, std::move(req.body)};
  });
  server.set_down(true);
  Errno status = Errno::ok;
  s.spawn([&]() -> CoTask<void> {
    Reply r = co_await client.call(server.node(), kEcho, {}, 16);
    status = r.status;
  });
  s.run();
  EXPECT_EQ(status, Errno::timed_out);
  EXPECT_GE(s.now(), kRpcTimeout);
}

TEST(Rpc, ManyConcurrentCallsAllServed) {
  sim::Scheduler s;
  Fabric f(s, test_config());
  RpcDomain dom(f);
  RpcEndpoint client(dom, f.add_node());
  RpcEndpoint server(dom, f.add_node());
  server.register_handler(kEcho, [](Request req) -> CoTask<Reply> {
    co_return Reply{Errno::ok, 64, std::move(req.body)};
  });
  int ok = 0;
  for (int i = 0; i < 64; ++i) {
    s.spawn([&]() -> CoTask<void> {
      Reply r = co_await client.call(server.node(), kEcho, Body::make(1), 64);
      if (r.status == Errno::ok) ++ok;
    });
  }
  s.run();
  EXPECT_EQ(ok, 64);
  EXPECT_EQ(server.calls_served(), 64u);
  EXPECT_EQ(client.calls_made(), 64u);
}

}  // namespace
}  // namespace daosim::net
