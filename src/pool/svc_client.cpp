#include "pool/svc_client.hpp"

namespace daosim::pool {

sim::CoTask<Result<std::string>> SvcClient::round_trip(SvcCmd cmd) {
  DAOSIM_REQUIRE(!replicas_.empty(), "no pool service replicas");
  const std::uint64_t command_bytes = encode(cmd).size();
  for (int attempt = 0; attempt < retry_.attempts; ++attempt) {
    const net::NodeId dst = leader_ ? *leader_ : replicas_[std::size_t(attempt) % replicas_.size()];
    // Hoisted out of the co_await expression: GCC 12 miscompiles non-trivial
    // temporaries nested in co_await argument lists (double destruction).
    net::Body body = net::Body::make(PoolSvcReq{cmd});
    net::Reply r = co_await send_(dst, std::move(body), command_bytes);
    if (r.status == Errno::ok) {
      leader_ = dst;
      co_return std::move(r.body.get<PoolSvcResp>().response);
    }
    leader_.reset();
    if (r.status == Errno::again && r.body.has_value()) {
      leader_ = r.body.get<PoolSvcResp>().leader_hint;
    }
    co_await sched_.delay(retry_.delay);
  }
  co_return Errno::timed_out;
}

}  // namespace daosim::pool
