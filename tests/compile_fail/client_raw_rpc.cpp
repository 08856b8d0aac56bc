// Every client RPC has a reply deadline: DaosClient's endpoint lives in a
// private nested holder whose only route to RpcEndpoint::call is
// call_with_deadline. DaosClient::endpoint() is const, so no caller reaches
// call through it either; the retry wrappers are the way in.
#include "client/client.hpp"

namespace daosim::client {

sim::CoTask<net::Reply> wrapped(DaosClient& c, net::NodeId dst) {
  (void)c.endpoint().node();
  co_return co_await c.call_retry(dst, engine::kOpPoolSvc, net::Body{}, 128);
}

#if DAOSIM_COMPILE_FAIL == 1
// A DaosClient member reaching past the holder.
sim::CoTask<Result<void>> DaosClient::pool_reint(net::NodeId engine) {
  (void)co_await rpc_.ep_.call(engine, engine::kOpPoolSvc, net::Body{}, 128);
  co_return Result<void>{};
}
#elif DAOSIM_COMPILE_FAIL == 2
sim::CoTask<net::Reply> through_endpoint(DaosClient& c, net::NodeId dst) {
  co_return co_await c.endpoint().call(dst, engine::kOpPoolSvc, net::Body{}, 128);
}
#endif

}  // namespace daosim::client
