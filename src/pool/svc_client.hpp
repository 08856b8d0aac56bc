// SvcClient: the one pool-service client. It owns the replica list, the
// leader cache and the leader-redirect loop, and turns typed commands into
// typed replies. Each caller passes its own send primitive (the client
// library's deadline wrapper, an engine's raw endpoint) and its own retry
// budget; the policy itself lives only here.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "net/rpc.hpp"
#include "pool/svc_cmd.hpp"
#include "sim/co_task.hpp"
#include "sim/scheduler.hpp"

namespace daosim::pool {

class SvcClient {
 public:
  /// Sends one kOpPoolSvc request body to replica `dst`. `command_bytes` is
  /// the encoded command's length, for callers that charge it on the wire.
  using Send = std::function<sim::CoTask<net::Reply>(net::NodeId dst, net::Body body,
                                                     std::uint64_t command_bytes)>;
  /// Per-caller budget: how many sends a call may make, and the pause after
  /// each one that fails.
  struct Retry {
    int attempts = 1;
    sim::Time delay = 0;
  };

  SvcClient(sim::Scheduler& sched, std::vector<net::NodeId> replicas, Retry retry, Send send)
      : sched_(sched), replicas_(std::move(replicas)), retry_(retry), send_(std::move(send)) {}

  const std::vector<net::NodeId>& replicas() const { return replicas_; }
  /// Drops the cached leader (e.g. after this node restarts: the leader may
  /// have moved while it was down).
  void forget_leader() { leader_.reset(); }

  /// Runs `cmd` on the leader. Errno::timed_out when every attempt failed;
  /// otherwise the decoded reply (ENOENT/EEXIST replies as their Errno).
  template <typename Cmd>
  sim::CoTask<Result<typename Cmd::Reply>> run(Cmd cmd) {
    SvcCmd any = cmd;
    Result<std::string> text = co_await round_trip(std::move(any));
    if (!text.ok()) co_return text.error();
    co_return decode_reply<typename Cmd::Reply>(*text);
  }

 private:
  /// The leader-redirect loop: try the cached leader, else replica
  /// `attempt % n`; follow a redirect's hint; pause after every miss.
  sim::CoTask<Result<std::string>> round_trip(SvcCmd cmd);

  sim::Scheduler& sched_;
  std::vector<net::NodeId> replicas_;
  Retry retry_;
  Send send_;
  std::optional<net::NodeId> leader_;  // last replica that answered, or its hint
};

}  // namespace daosim::pool
