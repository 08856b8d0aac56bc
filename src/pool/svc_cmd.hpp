// Typed pool-service commands and their one text codec.
//
// Every pool-service request is one SvcCmd alternative; each names its typed
// Reply. The Raft log, its snapshots and the kOpPoolSvc reply still carry the
// line-oriented text below (deterministic, and charged on the wire by its
// length), but only this codec reads or writes it:
//
//   command                                    reply text (error replies are
//                                              the errno name: "ENOENT", ...)
//   cont_create <hi> <lo> <chunk> <oclass>     "ok" | "EEXIST"
//   cont_open <hi> <lo>                        "ok <chunk> <oclass>" | "ENOENT"
//   cont_destroy <hi> <lo>                     "ok" | "ENOENT"
//   alloc_oids <hi> <lo> <count>               "ok <base>" | "ENOENT"
//   list_conts                                 "ok <n> <hi> <lo> ..."
//   pool_evict <engine>                        "ok <map_version>"   (idempotent)
//   pool_reint <engine>                        "ok <map_version>"   (idempotent)
//   rebuild_done <engine> <version>            "ok" | "ok dup" | "ok stale"
//   snap_create <hi> <lo> <epoch>              "ok" | "ENOENT"
//   snap_destroy <hi> <lo> <epoch>             "ok" | "ENOENT"
//   snap_list <hi> <lo>                        "ok <n> <epoch> ..." | "ENOENT"
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "pool/pool_map.hpp"

namespace daosim::pool {

// --- Replies ---

/// Reply of commands that only succeed or fail.
struct Ack {
  bool operator==(const Ack&) const = default;
};

/// rebuild_done outcome: counted, a duplicate report, or a report for a
/// task that no longer exists. All three are successes for the reporter.
enum class RebuildAck { done, dup, stale };

// --- Commands ---

struct ContCreate {
  static constexpr std::string_view kOp = "cont_create";
  using Reply = Ack;
  vos::Uuid cont;
  ContProps props;
  bool operator==(const ContCreate&) const = default;
};

struct ContOpen {
  static constexpr std::string_view kOp = "cont_open";
  using Reply = ContProps;
  vos::Uuid cont;
  bool operator==(const ContOpen&) const = default;
};

struct ContDestroy {
  static constexpr std::string_view kOp = "cont_destroy";
  using Reply = Ack;
  vos::Uuid cont;
  bool operator==(const ContDestroy&) const = default;
};

struct AllocOids {
  static constexpr std::string_view kOp = "alloc_oids";
  using Reply = std::uint64_t;  // first id of the allocated range
  vos::Uuid cont;
  std::uint64_t count = 0;
  bool operator==(const AllocOids&) const = default;
};

struct ListConts {
  static constexpr std::string_view kOp = "list_conts";
  using Reply = std::vector<vos::Uuid>;
  bool operator==(const ListConts&) const = default;
};

struct PoolEvict {
  static constexpr std::string_view kOp = "pool_evict";
  using Reply = std::uint32_t;  // map version after the eviction
  net::NodeId engine = 0;
  bool operator==(const PoolEvict&) const = default;
};

struct PoolReint {
  static constexpr std::string_view kOp = "pool_reint";
  using Reply = std::uint32_t;  // map version after the reintegration
  net::NodeId engine = 0;
  bool operator==(const PoolReint&) const = default;
};

struct RebuildDone {
  static constexpr std::string_view kOp = "rebuild_done";
  using Reply = RebuildAck;
  net::NodeId engine = 0;
  std::uint32_t version = 0;
  bool operator==(const RebuildDone&) const = default;
};

struct SnapCreate {
  static constexpr std::string_view kOp = "snap_create";
  using Reply = Ack;
  vos::Uuid cont;
  vos::Epoch epoch = 0;
  bool operator==(const SnapCreate&) const = default;
};

struct SnapDestroy {
  static constexpr std::string_view kOp = "snap_destroy";
  using Reply = Ack;
  vos::Uuid cont;
  vos::Epoch epoch = 0;
  bool operator==(const SnapDestroy&) const = default;
};

struct SnapList {
  static constexpr std::string_view kOp = "snap_list";
  using Reply = std::vector<vos::Epoch>;  // ascending
  vos::Uuid cont;
  bool operator==(const SnapList&) const = default;
};

using SvcCmd = std::variant<ContCreate, ContOpen, ContDestroy, AllocOids, ListConts, PoolEvict,
                            PoolReint, RebuildDone, SnapCreate, SnapDestroy, SnapList>;

// --- Codec ---

std::string encode(const SvcCmd& cmd);
/// Errno::invalid for an unknown op, a missing or malformed argument, or
/// trailing text.
Result<SvcCmd> decode(std::string_view text);

/// Reply text for a typed result: "ok[ <fields>]" or the errno name.
template <typename R>
std::string encode_reply(const Result<R>& reply);
/// Inverse of encode_reply. ENOENT/EEXIST/EINVAL map back to their Errno;
/// anything else that is not a well-formed "ok" reply is Errno::io.
template <typename R>
Result<R> decode_reply(std::string_view text);

// --- Wire bodies (kOpPoolSvc) ---

struct PoolSvcReq {
  SvcCmd cmd;
};

struct PoolSvcResp {
  std::string response;                      // encoded reply, when ok
  std::optional<net::NodeId> leader_hint{};  // when redirected
};

}  // namespace daosim::pool
