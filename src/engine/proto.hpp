// Wire protocol between the DAOS client library and engines: object I/O
// requests/replies and the pool-service client opcode. Bodies travel in
// net::Body (zero-copy), with wire sizes modelled explicitly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "vos/dtx.hpp"
#include "vos/types.hpp"

namespace daosim::engine {

// Object I/O opcodes (0x20 block; Raft uses 0x10, pool service 0x30).
constexpr std::uint16_t kOpObjUpdate = 0x20;
constexpr std::uint16_t kOpObjFetch = 0x21;
constexpr std::uint16_t kOpObjEnumDkeys = 0x22;
constexpr std::uint16_t kOpObjEnumAkeys = 0x23;
constexpr std::uint16_t kOpObjPunch = 0x24;
constexpr std::uint16_t kOpObjQuery = 0x25;
constexpr std::uint16_t kOpPoolSvc = 0x30;

// Rebuild protocol opcodes (0x40 block): the pool-service leader drives
// surviving engines to scan for under-replicated groups and re-fan the lost
// replicas onto walk-forward targets.
constexpr std::uint16_t kOpRebuildScan = 0x40;
constexpr std::uint16_t kOpRebuildFetch = 0x41;

// DTX protocol opcodes (0x50 block): client-coordinated two-phase commit
// over the participating shards, resolve queries for crash resync, and
// snapshot-floored container aggregation. Served by the engine-side
// DtxService (src/dtx).
constexpr std::uint16_t kOpTxPrepare = 0x50;
constexpr std::uint16_t kOpTxCommit = 0x51;
constexpr std::uint16_t kOpTxAbort = 0x52;
constexpr std::uint16_t kOpTxResolve = 0x53;
constexpr std::uint16_t kOpContAggregate = 0x54;

// SWIM + IV opcodes (0x60 block): engine-to-engine failure-detector probes
// (direct ping and indirect ping-req through a witness) and the incremental
// pool-map delta fetch every engine serves from its locally relayed delta
// log. Served by the engine-side SwimService (src/swim).
constexpr std::uint16_t kOpSwimPing = 0x60;
constexpr std::uint16_t kOpSwimPingReq = 0x61;
constexpr std::uint16_t kOpMapFetch = 0x62;

/// Fixed per-message protocol overhead added to payload sizes.
constexpr std::uint64_t kObjRpcHeader = 256;

/// Wire cost of each additional I/O descriptor in a batched (multi-extent)
/// object RPC: dkey + offset/length + checksum slot, as in a DAOS iod/sgl
/// entry. The first extent rides in the fixed header, so a single-extent
/// batch costs exactly what the unbatched protocol did.
constexpr std::uint64_t kExtentDescBytes = 32;

using Payload = std::shared_ptr<std::vector<std::byte>>;

enum class RecordType : std::uint8_t { array, single_value };

/// One extent of a batched (scatter-gather) array RPC. All extents of a
/// request share the object/akey and one payload buffer; `payload_off` is
/// this extent's offset into it.
struct IoExtent {
  vos::Key dkey;
  std::uint64_t offset = 0;       // offset within the dkey's array
  std::uint64_t length = 0;       // logical bytes
  std::uint64_t payload_off = 0;  // offset into the request/reply payload
};

/// Request wire bytes for an object RPC carrying `extents` descriptors and
/// `payload_bytes` of data (extents == 0 or 1 both mean "no extra
/// descriptors": the legacy single-extent encoding).
constexpr std::uint64_t obj_wire_bytes(std::size_t extents, std::uint64_t payload_bytes) {
  const std::uint64_t extra = extents > 1 ? std::uint64_t(extents - 1) * kExtentDescBytes : 0;
  return kObjRpcHeader + payload_bytes + extra;
}

struct ObjUpdateReq {
  vos::Uuid cont;
  vos::ObjId oid;
  std::uint32_t target = 0;  // target index within the engine
  vos::Key dkey;
  vos::Key akey;
  RecordType type = RecordType::array;
  std::uint64_t offset = 0;  // array only
  std::uint64_t length = 0;  // logical bytes (payload may be null in discard mode)
  Payload data;              // null => metadata-only accounting
  /// Batched (vectorized) encoding: when non-empty, the request carries
  /// these extents instead of the dkey/offset/length above, all applied to
  /// the same target in one service visit. `data` then holds every extent's
  /// bytes at its `payload_off`. Arrays only.
  std::vector<IoExtent> extents;
  std::uint64_t array_end_hint = 0;  // global array high-water mark (0 = none)
  /// Conditional dkey insert (DAOS_COND_DKEY_INSERT): fail with
  /// Errno::exists if the dkey already holds a visible record. Serialises
  /// concurrent create() races on directory entries.
  bool cond_insert = false;
};

struct ObjFetchReq {
  vos::Uuid cont;
  vos::ObjId oid;
  std::uint32_t target = 0;
  vos::Key dkey;
  vos::Key akey;
  RecordType type = RecordType::array;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  /// Batched encoding (see ObjUpdateReq::extents): when non-empty the fetch
  /// reads every extent in one service visit; the reply's payload holds each
  /// extent's bytes at its `payload_off` and `fills` reports per-extent
  /// overlap. Arrays only.
  std::vector<IoExtent> extents;
  vos::Epoch epoch = vos::kEpochMax;
};

struct ObjFetchResp {
  bool exists = false;       // single-value: record present
  std::uint64_t filled = 0;  // array: bytes overlapping written data (batched: total)
  Payload data;              // null in discard mode
  /// Batched fetch: bytes overlapping written data per request extent
  /// (parallel to ObjFetchReq::extents); empty for single-extent requests.
  std::vector<std::uint64_t> fills;
};

struct ObjEnumReq {
  vos::Uuid cont;
  vos::ObjId oid;
  std::uint32_t target = 0;
  vos::Key dkey;  // for akey enumeration
  vos::Epoch epoch = vos::kEpochMax;
};

struct ObjEnumResp {
  std::vector<vos::Key> keys;
};

enum class PunchScope : std::uint8_t { object, dkey, akey };

struct ObjPunchReq {
  vos::Uuid cont;
  vos::ObjId oid;
  std::uint32_t target = 0;
  PunchScope scope = PunchScope::object;
  vos::Key dkey;
  vos::Key akey;
};

enum class QueryKind : std::uint8_t { array_end_hint, dkey_array_size };

struct ObjQueryReq {
  vos::Uuid cont;
  vos::ObjId oid;
  std::uint32_t target = 0;
  QueryKind kind = QueryKind::array_end_hint;
  vos::Key dkey;
  vos::Key akey;
  vos::Epoch epoch = vos::kEpochMax;
};

struct ObjQueryResp {
  std::uint64_t value = 0;
};

/// One object whose redundancy group lost a replica: pull it from the
/// surviving source target and re-materialise it on the walk-forward
/// destination. `src`/`dst` are pool-map target indices.
struct RebuildEntry {
  vos::Uuid cont;
  vos::ObjId oid;
  std::uint32_t group = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  vos::Epoch min_epoch = 0;  // resync: only records newer than this
  /// Apply semantics: eviction rebuild merges under data the destination
  /// already holds (its degraded-window writes are newer than the source
  /// image); a resync overwrites (the source's window writes are newer than
  /// the reintegrated replica's pre-eviction state).
  bool resync = false;
};

/// Leader -> engine. Two phases share the opcode: `assign == false` asks the
/// engine to scan its VOS trees and report entries it is the source for;
/// `assign == true` hands the engine the entries it is the destination for
/// (possibly none — it must still report rebuild_done).
struct RebuildScanReq {
  std::uint32_t version = 0;  // pool map version the task was created at
  bool assign = false;
  bool resync = false;              // reintegration resync (epoch diff) task
  net::NodeId reint_node = 0;       // resync: the engine coming back
  std::uint32_t since_version = 0;  // resync: map version of its eviction
  std::vector<net::NodeId> excluded;
  std::vector<RebuildEntry> entries;  // assign phase only
};

struct RebuildScanResp {
  std::vector<RebuildEntry> entries;
};

/// Destination engine -> source engine: pull one object's records for the
/// given redundancy group.
struct RebuildFetchReq {
  vos::Uuid cont;
  vos::ObjId oid;
  std::uint32_t target = 0;  // source target index within the engine
  std::uint32_t group = 0;
  vos::Epoch min_epoch = 0;
};

struct RebuildRecord {
  vos::Key dkey;
  vos::Key akey;
  RecordType type = RecordType::array;
  std::uint64_t length = 0;
  Payload data;  // null in discard mode
};

struct RebuildFetchResp {
  std::vector<RebuildRecord> records;
  std::uint64_t array_end = 0;  // source's array end hint for the object
  std::uint64_t bytes = 0;      // logical bytes transferred
};

/// One staged write of a transaction, scoped to the receiving shard. Arrays
/// are pre-split into chunk pieces (dkey-relative offsets) by the client.
struct TxOpDesc {
  vos::ObjId oid;
  vos::Key dkey;
  vos::Key akey;
  RecordType type = RecordType::single_value;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t array_end_hint = 0;  // global array high-water mark (0 = none)
  Payload data;                      // null => metadata-only accounting
};

/// Phase 1: stage `ops` at `epoch` on the shard, locking the touched keys.
/// Errno::tx_restart on conflict (the loser restarts with a fresh epoch).
struct TxPrepareReq {
  vos::Uuid cont;
  std::uint64_t tx_client = 0;  // DtxId
  std::uint64_t tx_seq = 0;
  vos::Epoch epoch = 0;
  std::uint32_t target = 0;  // target index within the engine
  std::uint32_t leader = 0;  // pool-map index of the transaction's leader shard
  std::vector<TxOpDesc> ops;
};

/// Phase 2: commit (apply staged ops at the prepare epoch) or abort (drop
/// them). The coordinator sends commit to the leader shard FIRST — its
/// decision-table entry is the durable commit point — then fans out to the
/// other participants. Both opcodes share this body.
struct TxDecideReq {
  vos::Uuid cont;
  std::uint64_t tx_client = 0;
  std::uint64_t tx_seq = 0;
  std::uint32_t target = 0;
};

/// Resync query (participant -> leader shard): what happened to this
/// transaction? Unknown means the leader never saw or already decided and
/// pruned nothing — the asker keeps waiting for the reaper's verdict.
struct TxResolveReq {
  vos::Uuid cont;
  std::uint64_t tx_client = 0;
  std::uint64_t tx_seq = 0;
  std::uint32_t target = 0;
};

struct TxResolveResp {
  vos::DtxState state = vos::DtxState::unknown;
};

/// Client-driven container aggregation on one shard, with `upto` already
/// clamped below the pool's lowest snapshot epoch by the caller.
struct ContAggregateReq {
  vos::Uuid cont;
  std::uint32_t target = 0;
  vos::Epoch upto = 0;
};

/// SWIM gossip: one member's state as known to the sender, piggybacked on
/// every probe and ack. `suspect` carries the suspicion (a member seeing
/// itself suspected refutes by bumping its incarnation).
struct SwimMemberUpdate {
  net::NodeId member = 0;
  std::uint64_t incarnation = 0;
  bool suspect = false;
};

/// Direct probe (kOpSwimPing). The piggyback rides both ways: the request
/// carries the prober's freshest updates, the ack the target's. `map_version`
/// is the sender's cached pool-map version — the IV dissemination signal
/// between engines (clients get the same signal via net::Reply::map_version).
struct SwimPingReq {
  net::NodeId from = 0;
  std::uint32_t map_version = 0;
  std::vector<SwimMemberUpdate> updates;
};

struct SwimPingResp {
  std::uint32_t map_version = 0;
  std::vector<SwimMemberUpdate> updates;
  /// Witness acks only: whether the indirect ping reached the subject.
  /// Always true on a direct ack.
  bool subject_acked = true;
};

/// Indirect probe (kOpSwimPingReq): prober -> witness, asking the witness to
/// ping `subject` on its behalf. The witness's ack relays the subject's
/// piggyback when the indirect ping succeeds.
struct SwimPingReqReq {
  net::NodeId from = 0;
  net::NodeId subject = 0;
  std::uint32_t map_version = 0;
  std::vector<SwimMemberUpdate> updates;
};

/// One committed pool-map membership change, as recorded in the pool
/// service's delta log: at `version` the engine became excluded (eviction)
/// or un-excluded (reintegration).
struct MapDeltaEntry {
  std::uint32_t version = 0;
  net::NodeId engine = 0;
  bool excluded = false;
};

/// IV delta fetch (kOpMapFetch): give me every membership change committed
/// after `since`. Any engine answers from its locally relayed delta log; the
/// pool-service roots answer from the Raft-replicated state machine.
struct MapFetchReq {
  std::uint32_t since = 0;
};

struct MapFetchResp {
  /// The responder's latest map version. May exceed the last delta's version:
  /// rebuild requeues bump the version without changing membership.
  std::uint32_t latest_version = 0;
  std::vector<MapDeltaEntry> deltas;
};

}  // namespace daosim::engine
