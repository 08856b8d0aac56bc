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
#include "vos/slice.hpp"
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

/// Wire cost of each additional I/O descriptor in a multi-extent object RPC:
/// dkey + offset/length + checksum slot, as in a DAOS iod/sgl entry. The
/// first extent rides in the fixed header.
constexpr std::uint64_t kExtentDescBytes = 32;

/// A store-mode request payload: the sender's one gather buffer, adopted by
/// the receiving store (see vos/slice.hpp). Never written once sent.
using Payload = vos::BufferRef;

enum class RecordType : std::uint8_t { array, single_value };

/// One extent of an array RPC: every array update and fetch is a
/// scatter-gather batch of these. All extents of a request share the
/// object/akey and one payload buffer; `payload_off` is this extent's
/// offset into it.
struct IoExtent {
  vos::Key dkey;
  std::uint64_t offset = 0;       // offset within the dkey's array
  std::uint64_t length = 0;       // logical bytes
  std::uint64_t payload_off = 0;  // offset into the request/reply payload
};

/// Request wire bytes for an object RPC carrying `extents` descriptors and
/// `payload_bytes` of data: the header plus payload, plus kExtentDescBytes
/// per descriptor after the first (0 and 1 extents cost the same; KV
/// requests carry none).
constexpr std::uint64_t obj_wire_bytes(std::size_t extents, std::uint64_t payload_bytes) {
  const std::uint64_t extra = extents > 1 ? std::uint64_t(extents - 1) * kExtentDescBytes : 0;
  return kObjRpcHeader + payload_bytes + extra;
}

/// An array update carries its ranges in `extents`, all applied to the same
/// target in one service visit, with every extent's bytes in `data` at its
/// `payload_off`. A single-value (KV) update writes `length` bytes of `data`
/// to `dkey`/`akey`.
struct ObjUpdateReq {
  vos::Uuid cont;
  vos::ObjId oid;
  std::uint32_t target = 0;  // target index within the engine
  vos::Key dkey;             // single value only
  vos::Key akey;
  RecordType type = RecordType::array;
  std::uint64_t length = 0;  // single value: logical bytes
  Payload data;              // null => metadata-only accounting
  std::vector<IoExtent> extents;     // array only
  std::uint64_t array_end_hint = 0;  // global array high-water mark (0 = none)
  /// Conditional dkey insert (DAOS_COND_DKEY_INSERT): fail with
  /// Errno::exists if the dkey already holds a visible record. Serialises
  /// concurrent create() races on directory entries. Single values only.
  bool cond_insert = false;
};

/// An array fetch reads every extent in one service visit; the reply's
/// `slices` hold each extent's bytes in extent order and `fills` reports
/// per-extent overlap. A single-value fetch reads `dkey`/`akey`.
struct ObjFetchReq {
  vos::Uuid cont;
  vos::ObjId oid;
  std::uint32_t target = 0;
  vos::Key dkey;  // single value only
  vos::Key akey;
  RecordType type = RecordType::array;
  std::vector<IoExtent> extents;  // array only
  vos::Epoch epoch = vos::kEpochMax;
};

struct ObjFetchResp {
  bool exists = false;       // single value: record present; array: filled > 0
  std::uint64_t filled = 0;  // bytes overlapping written data (array: all extents)
  std::vector<std::byte> value;  // single value: the record's bytes
  /// Array fetch in store mode: the extents' bytes, concatenated in extent
  /// order, as slices of the target's stored buffers (payload-free slices
  /// read as zeros). Empty in discard mode.
  std::vector<vos::Slice> slices;
  /// Array fetch: bytes overlapping written data per request extent
  /// (parallel to ObjFetchReq::extents).
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

using PunchScope = vos::PunchScope;

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

struct RebuildFetchResp {
  std::vector<vos::RecordImage> records;  // the group's records, in tree order
  std::uint64_t array_end = 0;            // source's array end hint for the object
  std::uint64_t bytes = 0;                // logical bytes transferred
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
