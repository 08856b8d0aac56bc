// DTX value types: the per-shard state a distributed transaction leaves in
// VOS. A prepared entry stages the transaction's writes (invisible to reads
// and locking its keys against concurrent transactions) until the two-phase
// commit decides; the decision table makes commit/abort idempotent and
// answers resolve queries after a crash. See docs/dtx.md.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "vos/slice.hpp"
#include "vos/types.hpp"

namespace daosim::vos {

/// Epochs double as hybrid-logical-clock timestamps: the upper bits carry
/// virtual nanoseconds, the low bits a logical sub-counter. Engines run each
/// shard's epoch clock forward to hlc_base(now) before issuing write epochs
/// (VosContainer::observe_time), so next_epoch() counts within the current
/// nanosecond's logical range. That puts every shard's epochs — and the
/// client-chosen transaction/snapshot epochs below — on one comparable
/// timeline: an epoch cut is a consistent cross-shard snapshot.
constexpr unsigned kHlcLogicalBits = 8;
constexpr Epoch hlc_base(std::uint64_t now_ns) { return Epoch(now_ns) << kHlcLogicalBits; }

/// Client-chosen epochs (DTX commit epochs, snapshot epochs) occupy the
/// upper half of the nanosecond's logical range, keyed by the client node,
/// so they cannot collide with the engines' next_epoch() stream (which
/// stays in the lower half unless a shard issues >127 epochs within one
/// virtual nanosecond).
constexpr Epoch hlc_client(std::uint64_t now_ns, std::uint64_t node) {
  return hlc_base(now_ns) | 0x80 | (node & 0x7F);
}

/// Transaction identifier: the coordinating client's fabric node plus a
/// per-client sequence number (unique cluster-wide, like a DTX UUID).
struct DtxId {
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  auto operator<=>(const DtxId&) const = default;
};

/// unknown = this shard has never seen the transaction (or already pruned
/// it); prepared = staged, awaiting the leader's decision.
enum class DtxState : std::uint8_t { unknown = 0, prepared, committed, aborted };

/// One staged write. Offsets/lengths are dkey-relative (array records);
/// single values carry the payload only.
struct DtxOp {
  ObjId oid;
  Key dkey;
  Key akey;
  bool single_value = true;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t array_end_hint = 0;  // global array high-water mark (0 = none)
  BufferRef data;  // null in discard mode; arrays: adopted at commit
};

/// The prepared-table record for one transaction on one shard.
struct DtxEntry {
  DtxId id;
  Epoch epoch = 0;           // commit epoch chosen by the coordinator
  std::uint32_t leader = 0;  // pool-map target index of the leader shard
  std::uint64_t prepared_at = 0;  // virtual ns at prepare (orphan reaping)
  std::vector<DtxOp> ops;
};

}  // namespace daosim::vos
