// VosContainer's distributed-transaction tables (vos_dtx equivalent): the
// prepared table stages a transaction's writes invisibly and locks its keys;
// the decision table makes phase-2 RPCs idempotent and survives for resolve
// queries after crashes. Staged ops apply through the regular put/write
// paths at the transaction's epoch, so committed state is indistinguishable
// from plain writes (rebuild, aggregation and reads need no DTX awareness).
#include <algorithm>

#include "vos/container.hpp"

namespace daosim::vos {

Epoch VosContainer::akey_latest_epoch(ObjId oid, const Key& dkey, const Key& akey) const {
  const ObjectNode* o = find_obj(oid);
  if (o == nullptr) return 0;
  ++tree_stats_.lookups;
  const auto* dk = const_cast<ObjectNode*>(o)->dkeys.find(dkey);
  if (dk == nullptr) return o->punches.latest();
  ++tree_stats_.lookups;
  const auto* ak = (*dk)->akeys.find(akey);
  const Epoch path = std::max(o->punches.latest(), (*dk)->punches.latest());
  if (ak == nullptr) return path;
  const AkeyNode& a = **ak;
  return std::max({path, a.punches.latest(), a.sv.latest_epoch(), a.arr.latest_epoch()});
}

Errno VosContainer::dtx_prepare(DtxEntry entry) {
  const auto dit = dtx_decisions_.find(entry.id);
  if (dit != dtx_decisions_.end()) {
    // A retried prepare raced past the decision (lost reply): committed means
    // the work is already durable; aborted stays aborted.
    return dit->second == DtxState::committed ? Errno::ok : Errno::tx_restart;
  }
  if (dtx_prepared_.contains(entry.id)) return Errno::ok;  // duplicate prepare
  for (const DtxOp& op : entry.ops) {
    // Write-write conflict with another in-flight transaction: every
    // prepared op holds a lock on its (oid, dkey, akey).
    for (const auto& [id, other] : dtx_prepared_) {
      for (const DtxOp& held : other.ops) {
        if (held.oid == op.oid && held.dkey == op.dkey && held.akey == op.akey) {
          return Errno::tx_restart;
        }
      }
    }
    // Lost-update conflict: a committed record newer than the transaction's
    // epoch would be shadowed by committing under it. Equal epochs conflict
    // too: hlc_client keys client epochs by only 7 node bits, so two clients
    // whose node ids collide mod 128 can mint the same epoch within one
    // virtual nanosecond — committing would silently overwrite the earlier
    // value (insert_sorted replaces same-epoch records) instead of losing
    // the race detectably.
    if (akey_latest_epoch(op.oid, op.dkey, op.akey) >= entry.epoch) return Errno::tx_restart;
  }
  dtx_prepared_.emplace(entry.id, std::move(entry));
  return Errno::ok;
}

void VosContainer::apply_dtx_op(const DtxOp& op, Epoch epoch) {
  if (op.single_value) {
    kv_put(op.oid, op.dkey, op.akey,
           op.data != nullptr ? std::span<const std::byte>(*op.data)
                              : std::span<const std::byte>{},
           epoch);
    return;
  }
  array_write(op.oid, op.dkey, op.akey, op.offset, Slice{op.data, 0, op.length}, epoch);
  if (op.array_end_hint > 0) note_array_end(op.oid, op.array_end_hint);
}

bool VosContainer::dtx_commit(const DtxId& id) {
  const auto dit = dtx_decisions_.find(id);
  if (dit != dtx_decisions_.end()) return dit->second == DtxState::committed;
  dtx_decisions_[id] = DtxState::committed;
  const auto pit = dtx_prepared_.find(id);
  if (pit != dtx_prepared_.end()) {
    const DtxEntry entry = std::move(pit->second);
    dtx_prepared_.erase(pit);
    // The staged epoch may sit below epochs the clock issued since prepare
    // (the value stores insert sorted); the clock itself never goes back.
    observe_time(entry.epoch);
    for (const DtxOp& op : entry.ops) apply_dtx_op(op, entry.epoch);
  }
  return true;
}

void VosContainer::dtx_abort(const DtxId& id) {
  const auto dit = dtx_decisions_.find(id);
  if (dit != dtx_decisions_.end()) return;  // sticky: a decision never flips
  dtx_decisions_[id] = DtxState::aborted;
  dtx_prepared_.erase(id);
}

DtxState VosContainer::dtx_state(const DtxId& id) const {
  if (dtx_prepared_.contains(id)) return DtxState::prepared;
  const auto dit = dtx_decisions_.find(id);
  return dit != dtx_decisions_.end() ? dit->second : DtxState::unknown;
}

const DtxEntry* VosContainer::dtx_find_prepared(const DtxId& id) const {
  const auto it = dtx_prepared_.find(id);
  return it != dtx_prepared_.end() ? &it->second : nullptr;
}

std::vector<DtxId> VosContainer::dtx_prepared_ids() const {
  std::vector<DtxId> ids;
  ids.reserve(dtx_prepared_.size());
  for (const auto& [id, entry] : dtx_prepared_) ids.push_back(id);
  return ids;
}

Epoch VosContainer::dtx_min_prepared_epoch() const {
  Epoch floor = kEpochMax;
  for (const auto& [id, entry] : dtx_prepared_) floor = std::min(floor, entry.epoch);
  return floor;
}

}  // namespace daosim::vos
