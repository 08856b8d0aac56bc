#include "vos/container.hpp"

#include <algorithm>

namespace daosim::vos {

void VosContainer::PunchLog::add(Epoch epoch) {
  const auto pos = std::lower_bound(punches_.begin(), punches_.end(), epoch);
  if (pos == punches_.end() || *pos != epoch) punches_.insert(pos, epoch);
}

Epoch VosContainer::PunchLog::at(Epoch epoch) const {
  if (punches_.empty()) return 0;
  const auto it = std::upper_bound(punches_.begin(), punches_.end(), epoch);
  return it == punches_.begin() ? 0 : *std::prev(it);
}

void VosContainer::PunchLog::aggregate(Epoch upto) {
  const auto keep = std::upper_bound(punches_.begin(), punches_.end(), upto);
  if (keep != punches_.begin()) punches_.erase(punches_.begin(), std::prev(keep));
}

VosContainer::ObjectNode& VosContainer::obj(ObjId oid) {
  ++tree_stats_.lookups;
  if (auto* p = objects_.find(oid)) return **p;
  auto node = std::make_unique<ObjectNode>();
  auto* raw = node.get();
  ++tree_stats_.inserts;
  objects_.insert_or_assign(oid, std::move(node));
  return *raw;
}

const VosContainer::ObjectNode* VosContainer::find_obj(ObjId oid) const {
  ++tree_stats_.lookups;
  const auto* p = objects_.find(oid);
  return p != nullptr ? p->get() : nullptr;
}

VosContainer::AkeyNode& VosContainer::akey_node(ObjId oid, const Key& dkey, const Key& akey) {
  return akey_node_in(obj(oid), dkey, akey);
}

VosContainer::DkeyNode& VosContainer::dkey_node_in(ObjectNode& o, const Key& dkey) {
  ++tree_stats_.lookups;
  if (auto* p = o.dkeys.find(dkey)) return **p;
  auto node = std::make_unique<DkeyNode>();
  auto* raw = node.get();
  ++tree_stats_.inserts;
  o.dkeys.insert_or_assign(dkey, std::move(node));
  return *raw;
}

VosContainer::AkeyNode& VosContainer::akey_node_in(ObjectNode& o, const Key& dkey,
                                                   const Key& akey) {
  DkeyNode* dk = &dkey_node_in(o, dkey);
  ++tree_stats_.lookups;
  if (auto* p = dk->akeys.find(akey)) return **p;
  auto node = std::make_unique<AkeyNode>();
  auto* raw = node.get();
  // Array visibility probes count into this container's stats (the node's
  // address is stable — unique_ptr — and the container is pinned in place).
  raw->arr.bind_probe_counter(&tree_stats_.extent_probes);
  ++tree_stats_.inserts;
  dk->akeys.insert_or_assign(akey, std::move(node));
  return *raw;
}

VosContainer::FoundAkey VosContainer::find_akey(ObjId oid, const Key& dkey, const Key& akey,
                                                Epoch epoch) const {
  const auto* o = find_obj(oid);
  if (o == nullptr) return {};
  return find_akey_in(*o, o->punches.at(epoch), dkey, akey, epoch);
}

VosContainer::FoundAkey VosContainer::find_akey_in(const ObjectNode& o, Epoch obj_floor,
                                                   const Key& dkey, const Key& akey,
                                                   Epoch epoch) const {
  ++tree_stats_.lookups;
  const auto* dk = const_cast<ObjectNode&>(o).dkeys.find(dkey);
  if (dk == nullptr) return {};
  ++tree_stats_.lookups;
  const auto* ak = (*dk)->akeys.find(akey);
  if (ak == nullptr) return {};
  const AkeyNode* a = ak->get();
  return {a, std::max({obj_floor, (*dk)->punches.at(epoch), a->punches.at(epoch)})};
}

void VosContainer::array_write(ObjId oid, const Key& dkey, const Key& akey,
                               std::uint64_t offset, Slice data, Epoch epoch) {
  AkeyNode& a = akey_node(oid, dkey, akey);
  DAOSIM_REQUIRE(!a.has_sv, "akey already holds a single value");
  a.has_arr = true;
  logical_bytes_ += data.length;
  a.arr.write(offset, std::move(data), epoch, mode_);
}

void VosContainer::array_write_extents(ObjId oid, const Key& akey,
                                       std::span<const ArrayExtent> extents,
                                       const BufferRef& payload) {
  if (extents.empty()) return;
  ObjectNode& o = obj(oid);  // one object-table descent for the whole batch
  for (const ArrayExtent& e : extents) {
    AkeyNode& a = akey_node_in(o, e.dkey, akey);
    DAOSIM_REQUIRE(!a.has_sv, "akey already holds a single value");
    a.has_arr = true;
    // One epoch per extent: versioning identical to N separate updates.
    a.arr.write(e.offset, Slice{payload, e.payload_off, e.length}, next_epoch(), mode_);
    logical_bytes_ += e.length;
  }
}

std::uint64_t VosContainer::array_read_extents(ObjId oid, const Key& akey,
                                               std::span<const ArrayExtent> extents,
                                               std::vector<Slice>* slices,
                                               std::span<std::uint64_t> fills,
                                               Epoch epoch) const {
  DAOSIM_REQUIRE(fills.size() == extents.size(), "per-extent fill slots mismatch");
  std::uint64_t total = 0;
  const ObjectNode* o = find_obj(oid);
  const Epoch obj_floor = o != nullptr ? o->punches.at(epoch) : 0;
  for (std::size_t i = 0; i < extents.size(); ++i) {
    const ArrayExtent& e = extents[i];
    const FoundAkey f =
        o != nullptr ? find_akey_in(*o, obj_floor, e.dkey, akey, epoch) : FoundAkey{};
    const AkeyNode* a = f.node;
    std::uint64_t filled = 0;
    if (a == nullptr || !a->has_arr) {
      if (slices != nullptr) slices->push_back(Slice{nullptr, 0, e.length});  // a hole
    } else if (slices != nullptr) {
      filled = a->arr.read_slices(e.offset, e.length, epoch, *slices, f.floor);
    } else {
      // Discard mode: fill state from extent metadata only.
      const std::uint64_t sz = a->arr.size(epoch, f.floor);
      filled = sz > e.offset ? std::min(e.length, sz - e.offset) : 0;
    }
    fills[i] = filled;
    total += filled;
  }
  return total;
}

std::uint64_t VosContainer::array_size(ObjId oid, const Key& dkey, const Key& akey,
                                       Epoch epoch) const {
  const FoundAkey f = find_akey(oid, dkey, akey, epoch);
  return (f.node != nullptr && f.node->has_arr) ? f.node->arr.size(epoch, f.floor) : 0;
}

void VosContainer::kv_put(ObjId oid, const Key& dkey, const Key& akey,
                          std::span<const std::byte> value, Epoch epoch) {
  AkeyNode& a = akey_node(oid, dkey, akey);
  DAOSIM_REQUIRE(!a.has_arr, "akey already holds array records");
  a.has_sv = true;
  a.sv.put(value, epoch);
  logical_bytes_ += value.size();
}

SingleValueStore::View VosContainer::kv_get(ObjId oid, const Key& dkey, const Key& akey,
                                            Epoch epoch) const {
  const FoundAkey f = find_akey(oid, dkey, akey, epoch);
  if (f.node == nullptr || !f.node->has_sv) return {};
  return f.node->sv.get(epoch, f.floor);
}

void VosContainer::punch(ObjId oid, PunchScope scope, const Key& dkey, const Key& akey,
                         Epoch epoch) {
  ObjectNode& o = obj(oid);
  switch (scope) {
    case PunchScope::object:
      o.punches.add(epoch);
      o.array_end_hint = 0;
      break;
    case PunchScope::dkey: dkey_node_in(o, dkey).punches.add(epoch); break;
    case PunchScope::akey: akey_node_in(o, dkey, akey).punches.add(epoch); break;
  }
}

bool VosContainer::akey_visible(const AkeyNode& a, Epoch epoch, Epoch floor) {
  floor = std::max(floor, a.punches.at(epoch));
  if (a.has_sv && a.sv.get(epoch, floor).exists) return true;
  return a.has_arr && a.arr.size(epoch, floor) > 0;
}

std::vector<Key> VosContainer::list_dkeys(ObjId oid, Epoch epoch) const {
  std::vector<Key> out;
  const auto* o = find_obj(oid);
  if (o == nullptr) return out;
  const Epoch obj_floor = o->punches.at(epoch);
  auto& dkeys = const_cast<ObjectNode*>(o)->dkeys;
  for (auto it = dkeys.begin(); it != dkeys.end(); ++it) {
    const Epoch floor = std::max(obj_floor, it.value()->punches.at(epoch));
    auto& akeys = it.value()->akeys;
    for (auto ait = akeys.begin(); ait != akeys.end(); ++ait) {
      if (akey_visible(*ait.value(), epoch, floor)) {
        out.push_back(it.key());
        break;
      }
    }
  }
  return out;
}

std::vector<Key> VosContainer::list_akeys(ObjId oid, const Key& dkey, Epoch epoch) const {
  std::vector<Key> out;
  const auto* o = find_obj(oid);
  if (o == nullptr) return out;
  auto* dk = const_cast<ObjectNode*>(o)->dkeys.find(dkey);
  if (dk == nullptr) return out;
  const Epoch floor = std::max(o->punches.at(epoch), (*dk)->punches.at(epoch));
  for (auto it = (*dk)->akeys.begin(); it != (*dk)->akeys.end(); ++it) {
    if (akey_visible(*it.value(), epoch, floor)) out.push_back(it.key());
  }
  return out;
}

std::vector<ObjId> VosContainer::list_objects() const {
  std::vector<ObjId> out;
  auto& objects = const_cast<BPlusTree<ObjId, std::unique_ptr<ObjectNode>>&>(objects_);
  for (auto it = objects.begin(); it != objects.end(); ++it) out.push_back(it.key());
  return out;
}

void VosContainer::note_array_end(ObjId oid, std::uint64_t global_end) {
  ObjectNode& o = obj(oid);
  o.array_end_hint = std::max(o.array_end_hint, global_end);
}

std::uint64_t VosContainer::array_end_hint(ObjId oid) const {
  const auto* o = find_obj(oid);
  return o != nullptr ? o->array_end_hint : 0;
}

VosContainer::AggregateResult VosContainer::aggregate(Epoch upto) {
  // Undecided transactions pin aggregation: a prepared entry may still
  // commit at its (older) epoch, which must not land below merged state.
  const Epoch dtx_floor = dtx_min_prepared_epoch();
  if (dtx_floor != kEpochMax && dtx_floor > 0) upto = std::min(upto, dtx_floor - 1);
  AggregateResult total;
  total.upto = upto;
  // Each store drops what the path floor at `upto` hides, then each log
  // folds to its newest punch <= upto, which keeps that floor.
  for (auto oit = objects_.begin(); oit != objects_.end(); ++oit) {
    ObjectNode& o = *oit.value();
    const Epoch obj_floor = o.punches.at(upto);
    for (auto dit = o.dkeys.begin(); dit != o.dkeys.end(); ++dit) {
      DkeyNode& dk = *dit.value();
      const Epoch dkey_floor = std::max(obj_floor, dk.punches.at(upto));
      for (auto ait = dk.akeys.begin(); ait != dk.akeys.end(); ++ait) {
        AkeyNode& a = *ait.value();
        const Epoch floor = std::max(dkey_floor, a.punches.at(upto));
        if (a.has_sv) a.sv.aggregate(upto, floor);
        if (a.has_arr) {
          // The store reports retired extents directly — no before/after
          // extent_count() rescan per record.
          const ArrayStore::AggResult r = a.arr.aggregate(upto, floor);
          tree_stats_.extent_merges += r.extents_retired;
          total.extents_retired += r.extents_retired;
          total.bytes_flattened += r.bytes_flattened;
        }
        a.punches.aggregate(upto);
      }
      dk.punches.aggregate(upto);
    }
    o.punches.aggregate(upto);
  }
  return total;
}

std::vector<RecordImage> VosContainer::export_object(ObjId oid, Epoch min_epoch) const {
  std::vector<RecordImage> out;
  const ObjectNode* o = find_obj(oid);
  if (o == nullptr) return out;
  // A node's newest punch newer than the mark is carried as a punch record:
  // the destination applies it at its task floor, where it hides exactly
  // the state the image supersedes.
  auto punched = [&](const PunchLog& log, const Key& dkey, const Key& akey, bool is_array,
                     PunchScope scope) {
    if (log.latest() > min_epoch) out.push_back(RecordImage{dkey, akey, is_array, 0, {}, scope});
  };
  punched(o->punches, {}, {}, false, PunchScope::object);
  auto& dkeys = const_cast<ObjectNode*>(o)->dkeys;
  for (auto dit = dkeys.begin(); dit != dkeys.end(); ++dit) {
    const Key& dkey = dit.key();
    const DkeyNode& dk = *dit.value();
    // Only KV handles punch single dkeys, so a dkey punch routes as a KV one.
    punched(dk.punches, dkey, {}, false, PunchScope::dkey);
    const Epoch dkey_floor = std::max(o->punches.latest(), dk.punches.latest());
    auto& akeys = const_cast<DkeyNode&>(dk).akeys;
    for (auto ait = akeys.begin(); ait != akeys.end(); ++ait) {
      const Key& akey = ait.key();
      const AkeyNode& a = *ait.value();
      punched(a.punches, dkey, akey, a.has_arr, PunchScope::akey);
      const Epoch floor = std::max(dkey_floor, a.punches.latest());
      if (a.has_arr && a.arr.latest_epoch() > min_epoch) {
        const std::uint64_t size = a.arr.size(kEpochMax, floor);
        if (size == 0) continue;
        RecordImage rec{dkey, akey, /*is_array=*/true, size, {}, {}};
        a.arr.read_slices(0, size, kEpochMax, rec.data, floor);
        out.push_back(std::move(rec));
      } else if (a.has_sv && a.sv.latest_epoch() > min_epoch) {
        const auto view = a.sv.get(kEpochMax, floor);
        if (!view.exists) continue;
        out.push_back(RecordImage{dkey, akey, /*is_array=*/false, view.size,
                                  {copy_slice(view.data)}, {}});
      }
    }
  }
  return out;
}

std::uint64_t VosContainer::stored_bytes() const {
  std::uint64_t total = 0;
  auto& objects = const_cast<BPlusTree<ObjId, std::unique_ptr<ObjectNode>>&>(objects_);
  for (auto oit = objects.begin(); oit != objects.end(); ++oit) {
    auto& dkeys = oit.value()->dkeys;
    for (auto dit = dkeys.begin(); dit != dkeys.end(); ++dit) {
      auto& akeys = dit.value()->akeys;
      for (auto ait = akeys.begin(); ait != akeys.end(); ++ait) {
        if (ait.value()->has_arr) total += ait.value()->arr.stored_bytes();
      }
    }
  }
  return total;
}

}  // namespace daosim::vos
