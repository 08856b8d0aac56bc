#include "vos/container.hpp"

#include <algorithm>

namespace daosim::vos {

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

VosContainer::AkeyNode& VosContainer::akey_node_in(ObjectNode& o, const Key& dkey,
                                                   const Key& akey) {
  DkeyNode* dk;
  ++tree_stats_.lookups;
  if (auto* p = o.dkeys.find(dkey)) {
    dk = p->get();
  } else {
    auto node = std::make_unique<DkeyNode>();
    dk = node.get();
    ++tree_stats_.inserts;
    o.dkeys.insert_or_assign(dkey, std::move(node));
  }
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

const VosContainer::AkeyNode* VosContainer::find_akey(ObjId oid, const Key& dkey,
                                                      const Key& akey) const {
  const auto* o = find_obj(oid);
  if (o == nullptr) return nullptr;
  return find_akey_in(*o, dkey, akey);
}

const VosContainer::AkeyNode* VosContainer::find_akey_in(const ObjectNode& o, const Key& dkey,
                                                         const Key& akey) const {
  ++tree_stats_.lookups;
  const auto* dk = const_cast<ObjectNode&>(o).dkeys.find(dkey);
  if (dk == nullptr) return nullptr;
  ++tree_stats_.lookups;
  const auto* ak = (*dk)->akeys.find(akey);
  return ak != nullptr ? ak->get() : nullptr;
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
  for (std::size_t i = 0; i < extents.size(); ++i) {
    const ArrayExtent& e = extents[i];
    const AkeyNode* a = o != nullptr ? find_akey_in(*o, e.dkey, akey) : nullptr;
    std::uint64_t filled = 0;
    if (a == nullptr || !a->has_arr) {
      if (slices != nullptr) slices->push_back(Slice{nullptr, 0, e.length});  // a hole
    } else if (slices != nullptr) {
      filled = a->arr.read_slices(e.offset, e.length, epoch, *slices);
    } else {
      // Discard mode: fill state from extent metadata only.
      const std::uint64_t sz = a->arr.size(epoch);
      filled = sz > e.offset ? std::min(e.length, sz - e.offset) : 0;
    }
    fills[i] = filled;
    total += filled;
  }
  return total;
}

std::uint64_t VosContainer::array_size(ObjId oid, const Key& dkey, const Key& akey,
                                       Epoch epoch) const {
  const AkeyNode* a = find_akey(oid, dkey, akey);
  return (a != nullptr && a->has_arr) ? a->arr.size(epoch) : 0;
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
  const AkeyNode* a = find_akey(oid, dkey, akey);
  if (a == nullptr || !a->has_sv) return {};
  return a->sv.get(epoch);
}

void VosContainer::punch_akey(ObjId oid, const Key& dkey, const Key& akey, Epoch epoch) {
  auto* a = const_cast<AkeyNode*>(find_akey(oid, dkey, akey));
  if (a == nullptr) return;
  if (a->has_sv) a->sv.punch(epoch);
  if (a->has_arr) a->arr.punch_all(epoch);
}

void VosContainer::punch_dkey(ObjId oid, const Key& dkey, Epoch epoch) {
  auto* o = const_cast<ObjectNode*>(find_obj(oid));
  if (o == nullptr) return;
  auto* dk = o->dkeys.find(dkey);
  if (dk == nullptr) return;
  for (auto it = (*dk)->akeys.begin(); it != (*dk)->akeys.end(); ++it) {
    AkeyNode& a = *it.value();
    if (a.has_sv) a.sv.punch(epoch);
    if (a.has_arr) a.arr.punch_all(epoch);
  }
}

void VosContainer::punch_object(ObjId oid, Epoch epoch) {
  auto* o = const_cast<ObjectNode*>(find_obj(oid));
  if (o == nullptr) return;
  for (auto dit = o->dkeys.begin(); dit != o->dkeys.end(); ++dit) {
    for (auto ait = dit.value()->akeys.begin(); ait != dit.value()->akeys.end(); ++ait) {
      AkeyNode& a = *ait.value();
      if (a.has_sv) a.sv.punch(epoch);
      if (a.has_arr) a.arr.punch_all(epoch);
    }
  }
  o->array_end_hint = 0;
}

bool VosContainer::akey_visible(const AkeyNode& a, Epoch epoch) {
  if (a.has_sv && a.sv.get(epoch).exists) return true;
  return a.has_arr && a.arr.size(epoch) > 0;
}

std::vector<Key> VosContainer::list_dkeys(ObjId oid, Epoch epoch) const {
  std::vector<Key> out;
  const auto* o = find_obj(oid);
  if (o == nullptr) return out;
  auto& dkeys = const_cast<ObjectNode*>(o)->dkeys;
  for (auto it = dkeys.begin(); it != dkeys.end(); ++it) {
    auto& akeys = it.value()->akeys;
    for (auto ait = akeys.begin(); ait != akeys.end(); ++ait) {
      if (akey_visible(*ait.value(), epoch)) {
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
  for (auto it = (*dk)->akeys.begin(); it != (*dk)->akeys.end(); ++it) {
    if (akey_visible(*it.value(), epoch)) out.push_back(it.key());
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
  auto& objects = objects_;
  for (auto oit = objects.begin(); oit != objects.end(); ++oit) {
    auto& dkeys = oit.value()->dkeys;
    for (auto dit = dkeys.begin(); dit != dkeys.end(); ++dit) {
      auto& akeys = dit.value()->akeys;
      for (auto ait = akeys.begin(); ait != akeys.end(); ++ait) {
        AkeyNode& a = *ait.value();
        if (a.has_sv) a.sv.aggregate(upto);
        if (a.has_arr) {
          // The store reports retired extents directly — no before/after
          // extent_count() rescan per record.
          const ArrayStore::AggResult r = a.arr.aggregate(upto);
          tree_stats_.extent_merges += r.extents_retired;
          total.extents_retired += r.extents_retired;
          total.bytes_flattened += r.bytes_flattened;
        }
      }
    }
  }
  return total;
}

std::vector<RecordImage> VosContainer::export_object(ObjId oid, Epoch min_epoch) const {
  std::vector<RecordImage> out;
  for (const Key& dkey : list_dkeys(oid, kEpochMax)) {
    for (const Key& akey : list_akeys(oid, dkey, kEpochMax)) {
      const AkeyNode* a = find_akey(oid, dkey, akey);
      if (a == nullptr) continue;
      if (a->has_arr && a->arr.latest_epoch() > min_epoch) {
        const std::uint64_t size = a->arr.size(kEpochMax);
        if (size == 0) continue;
        RecordImage rec{dkey, akey, /*is_array=*/true, size, {}};
        a->arr.read_slices(0, size, kEpochMax, rec.data);
        out.push_back(std::move(rec));
      } else if (a->has_sv && a->sv.latest_epoch() > min_epoch) {
        const auto view = a->sv.get(kEpochMax);
        if (!view.exists) continue;
        out.push_back(RecordImage{dkey, akey, /*is_array=*/false, view.size,
                                  {copy_slice(view.data)}});
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
