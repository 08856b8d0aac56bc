// VosTarget: the per-target storage instance (one VOS pool shard in DAOS
// terms). A target owns one VosContainer per container UUID; the engine
// routes object shard I/O here.
#pragma once

#include <map>
#include <vector>

#include "vos/container.hpp"

namespace daosim::vos {

class VosTarget {
 public:
  explicit VosTarget(PayloadMode mode) : mode_(mode) {}

  /// Opens (creating on first touch) the container's shard on this target.
  /// The returned reference is stable for the target's lifetime: containers_
  /// is a node-based std::map, so a concurrent first-touch of a different
  /// container never relocates existing shards. (It was an unordered_map by
  /// value, where any insert could rehash and move every VosContainer out
  /// from under engine coroutines suspended on media I/O.)
  VosContainer& container(Uuid uuid) {
    // try_emplace constructs the shard in place: VosContainer is pinned
    // (not movable) because its array stores bind probe counters to the
    // container's own stats block.
    return containers_.try_emplace(uuid, mode_).first->second;
  }

  const VosContainer* find_container(Uuid uuid) const {
    auto it = containers_.find(uuid);
    return it == containers_.end() ? nullptr : &it->second;
  }

  bool destroy_container(Uuid uuid) { return containers_.erase(uuid) > 0; }

  std::size_t container_count() const { return containers_.size(); }

  /// Container UUIDs in sorted order (the rebuild scanner needs a
  /// deterministic walk; the ordered map gives it for free).
  std::vector<Uuid> list_containers() const {
    std::vector<Uuid> out;
    out.reserve(containers_.size());
    for (const auto& [uuid, c] : containers_) out.push_back(uuid);
    return out;
  }

  std::uint64_t stored_bytes() const {
    std::uint64_t total = 0;
    for (const auto& [uuid, c] : containers_) total += c.stored_bytes();
    return total;
  }
  std::uint64_t logical_bytes_written() const {
    std::uint64_t total = 0;
    for (const auto& [uuid, c] : containers_) total += c.logical_bytes_written();
    return total;
  }

  /// Index-operation counters summed over this target's container shards.
  VosContainer::TreeStats tree_stats() const {
    VosContainer::TreeStats total;
    for (const auto& [uuid, c] : containers_) total += c.tree_stats();
    return total;
  }

 private:
  PayloadMode mode_;
  std::map<Uuid, VosContainer> containers_;
};

}  // namespace daosim::vos
