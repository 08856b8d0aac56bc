// Client-side algorithmic placement: object shard -> pool target, computed
// from the object ID and the pool map alone (no per-I/O metadata service
// traffic — DAOS's key scalability property).
//
// Shard 0 lands on a pseudo-random target (jump consistent hash); the
// remaining shards walk the target ring with an odd, object-specific stride,
// giving every multi-shard object a collision-free layout (a permutation of
// targets) while different objects start at independent positions —
// reproducing the balls-into-bins behaviour that differentiates S1/S2/SX in
// the paper's figures.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "client/object_class.hpp"
#include "common/error.hpp"
#include "pool/pool_map.hpp"
#include "vos/types.hpp"

namespace daosim::client {

/// splitmix64 finalizer: cheap, well-mixed 64-bit hash.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Lamping & Veach jump consistent hash: key -> bucket in [0, buckets).
constexpr std::uint32_t jump_consistent_hash(std::uint64_t key, std::uint32_t buckets) {
  std::int64_t b = -1, j = 0;
  while (j < std::int64_t(buckets)) {
    b = j;
    key = key * 2862933555777941757ULL + 1;
    j = std::int64_t(double(b + 1) * (double(1LL << 31) / double((key >> 33) + 1)));
  }
  return std::uint32_t(b);
}

/// The per-object target ring: position i of the object's permutation of the
/// pool's targets. Shards occupy positions [0, shards); positions beyond
/// supply deterministic substitutes when a placed target is excluded.
struct PlacementRing {
  std::uint32_t start = 0;
  std::uint32_t stride = 1;
  std::uint32_t pool_targets = 1;

  PlacementRing(vos::ObjId oid, std::uint32_t targets) : pool_targets(targets) {
    const std::uint64_t h = mix64(oid.hi ^ mix64(oid.lo));
    start = jump_consistent_hash(h, pool_targets);
    // Odd ring stride co-prime with the target count -> a permutation.
    stride = 1 + 2 * std::uint32_t(mix64(h) % std::max(1u, pool_targets / 2));
    while (std::gcd(stride, pool_targets) != 1) stride += 2;
  }

  std::uint32_t at(std::uint32_t position) const {
    return std::uint32_t((start + std::uint64_t(position) * stride) % pool_targets);
  }
};

/// Per-object shard layout: layout[s] is the pool-map target index of shard s.
inline std::vector<std::uint32_t> compute_layout(vos::ObjId oid, std::uint32_t shards,
                                                 std::uint32_t pool_targets) {
  DAOSIM_REQUIRE(shards >= 1 && shards <= pool_targets, "bad shard count %u (pool %u)", shards,
                 pool_targets);
  const PlacementRing ring(oid, pool_targets);
  std::vector<std::uint32_t> layout(shards);
  for (std::uint32_t s = 0; s < shards; ++s) layout[s] = ring.at(s);
  return layout;
}

/// Health-aware layout: identical to the plain overload while every target is
/// healthy, so existing placements are undisturbed. A shard whose target is
/// EXCLUDED walks forward along the object's ring (from its own position) to
/// the first non-excluded target — deterministic, map-version-driven, and
/// local to the affected shards, mirroring how DAOS rebuilds layouts against
/// a newer pool map.
inline std::vector<std::uint32_t> compute_layout(vos::ObjId oid, std::uint32_t shards,
                                                 const pool::PoolMap& map) {
  const std::uint32_t n = map.target_count();
  DAOSIM_REQUIRE(shards >= 1 && shards <= n, "bad shard count %u (pool %u)", shards, n);
  const PlacementRing ring(oid, n);
  std::vector<std::uint32_t> layout(shards);
  const auto excluded = [&map](std::uint32_t t) {
    return map.targets[t].health == pool::TargetHealth::excluded;
  };
  for (std::uint32_t s = 0; s < shards; ++s) {
    std::uint32_t pick = ring.at(s);
    for (std::uint32_t step = 1; excluded(pick) && step < n; ++step) {
      pick = ring.at(s + step);
    }
    layout[s] = pick;  // every target excluded: keep the original placement
  }
  return layout;
}

/// Distribution-key hash -> shard index (DAOS hashes the dkey to pick the
/// shard; array chunk indices are dkeys).
inline std::uint32_t dkey_to_shard(std::uint64_t dkey_hash, std::uint32_t shards) {
  return std::uint32_t(mix64(dkey_hash) % shards);
}

/// Redundancy-group routing, shared between the client object handles and the
/// rebuild scanner (both must agree on which group owns a dkey). Array chunk
/// indices mix in oid.lo; KV dkeys hash the key string.
inline std::uint32_t array_chunk_group(vos::ObjId oid, std::uint64_t chunk_idx,
                                       std::uint32_t groups) {
  return dkey_to_shard(chunk_idx ^ mix64(oid.lo), groups);
}
inline std::uint32_t kv_dkey_group(const vos::Key& dkey, std::uint32_t groups) {
  return dkey_to_shard(std::hash<std::string>{}(dkey), groups);
}

/// An array chunk's dkey is its chunk index in decimal. The client's array
/// writes and reads name chunks with array_chunk_dkey; the rebuild scanner
/// reads the index back with array_chunk_index to route a record's group.
inline vos::Key array_chunk_dkey(std::uint64_t chunk_idx) { return std::to_string(chunk_idx); }
inline std::uint64_t array_chunk_index(const vos::Key& dkey) {
  return std::strtoull(dkey.c_str(), nullptr, 10);
}

/// One chunk piece of an array range: a dkey-relative byte range plus its
/// offset into the caller's buffer.
struct ArrayPiece {
  std::uint64_t chunk_idx = 0;
  std::uint64_t offset = 0;      // offset within the chunk (dkey)
  std::uint64_t length = 0;
  std::uint64_t buffer_off = 0;  // offset into the caller's data/out span
};

/// Splits the array range [offset, offset + length) at `chunk` boundaries.
inline std::vector<ArrayPiece> split_pieces(std::uint64_t chunk, std::uint64_t offset,
                                            std::uint64_t length) {
  std::vector<ArrayPiece> pieces;
  const std::uint64_t end = offset + length;
  for (std::uint64_t pos = offset; pos < end;) {
    const std::uint64_t in_chunk = pos % chunk;
    const std::uint64_t len = std::min(chunk - in_chunk, end - pos);
    pieces.push_back(ArrayPiece{pos / chunk, in_chunk, len, pos - offset});
    pos += len;
  }
  return pieces;
}

/// Layout of a replicated object: `groups` redundancy groups of `replicas`
/// targets each, group-major (`targets[g*replicas + r]`). Replicas of one
/// group never share an engine (the failure domain), so losing an engine
/// costs at most one replica per group.
struct GroupLayout {
  std::uint32_t replicas = 1;
  std::vector<std::uint32_t> targets;  // group-major

  std::uint32_t groups() const {
    return replicas == 0 ? 0 : std::uint32_t(targets.size()) / replicas;
  }
  std::uint32_t at(std::uint32_t group, std::uint32_t replica) const {
    return targets[std::size_t(group) * replicas + replica];
  }
  std::size_t size() const { return targets.size(); }
};

/// Nominal group layout, ignoring health: where replicas live on an intact
/// pool. Slot (g, r) starts at ring position g*R+r and walks forward past
/// targets whose engine already hosts an earlier replica of the same group
/// (replicas never share a failure domain). With replicas == 1 there is no
/// constraint to walk past, so S-class placements are byte-identical to the
/// classic compute_layout. Degraded reads and the rebuild scanner diff this
/// against the health-aware layout to find lost replicas.
inline GroupLayout compute_nominal_layout(vos::ObjId oid, std::uint32_t groups,
                                          std::uint32_t replicas, const pool::PoolMap& map) {
  const std::uint32_t n = map.target_count();
  DAOSIM_REQUIRE(groups >= 1 && replicas >= 1 && groups * replicas <= n,
                 "bad group layout %ux%u (pool %u)", groups, replicas, n);
  const PlacementRing ring(oid, n);
  GroupLayout out;
  out.replicas = replicas;
  out.targets.resize(std::size_t(groups) * replicas);
  for (std::uint32_t g = 0; g < groups; ++g) {
    std::vector<net::NodeId> used;  // engines already hosting a replica of g
    for (std::uint32_t r = 0; r < replicas; ++r) {
      const std::uint32_t pos = g * replicas + r;
      const auto engine_used = [&](std::uint32_t t) {
        const net::NodeId e = map.targets[t].engine;
        return std::find(used.begin(), used.end(), e) != used.end();
      };
      std::uint32_t pick = ring.at(pos);
      for (std::uint32_t step = 1; engine_used(pick) && step < n; ++step) {
        pick = ring.at(pos + step);
      }
      if (engine_used(pick)) pick = ring.at(pos);  // single-engine pool: give up
      out.targets[std::size_t(g) * replicas + r] = pick;
      used.push_back(map.targets[pick].engine);
    }
  }
  return out;
}

/// Health-aware group layout: replicas on healthy targets keep their nominal
/// placement (they never move); a replica whose nominal target is EXCLUDED
/// walks forward along the ring to the first non-excluded substitute on an
/// engine distinct from the group's surviving replicas and earlier
/// substitutes. With replicas == 1 this degenerates to the classic
/// health-aware compute_layout walk.
inline GroupLayout compute_group_layout(vos::ObjId oid, std::uint32_t groups,
                                        std::uint32_t replicas, const pool::PoolMap& map) {
  GroupLayout out = compute_nominal_layout(oid, groups, replicas, map);
  const std::uint32_t n = map.target_count();
  const PlacementRing ring(oid, n);
  const auto excluded = [&map](std::uint32_t t) {
    return map.targets[t].health == pool::TargetHealth::excluded;
  };
  for (std::uint32_t g = 0; g < groups; ++g) {
    std::vector<net::NodeId> used;  // engines of the group's surviving replicas
    for (std::uint32_t r = 0; r < replicas; ++r) {
      const std::uint32_t t = out.at(g, r);
      if (!excluded(t)) used.push_back(map.targets[t].engine);
    }
    for (std::uint32_t r = 0; r < replicas; ++r) {
      const std::uint32_t pos = g * replicas + r;
      if (!excluded(out.at(g, r))) continue;  // healthy replicas never move
      const auto engine_used = [&](std::uint32_t t) {
        const net::NodeId e = map.targets[t].engine;
        return std::find(used.begin(), used.end(), e) != used.end();
      };
      std::uint32_t pick = ring.at(pos);
      for (std::uint32_t step = 1; (excluded(pick) || engine_used(pick)) && step < n; ++step) {
        pick = ring.at(pos + step);
      }
      // Walk exhausted (tiny or mostly-excluded pools): relax the distinct-
      // engine constraint, keeping the nominal placement as the last resort.
      if (excluded(pick) || engine_used(pick)) {
        pick = ring.at(pos);
        for (std::uint32_t step = 1; excluded(pick) && step < n; ++step) {
          pick = ring.at(pos + step);
        }
      }
      out.targets[std::size_t(g) * replicas + r] = pick;
      used.push_back(map.targets[pick].engine);
    }
  }
  return out;
}

/// Where an object's I/O goes on `map` now: its health-aware group layout,
/// with the group and replica counts its object class gives on this pool.
/// Object handles and transactions both place through this.
inline GroupLayout object_layout(vos::ObjId oid, const pool::PoolMap& map) {
  const ObjClass cls = class_of(oid);
  return compute_group_layout(oid, group_count(cls, map.target_count()), replica_count(cls), map);
}

}  // namespace daosim::client
