// The pool map: the authoritative list of storage targets a pool spans.
// Clients receive it at connect time and place objects algorithmically
// against it (no per-I/O metadata lookups — the core DAOS scaling idea).
#pragma once

#include <cstdint>
#include <vector>

#include "net/fabric.hpp"
#include "vos/types.hpp"

namespace daosim::pool {

/// Target health as recorded in the pool map. `up` and `excluded` are
/// authoritative (replicated through the pool service); `down` is a client's
/// local suspicion — RPCs to the target timed out but the eviction has not
/// been committed yet. See docs/faults.md for the state machine.
enum class TargetHealth : std::uint8_t { up, down, excluded };

inline const char* to_string(TargetHealth h) {
  switch (h) {
    case TargetHealth::up: return "UP";
    case TargetHealth::down: return "DOWN";
    case TargetHealth::excluded: return "EXCLUDED";
  }
  return "?";
}

struct TargetRef {
  net::NodeId engine = 0;      // fabric node of the owning engine
  std::uint32_t target = 0;    // target index within that engine
  TargetHealth health = TargetHealth::up;
};

struct PoolMap {
  vos::Uuid pool;
  std::uint32_t version = 1;
  std::vector<TargetRef> targets;

  std::uint32_t target_count() const { return std::uint32_t(targets.size()); }
  std::uint32_t excluded_count() const {
    std::uint32_t n = 0;
    for (const auto& t : targets) n += (t.health == TargetHealth::excluded) ? 1 : 0;
    return n;
  }
};

/// Container properties fixed at create time.
struct ContProps {
  std::uint64_t chunk_size = 1 << 20;  // DFS/array chunking (DAOS default 1 MiB)
  std::uint8_t oclass = 0;             // default object class (client enum value)
  bool operator==(const ContProps&) const = default;
};

}  // namespace daosim::pool
