// Core VOS value types shared across the storage stack.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>

namespace daosim::vos {

/// 128-bit object identifier (DAOS packs object class bits into `hi`).
struct ObjId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  auto operator<=>(const ObjId&) const = default;
};

/// 128-bit container / pool UUID.
struct Uuid {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  auto operator<=>(const Uuid&) const = default;
};

/// Transactional epoch. Updates are tagged with the epoch in which they were
/// made; fetches resolve visibility against an epoch.
using Epoch = std::uint64_t;
constexpr Epoch kEpochMax = ~0ULL;

/// Distribution / attribute keys are short byte strings.
using Key = std::string;

/// Whether array payload bytes are actually stored. `discard` keeps only
/// extent metadata (sizes/versions) so the largest benchmark configurations
/// fit in host memory; reads then return zeros. Tests use `store`.
enum class PayloadMode { store, discard };

/// The node a punch removes: a whole object, one dkey, or one akey.
enum class PunchScope : std::uint8_t { object, dkey, akey };

}  // namespace daosim::vos

template <>
struct std::hash<daosim::vos::ObjId> {
  std::size_t operator()(const daosim::vos::ObjId& o) const noexcept {
    return std::hash<std::uint64_t>{}(o.hi * 0x9E3779B97F4A7C15ULL ^ o.lo);
  }
};

template <>
struct std::hash<daosim::vos::Uuid> {
  std::size_t operator()(const daosim::vos::Uuid& u) const noexcept {
    return std::hash<std::uint64_t>{}(u.hi * 0xC2B2AE3D27D4EB4FULL ^ u.lo);
  }
};
