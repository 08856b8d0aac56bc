// The one store-mode payload representation: a slice of an immutable,
// reference-counted byte buffer. A client gathers an update's bytes into one
// buffer, the engine hands it to VOS, and every stored version slices it; a
// fetch reply is a list of slices of the stored buffers. No layer copies a
// payload on the way, so nobody may write a buffer once it is shared.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "vos/types.hpp"

namespace daosim::vos {

using Buffer = std::vector<std::byte>;
/// A shared payload buffer: immutable once a second holder can see it.
using BufferRef = std::shared_ptr<const Buffer>;

/// `length` bytes of *buf from `off`; with a null `buf`, `length` bytes that
/// carry no payload (a metadata-only write, or zeros in a read's result).
struct Slice {
  BufferRef buf;
  std::uint64_t off = 0;
  std::uint64_t length = 0;
};

/// A slice over a fresh copy of `data`: the one copy a caller holding only a
/// span pays to hand its bytes to the store.
inline Slice copy_slice(std::span<const std::byte> data) {
  return Slice{std::make_shared<const Buffer>(data.begin(), data.end()), 0, data.size()};
}

/// Reads a slice list front to back: read() copies the next out.size() bytes
/// (zeros for payload-free slices) and skip() passes over bytes unread.
class SliceReader {
 public:
  explicit SliceReader(std::span<const Slice> slices) : slices_(slices) {}

  void read(std::span<std::byte> out) { advance(out.size(), out.data()); }
  void skip(std::uint64_t n) { advance(n, nullptr); }

 private:
  void advance(std::uint64_t n, std::byte* dst) {
    while (n > 0) {
      DAOSIM_REQUIRE(i_ < slices_.size(), "slice list shorter than the bytes read from it");
      const Slice& s = slices_[i_];
      const std::uint64_t take = std::min(n, s.length - pos_);
      if (dst != nullptr) {
        if (s.buf != nullptr) {
          std::memcpy(dst, s.buf->data() + s.off + pos_, std::size_t(take));
        } else {
          std::memset(dst, 0, std::size_t(take));
        }
        dst += take;
      }
      n -= take;
      pos_ += take;
      if (pos_ == s.length) {
        ++i_;
        pos_ = 0;
      }
    }
  }

  std::span<const Slice> slices_;
  std::size_t i_ = 0;
  std::uint64_t pos_ = 0;  // bytes of slices_[i_] already passed
};

/// One record as a source exports it for rebuild and a destination applies
/// it: an array's visible [0, length) as slices of the stored buffers
/// (payload-free slices for holes, punches and discard-mode extents; see
/// ArrayStore::read_slices), a single value's latest version as one slice,
/// or, when `punch` is set, a punch of the object, of `dkey` or of `akey`
/// (no length, no data). `is_array` routes the record to its redundancy
/// group.
struct RecordImage {
  Key dkey;
  Key akey;
  bool is_array = false;
  std::uint64_t length = 0;
  std::vector<Slice> data;
  std::optional<PunchScope> punch;
};

}  // namespace daosim::vos
