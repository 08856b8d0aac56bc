#include "vos/value_store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <set>
#include <utility>

#include "common/audit.hpp"
#include "common/error.hpp"

namespace daosim::vos {

// ---------------------------------------------------------------------------
// SingleValueStore

// Stores are epoch-sorted, and writes normally arrive in epoch order — but a
// DTX commit applies at the transaction's prepare-time epoch, which can sit
// below versions the shard's clock has since issued. Sorted insertion keeps
// every read/aggregate path (all of which scan ascending epochs) correct.
void SingleValueStore::insert_sorted(Version v) {
  auto pos = std::lower_bound(versions_.begin(), versions_.end(), v.epoch,
                              [](const Version& a, Epoch e) { return a.epoch < e; });
  if (pos != versions_.end() && pos->epoch == v.epoch) {
    *pos = std::move(v);  // same-epoch overwrite keeps one version per epoch
  } else {
    versions_.insert(pos, std::move(v));
  }
}

void SingleValueStore::put(std::span<const std::byte> value, Epoch epoch) {
  insert_sorted(Version{epoch, false, value.size(), {value.begin(), value.end()}});
}

void SingleValueStore::punch(Epoch epoch) { insert_sorted(Version{epoch, true, 0, {}}); }

SingleValueStore::View SingleValueStore::get(Epoch epoch) const {
  // Versions are sorted by epoch: find the last one <= epoch.
  const Version* best = nullptr;
  for (const auto& v : versions_) {
    if (v.epoch > epoch) break;
    best = &v;
  }
  if (best == nullptr || best->punched) return {};
  return View{true, best->size, std::span<const std::byte>(best->data)};
}

void SingleValueStore::aggregate(Epoch upto) {
  // Keep the newest version <= upto plus everything > upto.
  const Version* keep = nullptr;
  for (const auto& v : versions_) {
    if (v.epoch > upto) break;
    keep = &v;
  }
  if (keep == nullptr) return;
  std::vector<Version> out;
  for (auto& v : versions_) {
    if (&v == keep || v.epoch > upto) out.push_back(std::move(v));
  }
  versions_ = std::move(out);
}

// ---------------------------------------------------------------------------
// ArrayStore

Epoch ArrayStore::last_full_punch_at(Epoch epoch) const {
  // full_punches_ is ascending: last one <= epoch.
  auto it = std::upper_bound(full_punches_.begin(), full_punches_.end(), epoch);
  return it == full_punches_.begin() ? 0 : *std::prev(it);
}

void ArrayStore::split_at(std::uint64_t x) {
  auto it = segs_.upper_bound(x);
  if (it == segs_.begin()) return;
  --it;
  const std::uint64_t start = it->first;
  Segment& s = it->second;
  if (start == x || start + s.length <= x) return;
  const std::uint64_t left_len = x - start;
  Segment right;
  right.length = s.length - left_len;
  right.versions = s.versions;  // the right half slices the same buffers
  for (auto& v : right.versions) v.off += left_len;
  s.length = left_len;
  segs_.emplace_hint(std::next(it), x, std::move(right));
  audit_payload();
}

void ArrayStore::insert_version(Segment& s, Version v) {
  if (s.versions.empty() || s.versions.back().epoch <= v.epoch) {
    s.versions.push_back(std::move(v));
    return;
  }
  // A below-top insert (a DTX commit at its prepare-time epoch, a rebuild
  // image above its task floor): position by epoch; upper_bound keeps arrival
  // order among equal epochs, so the resolved visibility stays identical for
  // in-order writers.
  auto pos = std::upper_bound(s.versions.begin(), s.versions.end(), v.epoch,
                              [](Epoch e, const Version& x) { return e < x.epoch; });
  s.versions.insert(pos, std::move(v));
}

void ArrayStore::apply_range(std::uint64_t offset, const Slice& data, Epoch epoch,
                             bool punch) {
  split_at(offset);
  const std::uint64_t end = offset + data.length;
  split_at(end);
  const std::uint64_t seq = seq_++;
  // Every segment the write covers gets a slice of the one adopted buffer;
  // the segments tile [offset, end) exactly.
  if (data.buf != nullptr) stored_bytes_ += data.length;
  auto version_at = [&](std::uint64_t pos) {
    return Version{epoch, seq, punch, data.buf, data.off + (pos - offset)};
  };
  std::uint64_t pos = offset;
  auto it = segs_.lower_bound(offset);
  while (pos < end) {
    if (it != segs_.end() && it->first == pos) {
      // Existing segment, fully inside [offset, end) after the splits.
      Segment& s = it->second;
      insert_version(s, version_at(pos));
      pos += s.length;
      ++it;
    } else {
      // Gap up to the next segment (or to the end of the write).
      const std::uint64_t next =
          it == segs_.end() ? end : std::min<std::uint64_t>(end, it->first);
      Segment s;
      s.length = next - pos;
      s.versions.push_back(version_at(pos));
      it = std::next(segs_.emplace_hint(it, pos, std::move(s)));
      pos = next;
    }
  }
  if (epoch > max_epoch_) max_epoch_ = epoch;
  audit_payload();
}

void ArrayStore::write(std::uint64_t offset, Slice data, Epoch epoch, PayloadMode mode) {
  if (data.length == 0) return;
  // A null buffer in store mode means "no payload shipped" (callers doing
  // metadata-only I/O against a storing container): the extent reads as zeros.
  if (mode == PayloadMode::discard) data.buf = nullptr;
  if (data.buf != nullptr) {
    DAOSIM_REQUIRE(data.off <= data.buf->size() && data.length <= data.buf->size() - data.off,
                   "payload slice [%llu, +%llu) overruns its %zu-byte buffer",
                   static_cast<unsigned long long>(data.off),
                   static_cast<unsigned long long>(data.length), data.buf->size());
  }
  apply_range(offset, data, epoch, /*punch=*/false);
}

void ArrayStore::punch_range(std::uint64_t offset, std::uint64_t length, Epoch epoch) {
  if (length == 0) return;
  apply_range(offset, Slice{nullptr, 0, length}, epoch, /*punch=*/true);
}

void ArrayStore::punch_all(Epoch epoch) {
  auto pos = std::lower_bound(full_punches_.begin(), full_punches_.end(), epoch);
  if (pos == full_punches_.end() || *pos != epoch) full_punches_.insert(pos, epoch);
}

const ArrayStore::Version* ArrayStore::newest_at(const Segment& s, Epoch epoch) {
  auto it = std::upper_bound(s.versions.begin(), s.versions.end(), epoch,
                             [](Epoch e, const Version& v) { return e < v.epoch; });
  if (it == s.versions.begin()) return nullptr;
  return &*std::prev(it);
}

template <typename Emit>
std::uint64_t ArrayStore::resolve(std::uint64_t offset, std::uint64_t length, Epoch epoch,
                                  Emit&& emit) const {
  if (length == 0) return 0;
  const Epoch floor = last_full_punch_at(epoch);
  const std::uint64_t end = offset + length;
  std::uint64_t probes = 1;  // the ordered-index seek
  std::uint64_t count = 0;
  std::uint64_t done = offset;  // every byte below `done` has been emitted
  const Version* const hole = nullptr;

  auto it = segs_.upper_bound(offset);
  if (it != segs_.begin()) --it;  // predecessor may extend into the range
  for (; it != segs_.end() && it->first < end; ++it) {
    const std::uint64_t start = it->first;
    const Segment& s = it->second;
    const std::uint64_t lo = std::max(offset, start);
    const std::uint64_t hi = std::min(end, start + s.length);
    if (lo >= hi) continue;
    probes += 1 + std::uint64_t(std::bit_width(s.versions.size()));
    const Version* v = newest_at(s, epoch);
    if (v == nullptr || v->epoch <= floor || v->punch) continue;
    if (lo > done) emit(done, lo, hole, 0);  // the hole before this run
    emit(lo, hi, v, lo - start);
    done = hi;
    count += hi - lo;
  }
  if (end > done) emit(done, end, hole, 0);
  if (probes_ != nullptr) *probes_ += probes;
  return count;
}

std::uint64_t ArrayStore::read(std::uint64_t offset, std::span<std::byte> out,
                               Epoch epoch) const {
  // Copies each payload run into `out` and zeroes every other run.
  return resolve(offset, out.size(), epoch,
                 [&](std::uint64_t lo, std::uint64_t hi, const Version* v, std::uint64_t skip) {
                   std::byte* dst = out.data() + (lo - offset);
                   if (v != nullptr && v->buf != nullptr) {
                     std::memcpy(dst, v->bytes() + skip, std::size_t(hi - lo));
                   } else {
                     std::memset(dst, 0, std::size_t(hi - lo));
                   }
                 });
}

std::uint64_t ArrayStore::read_slices(std::uint64_t offset, std::uint64_t length, Epoch epoch,
                                      std::vector<Slice>& out) const {
  // Runs that continue the previous slice (zeros after zeros, or the next
  // bytes of the same buffer) extend it, so a split-up extent still ships
  // as one slice. Only runs this call emits are merged.
  const std::size_t first = out.size();
  static const BufferRef kZeros;
  return resolve(offset, length, epoch,
                 [&](std::uint64_t lo, std::uint64_t hi, const Version* v, std::uint64_t skip) {
                   const bool payload = v != nullptr && v->buf != nullptr;
                   const BufferRef& buf = payload ? v->buf : kZeros;
                   const std::uint64_t off = payload ? v->off + skip : 0;
                   if (out.size() > first && out.back().buf == buf &&
                       (!payload || out.back().off + out.back().length == off)) {
                     out.back().length += hi - lo;
                   } else {
                     out.push_back(Slice{buf, off, hi - lo});
                   }
                 });
}

std::uint64_t ArrayStore::size(Epoch epoch) const {
  const Epoch floor = last_full_punch_at(epoch);
  std::uint64_t probes = 1;
  std::uint64_t max_end = 0;
  // Scan from the highest offset down: the first segment holding any
  // non-punch version in (floor, epoch] decides the size.
  for (auto it = segs_.rbegin(); it != segs_.rend() && max_end == 0; ++it) {
    const Segment& s = it->second;
    probes += 1 + std::uint64_t(std::bit_width(s.versions.size()));
    auto v = std::upper_bound(s.versions.begin(), s.versions.end(), epoch,
                              [](Epoch e, const Version& x) { return e < x.epoch; });
    while (v != s.versions.begin()) {
      --v;
      if (v->epoch <= floor) break;
      if (!v->punch) {
        max_end = it->first + s.length;
        break;
      }
    }
  }
  if (probes_ != nullptr) *probes_ += probes;
  return max_end;
}

std::size_t ArrayStore::extent_count() const {
  std::size_t n = 0;
  for (const auto& [start, s] : segs_) n += s.versions.size();
  return n;
}

ArrayStore::AggResult ArrayStore::aggregate(Epoch upto) {
  AggResult res;
  const Epoch floor = last_full_punch_at(upto);

  // Pass 1 — per segment, drop every version <= upto except the newest
  // survivor in (floor, upto]. A punch survivor (or one shadowed by a full
  // punch) vanishes too: nobody may read below `upto` once aggregated, so a
  // hole needs no record. Survivors keep their original (epoch, seq).
  for (auto it = segs_.begin(); it != segs_.end();) {
    Segment& s = it->second;
    auto above = std::upper_bound(s.versions.begin(), s.versions.end(), upto,
                                  [](Epoch e, const Version& v) { return e < v.epoch; });
    auto drop_end = above;  // the survivor, if any, is the last version <= upto
    if (above != s.versions.begin()) {
      const auto t = std::prev(above);
      if (t->epoch > floor && !t->punch) drop_end = t;
    }
    for (auto v = s.versions.begin(); v != drop_end; ++v) {
      ++res.extents_retired;
      if (v->buf != nullptr) {
        res.bytes_flattened += s.length;
        stored_bytes_ -= s.length;
      }
    }
    s.versions.erase(s.versions.begin(), drop_end);
    it = s.versions.empty() ? segs_.erase(it) : std::next(it);
  }

  // Pass 2 — coalesce each maximal run of adjacent fully-aggregated
  // segments (contiguous, single-version, epoch <= upto, matching
  // payload-ness) into one record. The merged record takes the max
  // (epoch, seq) of the run — never above a real write, so latest_epoch()
  // stays exact for everything above `upto`.
  // A run whose slices lie end to end in one buffer merges metadata only;
  // any other payload run is gathered into one exact-size buffer, one memcpy
  // per segment. So is a run that is the last holder of a larger buffer, so
  // a dropped neighbour's bytes are not pinned past aggregation.
  auto flat = [upto](const Segment& s) {
    return s.versions.size() == 1 && s.versions[0].epoch <= upto && !s.versions[0].punch;
  };
  for (auto it = segs_.begin(); it != segs_.end(); ++it) {
    if (!flat(it->second)) continue;
    Version& va = it->second.versions[0];
    const bool payload = va.buf != nullptr;
    std::uint64_t len = it->second.length;
    long members = 1;
    bool adjacent = true;  // every member slices va.buf, end to end
    auto last = std::next(it);
    for (; last != segs_.end() && it->first + len == last->first && flat(last->second) &&
           (last->second.versions[0].buf != nullptr) == payload;
         ++last, ++members) {
      const Version& vb = last->second.versions[0];
      va.epoch = std::max(va.epoch, vb.epoch);
      va.seq = std::max(va.seq, vb.seq);
      adjacent = adjacent && vb.buf == va.buf && vb.off == va.off + len;
      len += last->second.length;
      ++res.extents_retired;
    }
    if (payload && (!adjacent || (va.buf.use_count() == members && len < va.buf->size()))) {
      auto gathered = std::make_shared<Buffer>();
      gathered->reserve(len);
      for (auto s = it; s != last; ++s) {
        const std::byte* src = s->second.versions[0].bytes();
        gathered->insert(gathered->end(), src, src + s->second.length);
      }
      va.buf = std::move(gathered);
      va.off = 0;
    }
    it->second.length = len;
    segs_.erase(std::next(it), last);
  }

  // Full punches <= upto are baked into the surviving records.
  std::erase_if(full_punches_, [&](Epoch p) { return p <= upto; });

  // Recompute the exact newest-extent epoch: aggregation may have dropped
  // the previous maximum (e.g. a punch top).
  max_epoch_ = 0;
  for (const auto& [start, s] : segs_) {
    max_epoch_ = std::max(max_epoch_, s.versions.back().epoch);
  }
  audit_payload();
  return res;
}

std::uint64_t ArrayStore::retained_bytes() const {
  std::set<const Buffer*> seen;
  std::uint64_t total = 0;
  for (const auto& [start, s] : segs_) {
    for (const Version& v : s.versions) {
      if (v.buf != nullptr && seen.insert(v.buf.get()).second) total += v.buf->size();
    }
  }
  return total;
}

void ArrayStore::audit_payload() const {
  if constexpr (kAuditEnabled) {
    std::uint64_t held = 0;
    // (buffer, write) -> buffer offset minus store offset, the write's shift.
    std::map<std::pair<const Buffer*, std::uint64_t>, std::uint64_t> shift;
    for (const auto& [start, s] : segs_) {
      for (const Version& v : s.versions) {
        if (v.buf == nullptr) continue;
        const std::uint64_t size = v.buf->size();
        DAOSIM_REQUIRE(v.off <= size && s.length <= size - v.off,
                       "audit: slice [%llu, +%llu) of segment %llu overruns its %llu-byte buffer",
                       static_cast<unsigned long long>(v.off),
                       static_cast<unsigned long long>(s.length),
                       static_cast<unsigned long long>(start),
                       static_cast<unsigned long long>(size));
        const auto [it, fresh] = shift.try_emplace({v.buf.get(), v.seq}, v.off - start);
        DAOSIM_REQUIRE(fresh || it->second == v.off - start,
                       "audit: segment %llu slices write %llu's buffer at %llu, off its shift",
                       static_cast<unsigned long long>(start),
                       static_cast<unsigned long long>(v.seq),
                       static_cast<unsigned long long>(v.off));
        held += s.length;
      }
    }
    DAOSIM_REQUIRE(held == stored_bytes_, "audit: stored_bytes %llu != %llu slice bytes held",
                   static_cast<unsigned long long>(stored_bytes_),
                   static_cast<unsigned long long>(held));
  }
}

}  // namespace daosim::vos
