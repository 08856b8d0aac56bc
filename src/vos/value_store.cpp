#include "vos/value_store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

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
  // A below-top insert (DTX commit at its prepare-time epoch): position by
  // epoch; upper_bound keeps arrival order among equal epochs, so the
  // resolved visibility stays identical for in-order writers.
  auto pos = std::upper_bound(s.versions.begin(), s.versions.end(), v.epoch,
                              [](Epoch e, const Version& x) { return e < x.epoch; });
  s.versions.insert(pos, std::move(v));
}

void ArrayStore::apply_range(std::uint64_t offset, std::uint64_t length,
                             std::span<const std::byte> data, Epoch epoch, bool punch,
                             bool payload) {
  split_at(offset);
  const std::uint64_t end = offset + length;
  split_at(end);
  const std::uint64_t seq = seq_++;
  // The written bytes are copied once; every segment the write covers gets a
  // slice of that one buffer. The segments tile [offset, end) exactly.
  std::shared_ptr<const Buffer> buf;
  if (payload) {
    buf = std::make_shared<Buffer>(data.begin(), data.end());
    stored_bytes_ += length;
  }
  auto version_at = [&](std::uint64_t pos) {
    return Version{epoch, seq, punch, buf, pos - offset};
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

void ArrayStore::write(std::uint64_t offset, std::uint64_t length,
                       std::span<const std::byte> data, Epoch epoch, PayloadMode mode) {
  if (length == 0) return;
  // An empty span with store mode means "no payload shipped" (callers doing
  // metadata-only I/O against a storing container): the extent reads as zeros.
  const bool payload = mode == PayloadMode::store && !data.empty();
  if (payload) {
    DAOSIM_REQUIRE(data.size() == length, "payload size mismatch (%zu vs %llu)", data.size(),
                   static_cast<unsigned long long>(length));
  }
  apply_range(offset, length, data, epoch, /*punch=*/false, payload);
}

void ArrayStore::punch_range(std::uint64_t offset, std::uint64_t length, Epoch epoch) {
  if (length == 0) return;
  apply_range(offset, length, {}, epoch, /*punch=*/true, /*payload=*/false);
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

std::uint64_t ArrayStore::read(std::uint64_t offset, std::span<std::byte> out,
                               Epoch epoch) const {
  return resolve(offset, out, nullptr, epoch);
}

std::uint64_t ArrayStore::read_masked(std::uint64_t offset, std::span<std::byte> out,
                                      std::vector<bool>& filled, Epoch epoch) const {
  filled.assign(out.size(), false);
  return resolve(offset, out, &filled, epoch);
}

std::uint64_t ArrayStore::resolve(std::uint64_t offset, std::span<std::byte> out,
                                  std::vector<bool>* filled, Epoch epoch) const {
  if (out.empty()) return 0;
  const Epoch floor = last_full_punch_at(epoch);
  const std::uint64_t end = offset + out.size();
  std::uint64_t probes = 1;  // the ordered-index seek
  std::uint64_t count = 0;
  // Every byte of `out` below `done` is written. Holes are zeroed lazily, in
  // one memset per run up to the next visible segment (or the end).
  std::uint64_t done = offset;
  auto zero_to = [&](std::uint64_t x) {
    if (x > done) std::memset(out.data() + (done - offset), 0, std::size_t(x - done));
    done = x;
  };

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
    if (v->buf == nullptr) {
      zero_to(hi);  // a payload-free version reads as zeros but counts as filled
    } else {
      zero_to(lo);
      std::memcpy(out.data() + (lo - offset), v->bytes() + (lo - start),
                  std::size_t(hi - lo));
      done = hi;
    }
    if (filled != nullptr) {
      std::fill(filled->begin() + std::ptrdiff_t(lo - offset),
                filled->begin() + std::ptrdiff_t(hi - offset), true);
    }
    count += hi - lo;
  }
  zero_to(end);
  if (probes_ != nullptr) *probes_ += probes;
  return count;
}

void ArrayStore::mask_newer_than(std::uint64_t offset, Epoch since,
                                 std::vector<bool>& mask) const {
  if (mask.empty()) return;
  if (!full_punches_.empty() && full_punches_.back() > since) {
    std::fill(mask.begin(), mask.end(), true);
    return;
  }
  const std::uint64_t end = offset + mask.size();
  std::uint64_t probes = 1;
  auto it = segs_.upper_bound(offset);
  if (it != segs_.begin()) --it;
  for (; it != segs_.end() && it->first < end; ++it) {
    const std::uint64_t lo = std::max(offset, it->first);
    const std::uint64_t hi = std::min(end, it->first + it->second.length);
    if (lo >= hi) continue;
    ++probes;
    // The segment's newest version is versions.back(); every version spans
    // the whole segment, so one comparison decides all its bytes.
    if (it->second.versions.back().epoch <= since) continue;
    std::fill(mask.begin() + std::ptrdiff_t(lo - offset),
              mask.begin() + std::ptrdiff_t(hi - offset), true);
  }
  if (probes_ != nullptr) *probes_ += probes;
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
  // (epoch, seq) of the run — never above a real write, so
  // latest_epoch()/mask_newer_than() stay exact for everything above `upto`.
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

void ArrayStore::audit_payload() const {
  if constexpr (kAuditEnabled) {
    std::uint64_t held = 0;
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
        held += s.length;
      }
    }
    DAOSIM_REQUIRE(held == stored_bytes_, "audit: stored_bytes %llu != %llu slice bytes held",
                   static_cast<unsigned long long>(stored_bytes_),
                   static_cast<unsigned long long>(held));
  }
}

}  // namespace daosim::vos
