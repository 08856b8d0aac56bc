#include "vos/value_store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/audit.hpp"
#include "common/error.hpp"

namespace daosim::vos {

// ---------------------------------------------------------------------------
// SingleValueStore

namespace {
/// First version newer than `epoch` in an ascending-epoch vector.
template <typename V>
auto first_after(V& versions, Epoch epoch) {
  return std::upper_bound(versions.begin(), versions.end(), epoch,
                          [](Epoch e, const auto& v) { return e < v.epoch; });
}
}  // namespace

// Stores are epoch-sorted, and writes normally arrive in epoch order — but a
// DTX commit applies at the transaction's prepare-time epoch, and a rebuild
// image just above its task floor, both of which can sit below versions the
// shard's clock has since issued. Sorted insertion keeps every read and
// aggregate path (all of which scan ascending epochs) correct.
void SingleValueStore::put(std::span<const std::byte> value, Epoch epoch) {
  auto pos = first_after(versions_, epoch);
  if (pos != versions_.begin() && std::prev(pos)->epoch == epoch) {
    std::prev(pos)->data.assign(value.begin(), value.end());  // one version per epoch
  } else {
    versions_.insert(pos, Version{epoch, {value.begin(), value.end()}});
  }
}

SingleValueStore::View SingleValueStore::get(Epoch epoch, Epoch floor) const {
  const auto above = first_after(versions_, epoch);
  if (above == versions_.begin() || std::prev(above)->epoch <= floor) return {};
  const Version& v = *std::prev(above);
  return View{true, v.data.size(), std::span<const std::byte>(v.data)};
}

void SingleValueStore::aggregate(Epoch upto, Epoch floor) {
  // Keep the newest version <= upto (unless a punch hides it) plus
  // everything > upto.
  const auto above = first_after(versions_, upto);
  if (above == versions_.begin()) return;
  const auto keep = std::prev(above);
  versions_.erase(versions_.begin(), keep->epoch > floor ? keep : above);
}

// ---------------------------------------------------------------------------
// ArrayStore

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
  for (std::size_t i = 0; i < right.versions.size(); ++i) {
    Version& v = right.versions[i];
    if (!v.merged) {
      v.off += left_len;
      continue;
    }
    // The run splits between its pieces; the piece across x (if any) is
    // sliced in two.
    Run run = std::move(runs_.at(start));
    auto cut = std::partition_point(run.begin(), run.end(),
                                    [x](const Piece& p) { return p.pos < x; });
    Run tail;
    if (cut == run.end() || cut->pos > x) {
      Piece p = *std::prev(cut);
      p.off += x - p.pos;
      p.pos = x;
      tail.push_back(std::move(p));
    }
    tail.insert(tail.end(), std::make_move_iterator(cut), std::make_move_iterator(run.end()));
    run.erase(cut, run.end());
    settle(start, s.versions[i], std::move(run));
    settle(x, v, std::move(tail));
  }
  s.length = left_len;
  segs_.emplace_hint(std::next(it), x, std::move(right));
  audit_payload();
}

void ArrayStore::settle(std::uint64_t start, Version& v, Run run) {
  if (run.size() == 1) {
    Piece& p = run.front();
    v.merged = false;
    v.seq = p.seq;  // the audit keys the slice by the write that adopted it
    v.buf = std::move(p.buf);
    v.off = p.off;
    runs_.erase(start);
  } else {
    v.merged = true;
    v.buf = nullptr;
    v.off = 0;
    runs_.insert_or_assign(start, std::move(run));
  }
}

void ArrayStore::take_pieces(std::uint64_t start, Version& v, Run& run) {
  auto append = [&run](Piece p) {
    if (!run.empty()) {
      const Piece& b = run.back();
      if (b.buf == p.buf && p.off == b.off + (p.pos - b.pos)) return;  // continues b
    }
    run.push_back(std::move(p));
  };
  if (!v.merged) {
    append(Piece{start, v.seq, std::move(v.buf), v.off});
    return;
  }
  auto node = runs_.extract(start);
  if (run.empty()) {
    run = std::move(node.mapped());  // already coalesced
    return;
  }
  for (Piece& p : node.mapped()) append(std::move(p));
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
  s.versions.insert(first_after(s.versions, v.epoch), std::move(v));
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
    return Version{epoch, seq, punch, false, data.buf, data.off + (pos - offset)};
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

const ArrayStore::Version* ArrayStore::newest_at(const Segment& s, Epoch epoch) {
  const auto it = first_after(s.versions, epoch);
  if (it == s.versions.begin()) return nullptr;
  return &*std::prev(it);
}

template <typename Emit>
std::uint64_t ArrayStore::resolve(std::uint64_t offset, std::uint64_t length, Epoch epoch,
                                  Epoch floor, Emit&& emit) const {
  if (length == 0) return 0;
  const std::uint64_t end = offset + length;
  std::uint64_t probes = 1;  // the ordered-index seek
  std::uint64_t count = 0;
  std::uint64_t done = offset;  // every byte below `done` has been emitted
  static const BufferRef kZeros;

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
    if (lo > done) emit(done, lo, kZeros, 0);  // the hole before this run
    if (v->merged) {
      const Run& run = runs_.at(start);
      auto p = std::prev(std::partition_point(run.begin(), run.end(),
                                              [lo](const Piece& q) { return q.pos <= lo; }));
      for (std::uint64_t at = lo; at < hi; ++p) {
        const std::uint64_t to = std::next(p) == run.end() ? hi : std::min(hi, std::next(p)->pos);
        emit(at, to, p->buf, p->off + (at - p->pos));
        at = to;
      }
    } else {
      emit(lo, hi, v->buf, v->off + (lo - start));
    }
    done = hi;
    count += hi - lo;
  }
  if (end > done) emit(done, end, kZeros, 0);
  if (probes_ != nullptr) *probes_ += probes;
  return count;
}

std::uint64_t ArrayStore::read(std::uint64_t offset, std::span<std::byte> out, Epoch epoch,
                               Epoch floor) const {
  // Copies each payload range into `out` and zeroes every other range.
  return resolve(offset, out.size(), epoch, floor,
                 [&](std::uint64_t lo, std::uint64_t hi, const BufferRef& buf, std::uint64_t off) {
                   std::byte* dst = out.data() + (lo - offset);
                   if (buf != nullptr) {
                     std::memcpy(dst, buf->data() + off, std::size_t(hi - lo));
                   } else {
                     std::memset(dst, 0, std::size_t(hi - lo));
                   }
                 });
}

std::uint64_t ArrayStore::read_slices(std::uint64_t offset, std::uint64_t length, Epoch epoch,
                                      std::vector<Slice>& out, Epoch floor) const {
  // Ranges that continue the previous slice (zeros after zeros, or the next
  // bytes of the same buffer) extend it, so a split-up extent still ships
  // as one slice. Only ranges this call emits are merged.
  const std::size_t first = out.size();
  return resolve(offset, length, epoch, floor,
                 [&](std::uint64_t lo, std::uint64_t hi, const BufferRef& buf, std::uint64_t off) {
                   if (buf == nullptr) off = 0;
                   if (out.size() > first && out.back().buf == buf &&
                       (buf == nullptr || out.back().off + out.back().length == off)) {
                     out.back().length += hi - lo;
                   } else {
                     out.push_back(Slice{buf, off, hi - lo});
                   }
                 });
}

std::uint64_t ArrayStore::size(Epoch epoch, Epoch floor) const {
  std::uint64_t probes = 1;
  std::uint64_t max_end = 0;
  // Scan from the highest offset down: the first segment holding any
  // non-punch version in (floor, epoch] decides the size.
  for (auto it = segs_.rbegin(); it != segs_.rend() && max_end == 0; ++it) {
    const Segment& s = it->second;
    probes += 1 + std::uint64_t(std::bit_width(s.versions.size()));
    auto v = first_after(s.versions, epoch);
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

ArrayStore::AggResult ArrayStore::aggregate(Epoch upto, Epoch floor) {
  AggResult res;

  // Pass 1 — per segment, drop every version <= upto except the newest
  // survivor in (floor, upto]. A punch survivor (or one a punch of the key
  // hides) vanishes too: nobody may read below `upto` once aggregated, so a
  // hole needs no record. Survivors keep their original (epoch, seq); a
  // dropped merged version takes its run with it.
  for (auto it = segs_.begin(); it != segs_.end();) {
    Segment& s = it->second;
    const auto above = first_after(s.versions, upto);
    auto drop_end = above;  // the survivor, if any, is the last version <= upto
    if (above != s.versions.begin()) {
      const auto t = std::prev(above);
      if (t->epoch > floor && !t->punch) drop_end = t;
    }
    for (auto v = s.versions.begin(); v != drop_end; ++v) {
      ++res.extents_retired;
      if (v->merged) runs_.erase(it->first);
      if (v->payload()) {
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
  // No payload byte moves: the members' slices become the record's pieces,
  // one piece for each stretch that lies end to end in one buffer, and a
  // record of one piece stays a plain version.
  auto flat = [upto](const Segment& s) {
    return s.versions.size() == 1 && s.versions[0].epoch <= upto && !s.versions[0].punch;
  };
  for (auto it = segs_.begin(); it != segs_.end(); ++it) {
    if (!flat(it->second)) continue;
    Version& va = it->second.versions[0];
    const bool payload = va.payload();
    std::uint64_t len = it->second.length;
    std::uint64_t seq = va.seq;  // the members keep theirs until their pieces are taken
    auto last = std::next(it);
    for (; last != segs_.end() && it->first + len == last->first && flat(last->second) &&
           last->second.versions[0].payload() == payload;
         ++last) {
      const Version& vb = last->second.versions[0];
      va.epoch = std::max(va.epoch, vb.epoch);
      seq = std::max(seq, vb.seq);
      len += last->second.length;
      ++res.extents_retired;
    }
    Run run;
    if (payload && last != std::next(it)) {
      for (auto s = it; s != last; ++s) take_pieces(s->first, s->second.versions[0], run);
    }
    va.seq = seq;  // only now: va's own piece keeps va's seq
    if (!run.empty()) settle(it->first, va, std::move(run));
    it->second.length = len;
    segs_.erase(std::next(it), last);
  }

  // Pass 3 — compact. Per buffer, count the flat records' slices that hold
  // it and the bytes they cover. When they account for every reference and
  // cover less than the buffer, each is copied into an exact-size buffer,
  // so bytes a punch or overwrite retired are not pinned past the pass that
  // retired them. That is the only copy aggregation makes.
  auto each_flat_slice = [&](auto&& visit) {
    for (auto& [start, s] : segs_) {
      if (!flat(s)) continue;
      Version& v = s.versions[0];
      if (v.buf != nullptr) visit(v.buf, v.off, s.length);
      if (!v.merged) continue;
      Run& run = runs_.at(start);
      for (std::size_t i = 0; i < run.size(); ++i) {
        const std::uint64_t to = i + 1 < run.size() ? run[i + 1].pos : start + s.length;
        visit(run[i].buf, run[i].off, to - run[i].pos);
      }
    }
  };
  struct Held {
    long refs = 0;
    long uses = 0;  // the buffer's references, counted before any compaction
    std::uint64_t bytes = 0;
  };
  // Buffers of several references, keyed by address: lookups only. A slice
  // whose buffer is not here held the only reference to it.
  std::unordered_map<const Buffer*, Held> shared;
  each_flat_slice([&](BufferRef& buf, std::uint64_t&, std::uint64_t len) {
    if (buf.use_count() == 1) return;
    Held& c = shared[buf.get()];
    c.uses = buf.use_count();
    ++c.refs;
    c.bytes += len;
  });
  each_flat_slice([&](BufferRef& buf, std::uint64_t& off, std::uint64_t len) {
    const auto it = shared.find(buf.get());
    const Held c = it != shared.end() ? it->second : Held{1, 1, len};
    if (c.refs != c.uses || c.bytes >= buf->size()) return;
    buf = std::make_shared<const Buffer>(buf->begin() + std::ptrdiff_t(off),
                                         buf->begin() + std::ptrdiff_t(off + len));
    off = 0;
  });

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
  auto count = [&](const BufferRef& buf) {
    if (buf != nullptr && seen.insert(buf.get()).second) total += buf->size();
  };
  for (const auto& [start, s] : segs_) {
    for (const Version& v : s.versions) count(v.buf);
  }
  for (const auto& [start, run] : runs_) {
    for (const Piece& p : run) count(p.buf);
  }
  return total;
}

void ArrayStore::audit_payload() const {
  if constexpr (kAuditEnabled) {
    std::uint64_t held = 0;
    std::size_t merged = 0;
    // (buffer, write) -> buffer offset minus store offset, the write's shift.
    std::map<std::pair<const Buffer*, std::uint64_t>, std::uint64_t> shift;
    auto slice = [&](const BufferRef& buf, std::uint64_t off, std::uint64_t pos,
                     std::uint64_t len, std::uint64_t seq) {
      const std::uint64_t size = buf->size();
      DAOSIM_REQUIRE(off <= size && len <= size - off,
                     "audit: slice [%llu, +%llu) at %llu overruns its %llu-byte buffer",
                     static_cast<unsigned long long>(off), static_cast<unsigned long long>(len),
                     static_cast<unsigned long long>(pos), static_cast<unsigned long long>(size));
      const auto [it, fresh] = shift.try_emplace({buf.get(), seq}, off - pos);
      DAOSIM_REQUIRE(fresh || it->second == off - pos,
                     "audit: store offset %llu slices write %llu's buffer at %llu, off its shift",
                     static_cast<unsigned long long>(pos), static_cast<unsigned long long>(seq),
                     static_cast<unsigned long long>(off));
    };
    for (const auto& [start, s] : segs_) {
      std::size_t merged_here = 0;
      for (const Version& v : s.versions) {
        if (v.merged) {
          ++merged_here;
          const auto r = runs_.find(start);
          DAOSIM_REQUIRE(r != runs_.end() && r->second.size() >= 2 &&
                             r->second.front().pos == start,
                         "audit: merged segment %llu has no run of two pieces from its start",
                         static_cast<unsigned long long>(start));
          const Run& run = r->second;
          for (std::size_t i = 0; i < run.size(); ++i) {
            const std::uint64_t to = i + 1 < run.size() ? run[i + 1].pos : start + s.length;
            DAOSIM_REQUIRE(run[i].buf != nullptr && run[i].pos < to,
                           "audit: run of segment %llu does not tile it at %llu",
                           static_cast<unsigned long long>(start),
                           static_cast<unsigned long long>(run[i].pos));
            slice(run[i].buf, run[i].off, run[i].pos, to - run[i].pos, run[i].seq);
          }
        } else if (v.buf != nullptr) {
          slice(v.buf, v.off, start, s.length, v.seq);
        }
        if (v.payload()) held += s.length;
      }
      DAOSIM_REQUIRE(merged_here <= 1, "audit: segment %llu holds %zu merged versions",
                     static_cast<unsigned long long>(start), merged_here);
      merged += merged_here;
    }
    DAOSIM_REQUIRE(merged == runs_.size(), "audit: %zu runs for %zu merged versions",
                   runs_.size(), merged);
    DAOSIM_REQUIRE(held == stored_bytes_, "audit: stored_bytes %llu != %llu slice bytes held",
                   static_cast<unsigned long long>(stored_bytes_),
                   static_cast<unsigned long long>(held));
  }
}

}  // namespace daosim::vos
