// Property tests for the evtree ArrayStore against a flat op-list oracle:
// randomized write / range-punch / full-punch / below-top-commit sequences
// must read byte-identically (data, fill count, size) at every sampled
// epoch, before and after aggregation points, through read() and
// read_slices() over windows that start and end mid-segment, with some
// writes adopting two slices of one buffer. Also pins the equal-epoch
// arrival-order rule (DTX below-top commits), the exactness
// of the AggResult accounting, the probe-counter depth signal the endurance
// bench watches, reads across the splits and coalesces of shared payload
// slices (the overwrite_prod shape among them), and how long an adopted
// batch buffer stays alive.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "vos/value_store.hpp"

namespace daosim::vos {
namespace {

// One recorded operation; arrival order is the vector order. A write's byte
// at position b reads as uint8_t(seed + (b - off)).
struct Op {
  std::uint64_t off = 0;
  std::uint64_t len = 0;
  Epoch epoch = 0;
  bool punch = false;
  std::uint8_t seed = 0;
};

// Flat-overlay oracle: replays the op list per query, no index. Visibility
// of byte b at epoch e = the op covering b with the maximum (epoch, arrival)
// among epochs <= e, holed below the newest full punch <= e.
struct FlatOracle {
  std::uint64_t space = 0;
  std::vector<Op> ops;
  std::vector<Epoch> fulls;  // ascending
  Epoch agg = 0;             // last aggregation point applied to the store

  Epoch floor_at(Epoch e) const {
    Epoch f = 0;
    for (Epoch p : fulls) {
      if (p <= e) f = p;
    }
    return f;
  }

  void read(Epoch e, std::vector<std::uint8_t>& img, std::vector<bool>& filled) const {
    img.assign(space, 0);
    filled.assign(space, false);
    const Epoch floor = floor_at(e);
    for (std::uint64_t b = 0; b < space; ++b) {
      int best = -1;
      for (int i = 0; i < int(ops.size()); ++i) {
        const Op& o = ops[i];
        if (o.epoch > e || b < o.off || b >= o.off + o.len) continue;
        if (best < 0 || o.epoch >= ops[best].epoch) best = i;  // ties: later arrival
      }
      if (best < 0 || ops[best].epoch <= floor || ops[best].punch) continue;
      img[b] = std::uint8_t(ops[best].seed + (b - ops[best].off));
      filled[b] = true;
    }
  }

  std::uint64_t size(Epoch e) const {
    const Epoch floor = floor_at(e);
    std::uint64_t hi = 0;
    for (const Op& o : ops) {
      if (!o.punch && o.epoch > std::max(floor, agg) && o.epoch <= e) {
        hi = std::max(hi, o.off + o.len);
      }
    }
    if (agg > 0 && floor < agg) {
      // Aggregation materializes the image at the agg point (matching the
      // pre-evtree flat store): a write later shadowed by a range punch loses
      // its record, so below the agg point only the visible tail counts.
      std::vector<std::uint8_t> img;
      std::vector<bool> fill;
      read(agg, img, fill);
      for (std::uint64_t b = space; b > 0; --b) {
        if (fill[b - 1]) {
          hi = std::max(hi, b);
          break;
        }
      }
    }
    return hi;
  }
};

std::vector<std::byte> payload_of(const Op& o) {
  std::vector<std::byte> d(o.len);
  for (std::uint64_t i = 0; i < o.len; ++i) d[i] = std::byte(std::uint8_t(o.seed + i));
  return d;
}

// Reads [lo, hi) through read() and read_slices() into buffers pre-filled
// with 0xA5, so a hole, range punch or full-punch floor the
// resolver leaves unwritten shows as a wrong byte. Bytes at or past the
// oracle's space read as unfilled zeros.
void check_window(const ArrayStore& a, const std::vector<std::uint8_t>& want_img,
                  const std::vector<bool>& want_fill, std::uint64_t lo, std::uint64_t hi,
                  Epoch e, const char* where) {
  std::uint64_t want_count = 0;
  for (std::uint64_t b = lo; b < hi && b < want_fill.size(); ++b) want_count += want_fill[b];
  std::vector<std::byte> plain(hi - lo, std::byte{0xA5});
  ASSERT_EQ(a.read(lo, plain, e), want_count) << where << " epoch " << e << " [" << lo << ", "
                                              << hi << ")";
  // The fetch path's consumer of the same resolver: the slices must tile the
  // window and concatenate to read()'s bytes, with the same fill count.
  std::vector<Slice> slices{Slice{nullptr, 0, 1}};  // a prior entry is kept
  ASSERT_EQ(a.read_slices(lo, hi - lo, e, slices), want_count)
      << where << " epoch " << e << " [" << lo << ", " << hi << ")";
  std::uint64_t tiled = 0;
  for (std::size_t i = 1; i < slices.size(); ++i) tiled += slices[i].length;
  ASSERT_EQ(slices[0].length, 1u) << where;
  ASSERT_EQ(tiled, hi - lo) << where << " epoch " << e;
  std::vector<std::byte> joined(hi - lo, std::byte{0xA5});
  SliceReader(std::span<const Slice>(slices).subspan(1)).read(joined);
  for (std::uint64_t b = lo; b < hi; ++b) {
    const bool in = b < want_img.size();
    const std::uint8_t want = in ? want_img[b] : 0;
    ASSERT_EQ(std::uint8_t(plain[b - lo]), want) << where << " epoch " << e << " byte " << b;
    ASSERT_EQ(std::uint8_t(joined[b - lo]), want) << where << " epoch " << e << " byte " << b;
  }
}

// The whole space, plus windows that start and end mid-segment: inside the
// last few ops (whose boundaries are segment boundaries), across the middle,
// and running past the written space.
void check_view(const ArrayStore& a, const FlatOracle& oracle, Epoch e, const char* where) {
  std::vector<std::uint8_t> want_img;
  std::vector<bool> want_fill;
  oracle.read(e, want_img, want_fill);
  const std::uint64_t space = oracle.space;
  check_window(a, want_img, want_fill, 0, space, e, where);
  check_window(a, want_img, want_fill, 1, space - 1, e, where);
  check_window(a, want_img, want_fill, space / 2 - 7, space / 2 + 9, e, where);
  check_window(a, want_img, want_fill, space - 5, space + 11, e, where);
  const std::size_t n = oracle.ops.size();
  for (std::size_t i = n > 4 ? n - 4 : 0; i < n; ++i) {
    const Op& o = oracle.ops[i];
    check_window(a, want_img, want_fill, o.off + 1, o.off + o.len + 3, e, where);
    if (o.len > 2) check_window(a, want_img, want_fill, o.off + 1, o.off + o.len - 1, e, where);
  }
  ASSERT_EQ(a.size(e), oracle.size(e)) << where << " epoch " << e;
}

class EvtreeOracleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EvtreeOracleProperty, RandomOpsMatchFlatOracle) {
  sim::Xoshiro256 rng(GetParam() * 0x9E3779B97F4A7C15ULL + 7);
  const std::uint64_t space = 256;
  ArrayStore a;
  FlatOracle oracle{space, {}, {}};

  Epoch top = 0;       // newest epoch issued so far
  Epoch agg_floor = 0; // last aggregation point; below-top ops stay above it

  auto sample_epochs = [&](std::vector<Epoch>& es) {
    es.clear();
    for (Epoch e = top > 3 ? top - 3 : 1; e <= top; ++e) es.push_back(e);
    for (int i = 0; i < 8; ++i) {
      const Epoch e = agg_floor + 1 + rng.uniform(top > agg_floor ? top - agg_floor : 1);
      es.push_back(std::min<Epoch>(e, top));
    }
    es.push_back(kEpochMax);
  };

  std::vector<Epoch> epochs;
  for (int step = 1; step <= 100; ++step) {
    const int kind = int(rng.uniform(100));
    Epoch e;
    if (kind < 10 && top > agg_floor + 1) {
      // Below-top epoch (a DTX committing under already-applied writes);
      // may collide with an existing epoch, exercising arrival order.
      e = agg_floor + 1 + rng.uniform(top - agg_floor);
    } else {
      top += 1 + rng.uniform(3);
      e = top;
    }
    if (kind >= 90 && e == top) {
      a.punch_all(e);
      oracle.fulls.push_back(e);
    } else if (kind >= 70) {
      Op o{rng.uniform(space - 1), 0, e, true, 0};
      o.len = 1 + rng.uniform(std::min<std::uint64_t>(48, space - o.off));
      a.punch_range(o.off, o.len, o.epoch);
      oracle.ops.push_back(o);
    } else {
      Op o{rng.uniform(space - 1), 0, e, false, std::uint8_t(rng.uniform(256))};
      o.len = 1 + rng.uniform(std::min<std::uint64_t>(48, space - o.off));
      const std::vector<std::byte> bytes = payload_of(o);
      if (o.len >= 2 && rng.uniform(2) == 0) {
        // One request buffer holding two extents in reverse order, as a
        // batched update may lay them out: the store adopts two slices of it
        // that sit side by side in the store but not in the buffer.
        const std::uint64_t cut = 1 + rng.uniform(o.len - 1);
        auto buf = std::make_shared<Buffer>(bytes.begin() + std::ptrdiff_t(cut), bytes.end());
        buf->insert(buf->end(), bytes.begin(), bytes.begin() + std::ptrdiff_t(cut));
        a.write(o.off, Slice{buf, o.len - cut, cut}, o.epoch, PayloadMode::store);
        a.write(o.off + cut, Slice{buf, 0, o.len - cut}, o.epoch, PayloadMode::store);
        oracle.ops.push_back(Op{o.off, cut, o.epoch, false, o.seed});
        oracle.ops.push_back(
            Op{o.off + cut, o.len - cut, o.epoch, false, std::uint8_t(o.seed + cut)});
      } else {
        a.write(o.off, copy_slice(bytes), o.epoch, PayloadMode::store);
        oracle.ops.push_back(o);
      }
    }

    if (step == 40 || step == 80 || step == 100) {
      sample_epochs(epochs);
      for (Epoch q : epochs) check_view(a, oracle, q, "pre-agg");

      // Aggregate to the midpoint; retired accounting must be exact.
      const Epoch upto = agg_floor + (top - agg_floor) / 2;
      if (upto > agg_floor) {
        const std::size_t before = a.extent_count();
        const ArrayStore::AggResult r = a.aggregate(upto);
        ASSERT_EQ(before - a.extent_count(), r.extents_retired) << "step " << step;
        agg_floor = upto;
        oracle.agg = upto;
        // Every view at or above the aggregation point is preserved.
        sample_epochs(epochs);
        for (Epoch q : epochs) {
          if (q >= agg_floor) check_view(a, oracle, q, "post-agg");
        }
      }
    }
  }

  // Final full flatten: one version per segment, stored bytes collapse to
  // exactly the bytes visible at the top epoch, re-aggregation is a no-op.
  const std::size_t before = a.extent_count();
  const ArrayStore::AggResult r = a.aggregate(top);
  oracle.agg = top;
  ASSERT_EQ(before - a.extent_count(), r.extents_retired);
  ASSERT_EQ(a.extent_count(), a.segment_count());
  std::vector<std::uint8_t> img;
  std::vector<bool> fill;
  oracle.read(top, img, fill);
  const std::uint64_t visible = std::uint64_t(std::count(fill.begin(), fill.end(), true));
  ASSERT_EQ(a.stored_bytes(), visible);
  check_view(a, oracle, top, "final");
  check_view(a, oracle, kEpochMax, "final");
  const ArrayStore::AggResult again = a.aggregate(top);
  ASSERT_EQ(again.extents_retired, 0u);
  ASSERT_EQ(again.bytes_flattened, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvtreeOracleProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// Discard mode: no payload retained, but fill counts and sizes stay
// oracle-exact and stored_bytes stays zero.
TEST(EvtreeDiscard, MasksAndSizesWithoutPayload) {
  sim::Xoshiro256 rng(0xD15CA4D);
  const std::uint64_t space = 128;
  ArrayStore a;
  FlatOracle oracle{space, {}, {}};
  Epoch top = 0;
  for (int step = 0; step < 60; ++step) {
    top += 1;
    const int kind = int(rng.uniform(10));
    if (kind >= 9) {
      a.punch_all(top);
      oracle.fulls.push_back(top);
    } else if (kind >= 7) {
      Op o{rng.uniform(space - 1), 0, top, true, 0};
      o.len = 1 + rng.uniform(std::min<std::uint64_t>(32, space - o.off));
      a.punch_range(o.off, o.len, o.epoch);
      oracle.ops.push_back(o);
    } else {
      Op o{rng.uniform(space - 1), 0, top, false, 0};
      o.len = 1 + rng.uniform(std::min<std::uint64_t>(32, space - o.off));
      a.write(o.off, Slice{nullptr, 0, o.len}, o.epoch, PayloadMode::discard);
      oracle.ops.push_back(o);
    }
  }
  EXPECT_EQ(a.stored_bytes(), 0u);
  for (Epoch e : std::vector<Epoch>{5, 20, 33, 47, top, kEpochMax}) {
    std::vector<std::uint8_t> img;
    std::vector<bool> want;
    oracle.read(e, img, want);
    const std::vector<std::uint8_t> zeros(space, 0);  // discard mode: zeros, fill count only
    check_window(a, zeros, want, 0, space, e, "discard");
    check_window(a, zeros, want, 3, space - 2, e, "discard");
    check_window(a, zeros, want, space / 3, space / 3 + 21, e, "discard");
    check_window(a, zeros, want, space - 9, space + 7, e, "discard");
    ASSERT_EQ(a.size(e), oracle.size(e)) << "epoch " << e;
  }
  const ArrayStore::AggResult r = a.aggregate(top / 2);
  oracle.agg = top / 2;
  EXPECT_EQ(r.bytes_flattened, 0u);  // nothing stored, nothing flattened
  EXPECT_EQ(a.stored_bytes(), 0u);
  for (Epoch e : std::vector<Epoch>{Epoch(top / 2), top, kEpochMax}) {
    ASSERT_EQ(a.size(e), oracle.size(e)) << "post-agg epoch " << e;
  }
}

// Equal epochs resolve by arrival order — the rule a DTX commit below the
// top relies on (insert_sorted keeps later arrivals after earlier ones).
TEST(EvtreeOrder, EqualEpochKeepsArrivalOrder) {
  ArrayStore a;
  std::vector<std::byte> first(8, std::byte{0x11});
  std::vector<std::byte> second(8, std::byte{0x22});
  a.write(0, copy_slice(first), 5, PayloadMode::store);
  a.write(0, copy_slice(second), 5, PayloadMode::store);  // same epoch, later arrival
  std::vector<std::byte> out(8);
  a.read(0, out, 5);
  EXPECT_EQ(out[0], std::byte{0x22});

  // A below-top commit at the same epoch as an existing version also lands
  // after it, not before.
  std::vector<std::byte> newer(8, std::byte{0x33});
  a.write(0, copy_slice(newer), 9, PayloadMode::store);
  std::vector<std::byte> late(8, std::byte{0x44});
  a.write(0, copy_slice(late), 5, PayloadMode::store);  // below-top, equal epoch
  a.read(0, out, 5);
  EXPECT_EQ(out[0], std::byte{0x44});  // latest arrival among epoch 5
  a.read(0, out, 9);
  EXPECT_EQ(out[0], std::byte{0x33});  // epoch 9 still wins above
}

// The probe counter is the endurance bench's depth signal: overwriting the
// same range for many epochs grows the per-read cost logarithmically, and
// aggregation collapses it back to the flat-read floor.
TEST(EvtreeProbes, AggregationRestoresFlatReadCost) {
  ArrayStore a;
  std::uint64_t probes = 0;
  a.bind_probe_counter(&probes);
  std::vector<std::byte> data(64, std::byte{0xAB});
  for (Epoch e = 1; e <= 64; ++e) a.write(0, copy_slice(data), e, PayloadMode::store);

  std::vector<std::byte> out(64);
  probes = 0;
  a.read(0, out, kEpochMax);
  const std::uint64_t deep = probes;
  // 1 seek + 1 segment * (1 + ceil-log2 of a 64-deep stack).
  EXPECT_EQ(deep, 1 + 1 + 7u);

  a.aggregate(64);
  EXPECT_EQ(a.extent_count(), 1u);
  probes = 0;
  a.read(0, out, kEpochMax);
  EXPECT_EQ(probes, 1 + 1 + 1u);  // flat floor: depth-1 stack
  EXPECT_LT(probes, deep);
  EXPECT_EQ(out[0], std::byte{0xAB});
}

// Byte b of pass p in the slice tests: differs from every other pass at
// every byte, and varies within a 64 KiB transfer.
std::byte pass_byte(std::uint64_t b, int p) {
  return std::byte(std::uint8_t((b >> 3) ^ (b * 7) ^ std::uint64_t(p * 0x5B)));
}

std::vector<std::byte> pass_bytes(std::uint64_t off, std::uint64_t len, int p) {
  std::vector<std::byte> d(len);
  for (std::uint64_t i = 0; i < len; ++i) d[i] = pass_byte(off + i, p);
  return d;
}

// Reads [lo, hi) at `e` and expects every byte to be written, byte b equal to
// pass_byte(b, pass_at(b)).
template <class PassAt>
void expect_pass_bytes(const ArrayStore& a, std::uint64_t lo, std::uint64_t hi, Epoch e,
                       PassAt pass_at) {
  std::vector<std::byte> out(hi - lo, std::byte{0xA5});
  ASSERT_EQ(a.read(lo, out, e), hi - lo) << "[" << lo << ", " << hi << ") epoch " << e;
  for (std::uint64_t b = lo; b < hi; ++b) {
    ASSERT_EQ(out[b - lo], pass_byte(b, pass_at(b))) << "byte " << b << " epoch " << e;
  }
}

// The overwrite_prod VOS shape: one 1 MiB akey rewritten pass after pass in
// 64 KiB store-mode transfers, aggregated after each pass. Every pass splits
// the flattened extent 16 times and merges 16 fresh transfers back into one
// extent whose pieces are the transfers' own buffers (no byte is copied);
// reads and stored bytes must come out exact, and so must the AggResult
// accounting: 15 merges on the first pass, then 16 shadowed versions
// dropped plus 15 merges on every later one.
TEST(EvtreeSlices, OverwriteProdShapeFlattensEachPass) {
  constexpr std::uint64_t kXfer = 64 * 1024;
  constexpr std::uint64_t kAkey = 16 * kXfer;
  ArrayStore a;
  Epoch e = 0;
  for (int p = 0; p < 4; ++p) {
    const Epoch prev_top = e;
    std::vector<std::weak_ptr<const Buffer>> written(16);  // by store offset
    for (std::uint64_t i = 0; i < 16; ++i) {
      const std::uint64_t off = (i * std::uint64_t(2 * p + 1)) % 16 * kXfer;  // per-pass order
      const Slice data = copy_slice(pass_bytes(off, kXfer, p));
      written[off / kXfer] = data.buf;
      a.write(off, data, ++e, PayloadMode::store);
    }
    EXPECT_EQ(a.stored_bytes(), kAkey * (p == 0 ? 1 : 2)) << "pass " << p;
    EXPECT_EQ(a.segment_count(), 16u) << "pass " << p;
    // Before aggregation the previous pass is still readable under this one.
    if (p > 0) expect_pass_bytes(a, 0, kAkey, prev_top, [&](std::uint64_t) { return p - 1; });
    expect_pass_bytes(a, 0, kAkey, e, [&](std::uint64_t) { return p; });

    const ArrayStore::AggResult r = a.aggregate(e);
    EXPECT_EQ(r.extents_retired, p == 0 ? 15u : 31u) << "pass " << p;
    EXPECT_EQ(r.bytes_flattened, p == 0 ? 0u : kAkey) << "pass " << p;
    EXPECT_EQ(a.stored_bytes(), kAkey) << "pass " << p;
    EXPECT_EQ(a.segment_count(), 1u) << "pass " << p;
    EXPECT_EQ(a.extent_count(), 1u) << "pass " << p;
    EXPECT_EQ(a.latest_epoch(), e) << "pass " << p;
    expect_pass_bytes(a, 0, kAkey, kEpochMax, [&](std::uint64_t) { return p; });
    expect_pass_bytes(a, kXfer - 5, 3 * kXfer + 9, e, [&](std::uint64_t) { return p; });
    // The merged extent reads as the pass's own write buffers, in order, and
    // pins no byte beyond them.
    std::vector<Slice> slices;
    ASSERT_EQ(a.read_slices(0, kAkey, kEpochMax, slices), kAkey);
    ASSERT_EQ(slices.size(), 16u) << "pass " << p;
    for (std::uint64_t k = 0; k < 16; ++k) {
      EXPECT_EQ(slices[k].buf, written[k].lock()) << "pass " << p << " transfer " << k;
      EXPECT_EQ(slices[k].off, 0u);
      EXPECT_EQ(slices[k].length, kXfer);
    }
    EXPECT_EQ(a.retained_bytes(), a.stored_bytes()) << "pass " << p;
  }
}

// Overwriting the middle of a coalesced extent cuts it in three; windows
// across either cut read the old bytes at the old epoch and the new bytes at
// the new one, before and after the cut-up extent is aggregated again.
TEST(EvtreeSlices, MidOverwriteOfCoalescedExtentReadsAcrossCuts) {
  constexpr std::uint64_t kLen = 12 * 1024;
  constexpr std::uint64_t kCutLo = 5000;
  constexpr std::uint64_t kCutHi = 7000;
  ArrayStore a;
  for (Epoch e = 1; e <= 3; ++e) {
    const std::uint64_t off = (e - 1) * 4096;
    a.write(off, copy_slice(pass_bytes(off, 4096, 0)), e, PayloadMode::store);
  }
  ASSERT_EQ(a.aggregate(3).extents_retired, 2u);
  ASSERT_EQ(a.segment_count(), 1u);

  a.write(kCutLo, copy_slice(pass_bytes(kCutLo, kCutHi - kCutLo, 1)), 4, PayloadMode::store);
  EXPECT_EQ(a.segment_count(), 3u);
  EXPECT_EQ(a.stored_bytes(), kLen + (kCutHi - kCutLo));
  auto new_in_cut = [&](std::uint64_t b) { return b >= kCutLo && b < kCutHi ? 1 : 0; };
  auto windows = [&](const char* where) {
    SCOPED_TRACE(where);
    for (auto [lo, hi] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {kCutLo - 9, kCutLo + 11}, {kCutHi - 13, kCutHi + 7}, {kCutLo - 1, kCutHi + 1},
             {kCutLo + 1, kCutHi - 1}, {0, kLen}}) {
      expect_pass_bytes(a, lo, hi, 4, new_in_cut);
      expect_pass_bytes(a, lo, hi, kEpochMax, new_in_cut);
    }
  };
  for (auto [lo, hi] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {kCutLo - 9, kCutLo + 11}, {kCutHi - 13, kCutHi + 7}, {0, kLen}}) {
    expect_pass_bytes(a, lo, hi, 3, [](std::uint64_t) { return 0; });
  }
  windows("before re-aggregation");

  // Three single-version segments: two slices of the coalesced extent around
  // a fresh one. They merge back into one extent; the middle write's buffer
  // has only the two slices around the cut left as holders, which are
  // compacted, so no dropped byte stays pinned.
  const ArrayStore::AggResult r = a.aggregate(4);
  EXPECT_EQ(r.extents_retired, 3u);
  EXPECT_EQ(r.bytes_flattened, kCutHi - kCutLo);
  EXPECT_EQ(a.segment_count(), 1u);
  EXPECT_EQ(a.stored_bytes(), kLen);
  EXPECT_EQ(a.retained_bytes(), kLen);
  windows("after re-aggregation");
}

// A merged extent keeps its pieces: five writes of uneven length (one of
// them two reversed slices of one buffer) merge into one extent, a newer
// write across a piece boundary and another inside a piece split it, and
// re-aggregation merges it again. Windows across every piece and cut
// boundary read exact at every step. The untouched pieces keep slicing the
// buffers they were written from; the cut ones, now the last holders of
// larger buffers, are compacted, so no dropped byte stays pinned.
TEST(EvtreeSlices, MergedRunSplitsAndReaggregatesAcrossPieces) {
  ArrayStore a;
  std::vector<std::uint64_t> bounds{0};
  std::vector<std::weak_ptr<const Buffer>> bufs;  // by piece
  Epoch e = 0;
  for (std::uint64_t len : {3000u, 4096u, 1500u, 5000u, 2500u}) {
    const std::uint64_t off = bounds.back();
    if (len == 5000) {
      // One buffer, its halves stored in reverse: two pieces of one buffer
      // that do not lie end to end in it.
      const std::vector<std::byte> d = pass_bytes(off, len, 0);
      auto buf = std::make_shared<Buffer>(d.begin() + 2000, d.end());
      buf->insert(buf->end(), d.begin(), d.begin() + 2000);
      a.write(off, Slice{buf, 3000, 2000}, ++e, PayloadMode::store);
      a.write(off + 2000, Slice{buf, 0, 3000}, e, PayloadMode::store);
      bounds.push_back(off + 2000);
      bufs.push_back(buf);
      bufs.push_back(buf);
    } else {
      const Slice data = copy_slice(pass_bytes(off, len, 0));
      a.write(off, data, ++e, PayloadMode::store);
      bufs.push_back(data.buf);
    }
    bounds.push_back(off + len);
  }
  const std::uint64_t kLen = bounds.back();
  auto boundary_windows = [&](const std::vector<std::uint64_t>& at, Epoch q, auto pass_at) {
    for (std::uint64_t b : at) {
      if (b == 0 || b == kLen) continue;
      expect_pass_bytes(a, b - 1, b + 1, q, pass_at);
      expect_pass_bytes(a, b - 5, std::min(kLen, b + 7), q, pass_at);
    }
    expect_pass_bytes(a, 0, kLen, q, pass_at);
  };
  auto old_bytes = [](std::uint64_t) { return 0; };

  ArrayStore::AggResult r = a.aggregate(e);
  EXPECT_EQ(r.extents_retired, 5u);
  EXPECT_EQ(r.bytes_flattened, 0u);
  EXPECT_EQ(a.segment_count(), 1u);
  EXPECT_EQ(a.extent_count(), 1u);
  std::vector<Slice> slices;
  ASSERT_EQ(a.read_slices(0, kLen, kEpochMax, slices), kLen);
  ASSERT_EQ(slices.size(), bufs.size());
  for (std::size_t k = 0; k < slices.size(); ++k) {
    EXPECT_EQ(slices[k].buf, bufs[k].lock()) << "piece " << k;
    EXPECT_EQ(slices[k].length, bounds[k + 1] - bounds[k]) << "piece " << k;
  }
  boundary_windows(bounds, kEpochMax, old_bytes);
  EXPECT_EQ(a.retained_bytes(), a.stored_bytes());
  slices.clear();  // a reply holding them would keep every buffer whole

  // A newer write across the boundary of pieces 1 and 2 and one inside
  // piece 3 (the second half of the reversed buffer).
  const std::uint64_t kA = bounds[2] - 700, kAEnd = bounds[2] + 900;
  const std::uint64_t kB = bounds[4] + 100, kBEnd = bounds[4] + 400;
  a.write(kA, copy_slice(pass_bytes(kA, kAEnd - kA, 1)), ++e, PayloadMode::store);
  a.write(kB, copy_slice(pass_bytes(kB, kBEnd - kB, 1)), ++e, PayloadMode::store);
  EXPECT_EQ(a.segment_count(), 5u);
  EXPECT_EQ(a.stored_bytes(), kLen + (kAEnd - kA) + (kBEnd - kB));
  auto new_bytes = [&](std::uint64_t b) {
    return (b >= kA && b < kAEnd) || (b >= kB && b < kBEnd) ? 1 : 0;
  };
  std::vector<std::uint64_t> cuts = bounds;
  cuts.insert(cuts.end(), {kA, kAEnd, kB, kBEnd});
  std::sort(cuts.begin(), cuts.end());
  boundary_windows(cuts, e - 2, old_bytes);
  boundary_windows(cuts, e, new_bytes);

  r = a.aggregate(e);
  EXPECT_EQ(r.extents_retired, 2u + 4u);  // two shadowed versions, four merges
  EXPECT_EQ(r.bytes_flattened, (kAEnd - kA) + (kBEnd - kB));
  EXPECT_EQ(a.segment_count(), 1u);
  EXPECT_EQ(a.extent_count(), 1u);
  EXPECT_EQ(a.stored_bytes(), kLen);
  boundary_windows(cuts, e, new_bytes);
  boundary_windows(cuts, kEpochMax, new_bytes);
  // Pieces 0 and 5 are untouched and still slice their own buffers; the
  // buffers of pieces 1 to 4 lost bytes to the newer writes and were
  // released for exact-size copies.
  slices.clear();
  ASSERT_EQ(a.read_slices(0, kLen, kEpochMax, slices), kLen);
  EXPECT_EQ(slices.front().buf, bufs[0].lock());
  EXPECT_EQ(slices.front().length, bounds[1]);
  EXPECT_EQ(slices.back().buf, bufs[5].lock());
  EXPECT_EQ(slices.back().length, kLen - bounds[5]);
  for (std::size_t k = 1; k <= 4; ++k) EXPECT_TRUE(bufs[k].expired()) << "piece " << k;
  EXPECT_EQ(a.retained_bytes(), a.stored_bytes());
}

// Coalesce runs that mix slices lying end to end in one buffer with fresh
// buffers, and a run made only of end-to-end slices of one buffer (a
// below-top commit that aggregation drops again).
TEST(EvtreeSlices, CoalesceMixesSharedAndFreshBuffers) {
  ArrayStore a;
  // [0, 8K) at epoch 1, then [4K, 16K) at epoch 2 and [16K, 20K) at epoch 3:
  // after aggregation [4K, 8K) and [8K, 16K) slice the epoch-2 buffer end to
  // end, between a slice of the epoch-1 buffer and a fresh one.
  a.write(0, copy_slice(pass_bytes(0, 8192, 0)), 1, PayloadMode::store);
  a.write(4096, copy_slice(pass_bytes(4096, 12288, 1)), 2, PayloadMode::store);
  a.write(16384, copy_slice(pass_bytes(16384, 4096, 2)), 3, PayloadMode::store);
  auto pass_of = [](std::uint64_t b) { return b < 4096 ? 0 : b < 16384 ? 1 : 2; };
  EXPECT_EQ(a.segment_count(), 4u);
  ArrayStore::AggResult r = a.aggregate(3);
  EXPECT_EQ(r.extents_retired, 4u);  // the shadowed epoch-1 slice + 3 merges
  EXPECT_EQ(r.bytes_flattened, 4096u);
  EXPECT_EQ(a.segment_count(), 1u);
  EXPECT_EQ(a.stored_bytes(), 20480u);
  // Three pieces: the epoch-1 slice (compacted, as the last holder of a
  // larger buffer), the epoch-2 buffer's two slices as one, the fresh one.
  std::vector<Slice> slices;
  a.read_slices(0, 20480, kEpochMax, slices);
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[1].length, 12288u);
  EXPECT_EQ(a.retained_bytes(), a.stored_bytes());
  slices.clear();
  expect_pass_bytes(a, 0, 20480, kEpochMax, pass_of);
  expect_pass_bytes(a, 4090, 16390, 3, pass_of);

  // Past a hole, a below-top commit at epoch 4 under a write at epoch 5:
  // the epoch-5 buffer is split around it and, once aggregation drops the
  // epoch-4 version, its three slices lie end to end and merge into one
  // piece: a plain version again.
  a.write(24576, copy_slice(pass_bytes(24576, 8192, 3)), 5, PayloadMode::store);
  a.write(26000, copy_slice(pass_bytes(26000, 1000, 0)), 4, PayloadMode::store);
  EXPECT_EQ(a.segment_count(), 4u);
  r = a.aggregate(5);
  EXPECT_EQ(r.extents_retired, 3u);  // the epoch-4 version + 2 merges
  EXPECT_EQ(r.bytes_flattened, 1000u);
  EXPECT_EQ(a.segment_count(), 2u);
  EXPECT_EQ(a.stored_bytes(), 28672u);
  auto pass_of2 = [&](std::uint64_t b) { return b < 20480 ? pass_of(b) : 3; };
  expect_pass_bytes(a, 0, 20480, kEpochMax, pass_of2);
  expect_pass_bytes(a, 24576, 32768, kEpochMax, pass_of2);
  expect_pass_bytes(a, 25990, 27010, 5, pass_of2);

  // A range punch leaves one slice of a larger buffer as its last holder;
  // aggregation keeps its bytes and its stored-byte count exact.
  a.punch_range(0, 12000, 6);
  r = a.aggregate(6);
  EXPECT_EQ(r.extents_retired, 2u);  // the punched epoch-3 slice and the punch
  EXPECT_EQ(r.bytes_flattened, 12000u);
  EXPECT_EQ(a.stored_bytes(), 28672u - 12000u);
  EXPECT_EQ(a.segment_count(), 2u);
  expect_pass_bytes(a, 12000, 20480, kEpochMax, pass_of2);
  expect_pass_bytes(a, 24576, 32768, kEpochMax, pass_of2);
  std::vector<std::byte> hole(64, std::byte{0xA5});
  EXPECT_EQ(a.read(11950, hole, kEpochMax), 14u);
  EXPECT_EQ(hole[0], std::byte{0});
}

// Buffer retention under adoption (docs/vos.md, "Payload buffers"): one
// 16-extent request buffer, as a batched update leaves it, with 15 of its
// extents overwritten. Until aggregation every retained byte is some
// version's payload; aggregation then compacts the lone surviving slice of
// the request buffer into an exact-size buffer and releases the rest --
// unless another holder still shares the buffer, which keeps it whole.
TEST(EvtreeSlices, AdoptedBatchBufferRetention) {
  constexpr std::uint64_t kExt = 4096;
  constexpr std::uint64_t kN = 16;
  for (const bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "buffer shared with another holder" : "store is the only holder");
    ArrayStore a;
    // Extent i lands at i * 2 * kExt (apart, so each flattens on its own),
    // slicing the batch buffer at i * kExt.
    auto batch = std::make_shared<Buffer>(kN * kExt);
    for (std::uint64_t i = 0; i < kN; ++i) {
      const std::vector<std::byte> d = pass_bytes(2 * i * kExt, kExt, 0);
      std::copy(d.begin(), d.end(), batch->begin() + std::ptrdiff_t(i * kExt));
    }
    const std::weak_ptr<const Buffer> watch = batch;
    BufferRef other = batch;  // stands for another akey's slice or a reply
    Epoch e = 0;
    for (std::uint64_t i = 0; i < kN; ++i) {
      a.write(2 * i * kExt, Slice{batch, i * kExt, kExt}, ++e, PayloadMode::store);
    }
    batch.reset();
    if (!shared) other.reset();
    for (std::uint64_t i = 0; i + 1 < kN; ++i) {
      a.write(2 * i * kExt, copy_slice(pass_bytes(2 * i * kExt, kExt, 1)), ++e,
              PayloadMode::store);
    }
    auto pass_at = [](std::uint64_t b) { return b >= 2 * (kN - 1) * kExt ? 0 : 1; };
    EXPECT_EQ(a.stored_bytes(), (2 * kN - 1) * kExt);
    EXPECT_EQ(a.retained_bytes(), a.stored_bytes());  // nothing dropped yet

    const ArrayStore::AggResult r = a.aggregate(e);
    EXPECT_EQ(r.extents_retired, kN - 1);
    EXPECT_EQ(r.bytes_flattened, (kN - 1) * kExt);
    EXPECT_EQ(a.stored_bytes(), kN * kExt);
    for (std::uint64_t i = 0; i < kN; ++i) {
      expect_pass_bytes(a, 2 * i * kExt, (2 * i + 1) * kExt, kEpochMax, pass_at);
    }
    if (shared) {
      // The survivor keeps slicing the whole batch buffer.
      EXPECT_FALSE(watch.expired());
      EXPECT_EQ(a.retained_bytes(), (kN - 1) * kExt + kN * kExt);
    } else {
      EXPECT_TRUE(watch.expired());
      EXPECT_EQ(a.retained_bytes(), kN * kExt);
    }
  }
}

// A full punch that aggregation folds stays a record: a version inserted
// under it afterwards (a DTX commit at its prepare-time epoch, a rebuild
// image at its floor) must stay hidden, as it is without the aggregation.
TEST(EvtreePunch, AggregateKeepsFullPunchOverLowerInsert) {
  for (const bool aggregated : {false, true}) {
    SCOPED_TRACE(aggregated ? "aggregated past the punch" : "not aggregated");
    ArrayStore a;
    std::vector<std::byte> data(8, std::byte{0x5A});
    a.write(0, copy_slice(data), 5, PayloadMode::store);
    a.punch_all(10);
    if (aggregated) a.aggregate(10);
    a.write(0, copy_slice(data), 1, PayloadMode::store);
    EXPECT_EQ(a.size(kEpochMax), 0u);
    std::vector<std::byte> out(8, std::byte{0xA5});
    EXPECT_EQ(a.read(0, out, kEpochMax), 0u);
    EXPECT_EQ(out, std::vector<std::byte>(8, std::byte{0}));
    EXPECT_EQ(a.latest_epoch(), 10u);
  }
}

}  // namespace
}  // namespace daosim::vos
