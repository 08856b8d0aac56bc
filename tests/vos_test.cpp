// Tests for the Versioned Object Store: single-value epochs, array extent
// visibility, punches, enumeration, aggregation — including a randomized
// property suite cross-checked against a flat byte-map oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "sim/random.hpp"
#include "vos/container.hpp"
#include "vos/target.hpp"

namespace daosim::vos {
namespace {

std::vector<std::byte> bytes(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}
std::string str(std::span<const std::byte> s) {
  return std::string(reinterpret_cast<const char*>(s.data()), s.size());
}

constexpr ObjId kOid{1, 100};

TEST(SingleValue, LatestVisibleAtEpoch) {
  SingleValueStore sv;
  auto v1 = bytes("one"), v2 = bytes("two");
  sv.put(v1, 10);
  sv.put(v2, 20);
  EXPECT_FALSE(sv.get(9).exists);
  EXPECT_EQ(str(sv.get(10).data), "one");
  EXPECT_EQ(str(sv.get(15).data), "one");
  EXPECT_EQ(str(sv.get(20).data), "two");
  EXPECT_EQ(str(sv.get(kEpochMax).data), "two");
}

// A punch is a record of the key's path (VosContainer's punch logs); the
// store hides every version at or below the floor the container passes.
TEST(SingleValue, PunchHidesValue) {
  SingleValueStore sv;
  auto v = bytes("x");
  sv.put(v, 5);
  EXPECT_TRUE(sv.get(7).exists);  // punch at 8: no punch <= 7
  EXPECT_FALSE(sv.get(8, 8).exists);
  EXPECT_FALSE(sv.get(100, 8).exists);
}

TEST(SingleValue, RewriteAfterPunch) {
  SingleValueStore sv;
  auto v1 = bytes("a"), v2 = bytes("b");
  sv.put(v1, 1);
  sv.put(v2, 3);  // after a punch at 2
  EXPECT_FALSE(sv.get(2, 2).exists);
  EXPECT_EQ(str(sv.get(3, 2).data), "b");
  sv.aggregate(3, 2);
  EXPECT_EQ(sv.version_count(), 1u);
  EXPECT_EQ(str(sv.get(3, 2).data), "b");
}

TEST(SingleValue, AggregateDropsShadowedVersions) {
  SingleValueStore sv;
  for (Epoch e = 1; e <= 10; ++e) {
    auto v = bytes(strfmt("v%llu", static_cast<unsigned long long>(e)));
    sv.put(v, e);
  }
  EXPECT_EQ(sv.version_count(), 10u);
  sv.aggregate(7);
  EXPECT_EQ(sv.version_count(), 4u);  // v7 + v8..v10
  EXPECT_EQ(str(sv.get(7).data), "v7");
  EXPECT_EQ(str(sv.get(9).data), "v9");
}

TEST(ArrayStore, WriteReadRoundTrip) {
  ArrayStore a;
  auto d = bytes("hello world");
  a.write(100, copy_slice(d), 1, PayloadMode::store);
  std::vector<std::byte> out(11);
  EXPECT_EQ(a.read(100, out, 1), 11u);
  EXPECT_EQ(str(out), "hello world");
  EXPECT_EQ(a.size(1), 111u);
}

TEST(ArrayStore, HolesReadAsZero) {
  ArrayStore a;
  auto d = bytes("xy");
  a.write(10, copy_slice(d), 1, PayloadMode::store);
  std::vector<std::byte> out(6);
  EXPECT_EQ(a.read(8, out, 1), 2u);
  EXPECT_EQ(out[0], std::byte{0});
  EXPECT_EQ(out[1], std::byte{0});
  EXPECT_EQ(char(out[2]), 'x');
  EXPECT_EQ(char(out[3]), 'y');
  EXPECT_EQ(out[4], std::byte{0});
}

TEST(ArrayStore, NewerEpochShadowsOlder) {
  ArrayStore a;
  auto d1 = bytes("aaaa"), d2 = bytes("BB");
  a.write(0, copy_slice(d1), 1, PayloadMode::store);
  a.write(1, copy_slice(d2), 2, PayloadMode::store);
  std::vector<std::byte> out(4);
  a.read(0, out, 2);
  EXPECT_EQ(str(out), "aBBa");
  a.read(0, out, 1);  // time travel: old epoch still intact
  EXPECT_EQ(str(out), "aaaa");
}

TEST(ArrayStore, RangePunchZeroes) {
  ArrayStore a;
  auto d = bytes("abcdef");
  a.write(0, copy_slice(d), 1, PayloadMode::store);
  a.punch_range(2, 2, 2);
  std::vector<std::byte> out(6);
  EXPECT_EQ(a.read(0, out, 2), 4u);
  EXPECT_EQ(str(out), std::string("ab\0\0ef", 6));
}

TEST(ArrayStore, FullPunchResetsSize) {
  ArrayStore a;
  auto d = bytes("data");
  a.write(100, copy_slice(d), 1, PayloadMode::store);
  // A full punch at 5 is the floor 5 at every epoch >= 5.
  EXPECT_EQ(a.size(5, 5), 0u);
  EXPECT_EQ(a.size(4), 104u);
  auto d2 = bytes("x");
  a.write(0, copy_slice(d2), 6, PayloadMode::store);
  EXPECT_EQ(a.size(6, 5), 1u);
  std::vector<std::byte> out(1);
  EXPECT_EQ(a.read(100, out, 6, 5), 0u);  // pre-punch data invisible
}

TEST(ArrayStore, DiscardModeTracksSizesOnly) {
  ArrayStore a;
  a.write(0, Slice{nullptr, 0, 1024}, 1, PayloadMode::discard);
  EXPECT_EQ(a.size(1), 1024u);
  EXPECT_EQ(a.stored_bytes(), 0u);
  std::vector<std::byte> out(16);
  EXPECT_EQ(a.read(0, out, 1), 16u);  // filled (zeros), counts as data
}

TEST(ArrayStore, AggregateMergesAndPreservesView) {
  ArrayStore a;
  auto d1 = bytes("aaaaaaaa"), d2 = bytes("bbbb"), d3 = bytes("cc");
  a.write(0, copy_slice(d1), 1, PayloadMode::store);
  a.write(2, copy_slice(d2), 2, PayloadMode::store);
  a.write(4, copy_slice(d3), 3, PayloadMode::store);
  std::vector<std::byte> before(8);
  a.read(0, before, 3);
  a.aggregate(3);
  std::vector<std::byte> after(8);
  a.read(0, after, kEpochMax);
  EXPECT_EQ(str(before), str(after));
  EXPECT_EQ(str(after), "aabbccaa");  // e2 covers [2,6): bytes 6-7 stay from e1
  EXPECT_LE(a.extent_count(), 3u);
  EXPECT_EQ(a.size(kEpochMax), 8u);
}

TEST(ArrayStore, AggregateKeepsNewerVersions) {
  ArrayStore a;
  auto d1 = bytes("1111"), d2 = bytes("22");
  a.write(0, copy_slice(d1), 1, PayloadMode::store);
  a.write(0, copy_slice(d2), 10, PayloadMode::store);
  a.aggregate(5);
  std::vector<std::byte> out(4);
  a.read(0, out, 5);
  EXPECT_EQ(str(out), "1111");
  a.read(0, out, 10);
  EXPECT_EQ(str(out), "2211");
}

// ---------------------------------------------------------------------------
// Container-level

TEST(Container, KvPutGet) {
  VosContainer c(PayloadMode::store);
  auto v = bytes("value");
  c.kv_put(kOid, "dir-entry", "entry", v, c.next_epoch());
  auto view = c.kv_get(kOid, "dir-entry", "entry", kEpochMax);
  ASSERT_TRUE(view.exists);
  EXPECT_EQ(str(view.data), "value");
  EXPECT_FALSE(c.kv_get(kOid, "missing", "entry", kEpochMax).exists);
}

TEST(Container, ArrayAcrossDkeys) {
  VosContainer c(PayloadMode::store);
  auto d0 = bytes("chunk0"), d1 = bytes("chunk1");
  c.array_write(kOid, "0", "data", 0, copy_slice(d0), c.next_epoch());
  c.array_write(kOid, "1", "data", 0, copy_slice(d1), c.next_epoch());
  std::vector<std::byte> out(6);
  const VosContainer::ArrayExtent ext{"1", 0, 6, 0};
  std::uint64_t fill = 0;
  std::vector<Slice> slices;
  c.array_read_extents(kOid, "data", {&ext, 1}, &slices, {&fill, 1}, kEpochMax);
  SliceReader(slices).read(out);
  EXPECT_EQ(str(out), "chunk1");
  EXPECT_EQ(c.array_size(kOid, "0", "data", kEpochMax), 6u);
}

TEST(Container, MixingKvAndArrayOnSameAkeyThrows) {
  VosContainer c(PayloadMode::store);
  auto v = bytes("v");
  c.kv_put(kOid, "d", "a", v, c.next_epoch());
  EXPECT_THROW(c.array_write(kOid, "d", "a", 0, copy_slice(v), c.next_epoch()), DaosimError);
}

TEST(Container, PunchDkeyHidesFromEnumeration) {
  VosContainer c(PayloadMode::store);
  auto v = bytes("v");
  c.kv_put(kOid, "file-a", "entry", v, c.next_epoch());
  c.kv_put(kOid, "file-b", "entry", v, c.next_epoch());
  EXPECT_EQ(c.list_dkeys(kOid, kEpochMax).size(), 2u);
  c.punch(kOid, PunchScope::dkey, "file-a", {}, c.next_epoch());
  auto keys = c.list_dkeys(kOid, kEpochMax);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], "file-b");
  // Older epochs still see both (snapshot semantics).
  EXPECT_EQ(c.list_dkeys(kOid, 2).size(), 2u);
}

TEST(Container, PunchObjectHidesEverything) {
  VosContainer c(PayloadMode::store);
  auto v = bytes("v");
  c.kv_put(kOid, "d1", "a", v, c.next_epoch());
  c.array_write(kOid, "d2", "arr", 0, copy_slice(v), c.next_epoch());
  c.punch(kOid, PunchScope::object, {}, {}, c.next_epoch());
  EXPECT_TRUE(c.list_dkeys(kOid, kEpochMax).empty());
}

TEST(Container, ListAkeysFiltersPunched) {
  VosContainer c(PayloadMode::store);
  auto v = bytes("v");
  c.kv_put(kOid, "d", "a1", v, c.next_epoch());
  c.kv_put(kOid, "d", "a2", v, c.next_epoch());
  c.punch(kOid, PunchScope::akey, "d", "a1", c.next_epoch());
  auto akeys = c.list_akeys(kOid, "d", kEpochMax);
  ASSERT_EQ(akeys.size(), 1u);
  EXPECT_EQ(akeys[0], "a2");
}

// Punches are records of the object's, dkey's and akey's punch logs, so a
// version that arrives below a punch later (a DTX commit, a rebuild image)
// stays hidden, even on a key that did not exist when it was punched.
TEST(VosPunch, ObjectPunchHidesLaterLowerPutToNewAkey) {
  VosContainer c(PayloadMode::store);
  auto v = bytes("v");
  c.kv_put(kOid, "d", "a", v, 5);
  c.punch(kOid, PunchScope::object, {}, {}, 10);
  c.kv_put(kOid, "d", "new", v, 7);
  EXPECT_FALSE(c.kv_get(kOid, "d", "new", kEpochMax).exists);
  EXPECT_TRUE(c.list_dkeys(kOid, kEpochMax).empty());
  EXPECT_TRUE(c.kv_get(kOid, "d", "new", 9).exists);  // below the punch
  c.kv_put(kOid, "d", "new", v, 11);
  EXPECT_TRUE(c.kv_get(kOid, "d", "new", kEpochMax).exists);
}

TEST(VosPunch, DkeyPunchOfAbsentKeyHidesLaterLowerPut) {
  VosContainer c(PayloadMode::store);
  auto v = bytes("v");
  c.punch(kOid, PunchScope::dkey, "k", {}, 10);
  EXPECT_TRUE(c.list_dkeys(kOid, kEpochMax).empty());  // a log holds no value
  c.kv_put(kOid, "k", "a", v, 1);
  EXPECT_FALSE(c.kv_get(kOid, "k", "a", kEpochMax).exists);
  EXPECT_TRUE(c.list_dkeys(kOid, kEpochMax).empty());
  EXPECT_TRUE(c.list_akeys(kOid, "k", kEpochMax).empty());
  // Aggregation keeps the punch and drops what it hides.
  c.aggregate(kEpochMax - 1);
  c.kv_put(kOid, "k", "b", v, 2);
  EXPECT_FALSE(c.kv_get(kOid, "k", "b", kEpochMax).exists);
}

TEST(Container, ArrayEndHint) {
  VosContainer c(PayloadMode::store);
  c.note_array_end(kOid, 4096);
  c.note_array_end(kOid, 1024);  // smaller: ignored
  EXPECT_EQ(c.array_end_hint(kOid), 4096u);
  EXPECT_EQ(c.array_end_hint(ObjId{9, 9}), 0u);
}

TEST(Container, ObjectEnumeration) {
  VosContainer c(PayloadMode::store);
  auto v = bytes("v");
  c.kv_put(ObjId{2, 1}, "d", "a", v, c.next_epoch());
  c.kv_put(ObjId{1, 5}, "d", "a", v, c.next_epoch());
  auto oids = c.list_objects();
  ASSERT_EQ(oids.size(), 2u);
  EXPECT_EQ(oids[0], (ObjId{1, 5}));  // sorted
  EXPECT_EQ(oids[1], (ObjId{2, 1}));
}

TEST(Target, ContainersAreIsolated) {
  VosTarget t(PayloadMode::store);
  auto v = bytes("v");
  auto& c1 = t.container(Uuid{1, 1});
  auto& c2 = t.container(Uuid{2, 2});
  c1.kv_put(kOid, "d", "a", v, c1.next_epoch());
  EXPECT_TRUE(c1.kv_get(kOid, "d", "a", kEpochMax).exists);
  EXPECT_FALSE(c2.kv_get(kOid, "d", "a", kEpochMax).exists);
  EXPECT_EQ(t.container_count(), 2u);
  EXPECT_TRUE(t.destroy_container(Uuid{2, 2}));
  EXPECT_EQ(t.container_count(), 1u);
}

TEST(Target, StoredBytesAccounting) {
  VosTarget t(PayloadMode::store);
  auto& c = t.container(Uuid{1, 1});
  auto d = bytes("12345678");
  c.array_write(kOid, "0", "data", 0, copy_slice(d), c.next_epoch());
  EXPECT_EQ(t.stored_bytes(), 8u);
  EXPECT_EQ(t.logical_bytes_written(), 8u);
}

// ---------------------------------------------------------------------------
// Property: array visibility matches a per-epoch byte-map oracle.

class ArrayOracleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArrayOracleProperty, MatchesByteOracle) {
  sim::Xoshiro256 rng(GetParam() * 2654435761ULL);
  ArrayStore a;
  // Oracle: full byte image + fill mask snapshot after every epoch.
  struct Snapshot {
    std::vector<char> img;
    std::vector<bool> filled;
  };
  const std::uint64_t space = 512;
  std::vector<Snapshot> snaps;  // snaps[e-1] = state at epoch e
  Snapshot cur{std::vector<char>(space, 0), std::vector<bool>(space, false)};
  // Full punches are the akey's punch log: the reads take its floor.
  std::vector<Epoch> fulls;  // ascending
  auto floor_at = [&fulls](Epoch e) {
    const auto it = std::upper_bound(fulls.begin(), fulls.end(), e);
    return it == fulls.begin() ? Epoch{0} : *std::prev(it);
  };

  for (Epoch e = 1; e <= 60; ++e) {
    const int op = int(rng.uniform(10));
    if (op < 7) {  // write
      const std::uint64_t off = rng.uniform(space - 1);
      const std::uint64_t len = 1 + rng.uniform(std::min<std::uint64_t>(64, space - off));
      std::vector<std::byte> data(len);
      for (auto& b : data) b = std::byte(rng.uniform(256));
      a.write(off, copy_slice(data), e, PayloadMode::store);
      for (std::uint64_t i = 0; i < len; ++i) {
        cur.img[off + i] = char(data[i]);
        cur.filled[off + i] = true;
      }
    } else if (op < 9) {  // range punch
      const std::uint64_t off = rng.uniform(space - 1);
      const std::uint64_t len = 1 + rng.uniform(std::min<std::uint64_t>(64, space - off));
      a.punch_range(off, len, e);
      for (std::uint64_t i = 0; i < len; ++i) {
        cur.img[off + i] = 0;
        cur.filled[off + i] = false;
      }
    } else {  // full punch
      fulls.push_back(e);
      std::fill(cur.img.begin(), cur.img.end(), 0);
      std::fill(cur.filled.begin(), cur.filled.end(), false);
    }
    snaps.push_back(cur);
  }

  // Every epoch's full view matches, including after aggregation.
  for (int pass = 0; pass < 2; ++pass) {
    for (Epoch e = 1; e <= snaps.size(); ++e) {
      // After aggregating to epoch A, views at e >= A must still match.
      if (pass == 1 && e < 30) continue;
      std::vector<std::byte> out(space);
      a.read(0, out, e, floor_at(e));
      const auto& snap = snaps[e - 1];
      for (std::uint64_t i = 0; i < space; ++i) {
        ASSERT_EQ(char(out[i]), snap.img[i]) << "epoch " << e << " byte " << i << " pass " << pass;
      }
    }
    if (pass == 0) a.aggregate(30, floor_at(30));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrayOracleProperty, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

}  // namespace
}  // namespace daosim::vos
