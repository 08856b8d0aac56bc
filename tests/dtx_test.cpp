// Distributed-transaction suite: the VOS DTX tables (prepared staging,
// key locks, sticky decisions, aggregation floor), the client-coordinated
// two-phase commit across shards (atomic visibility, conflict restart,
// snapshots and read-at-snapshot), the crash/resync matrix from docs/dtx.md
// (orphan reaping, resync after a coordinator or participant failure,
// pool-service leader loss during 2PC), and a randomized many-client
// serializability property that must replay bit-identically.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/tx.hpp"
#include "cluster/testbed.hpp"
#include "co_assert.hpp"
#include "engine/proto.hpp"
#include "eviction_check.hpp"
#include "fault/fault.hpp"
#include "vos/container.hpp"
#include "vos/dtx.hpp"

namespace daosim {
namespace {

using client::ObjClass;
using cluster::ClusterConfig;
using cluster::kPoolUuid;
using cluster::Testbed;
using sim::CoTask;

ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.server_nodes = 2;
  cfg.engines_per_server = 2;  // 4 engines; svc replicas on engines 0..2
  cfg.targets_per_engine = 4;  // 16 targets
  cfg.client_nodes = 2;
  return cfg;
}

std::vector<std::byte> bytes(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

std::string str(const std::vector<std::byte>& v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

std::string str(const vos::SingleValueStore::View& v) {
  return std::string(reinterpret_cast<const char*>(v.data.data()), v.data.size());
}

vos::DtxOp kv_op(vos::ObjId oid, const vos::Key& dkey, const vos::Key& akey,
                 const std::string& value) {
  vos::DtxOp op;
  op.oid = oid;
  op.dkey = dkey;
  op.akey = akey;
  op.single_value = true;
  op.length = value.size();
  op.data = std::make_shared<std::vector<std::byte>>(bytes(value));
  return op;
}

vos::DtxOp arr_op(vos::ObjId oid, const vos::Key& dkey, const vos::Key& akey,
                  std::uint64_t offset, const std::string& value) {
  vos::DtxOp op;
  op.oid = oid;
  op.dkey = dkey;
  op.akey = akey;
  op.single_value = false;
  op.offset = offset;
  op.length = value.size();
  op.array_end_hint = offset + value.size();
  op.data = std::make_shared<std::vector<std::byte>>(bytes(value));
  return op;
}

vos::DtxEntry make_entry(std::uint64_t seq, vos::Epoch epoch, std::vector<vos::DtxOp> ops) {
  vos::DtxEntry e;
  e.id = vos::DtxId{/*client=*/7, seq};
  e.epoch = epoch;
  e.ops = std::move(ops);
  return e;
}

/// Testbed engine index owning fabric node `node`.
std::uint32_t engine_index(Testbed& tb, net::NodeId node) {
  for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
    if (tb.engine(e).node() == node) return e;
  }
  ADD_FAILURE() << "no engine for node " << node;
  return 0;
}

/// The engine-side container shard behind pool-map target `mt`.
vos::VosContainer& shard_of(Testbed& tb, std::uint32_t mt) {
  const pool::TargetRef ref = tb.pool_map().targets[mt];
  return tb.engine(engine_index(tb, ref.engine)).vos_target(ref.target).container(kPoolUuid);
}

// ---------------------------------------------------------------------------
// Part A — VOS DTX tables (pure unit tests on one container shard).

TEST(DtxVos, HlcEpochLayout) {
  EXPECT_EQ(vos::hlc_base(5), vos::Epoch(5) << vos::kHlcLogicalBits);
  // Client epochs sit in the upper half of the nanosecond's logical range.
  EXPECT_EQ(vos::hlc_client(5, 3), (vos::Epoch(5) << 8) | 0x80 | 3);
  EXPECT_GT(vos::hlc_client(5, 0), vos::hlc_base(5));
  EXPECT_LT(vos::hlc_client(5, 0x7F), vos::hlc_base(6));
  // Distinct client nodes never collide within one nanosecond.
  EXPECT_NE(vos::hlc_client(5, 1), vos::hlc_client(5, 2));
  // Node ids wrap at 7 bits (the documented >127-clients caveat).
  EXPECT_EQ(vos::hlc_client(5, 0x80 | 9), vos::hlc_client(5, 9));

  // An engine clock run forward to hlc_base(now) issues epochs strictly
  // below every client epoch of the same nanosecond.
  vos::VosContainer c(vos::PayloadMode::store);
  c.observe_time(vos::hlc_base(100));
  EXPECT_LT(c.next_epoch(), vos::hlc_client(100, 0));
  // observe_time never runs the clock backwards.
  c.observe_time(vos::hlc_base(50));
  EXPECT_GT(c.current_epoch(), vos::hlc_base(100));
}

TEST(DtxVos, PrepareIsInvisibleToReads) {
  vos::VosContainer c(vos::PayloadMode::store);
  const auto oid = client::make_oid(1, ObjClass::S1);
  auto e = make_entry(1, vos::hlc_client(10, 1), {kv_op(oid, "d", "a", "staged")});
  const vos::DtxId id = e.id;
  ASSERT_EQ(c.dtx_prepare(std::move(e)), Errno::ok);

  EXPECT_FALSE(c.kv_get(oid, "d", "a", vos::kEpochMax).exists);
  EXPECT_EQ(c.dtx_state(id), vos::DtxState::prepared);
  EXPECT_EQ(c.dtx_prepared_count(), 1u);
  ASSERT_NE(c.dtx_find_prepared(id), nullptr);
  EXPECT_EQ(c.dtx_find_prepared(id)->epoch, vos::hlc_client(10, 1));
}

TEST(DtxVos, CommitAppliesEveryStagedOp) {
  vos::VosContainer c(vos::PayloadMode::store);
  const auto o1 = client::make_oid(1, ObjClass::S1);
  const auto o2 = client::make_oid(2, ObjClass::S1);
  const vos::Epoch ep = vos::hlc_client(10, 1);
  auto e = make_entry(1, ep,
                      {kv_op(o1, "d", "a", "alpha"), kv_op(o2, "d2", "a", "beta"),
                       arr_op(o1, "0", "arr", 3, "gamma")});
  const vos::DtxId id = e.id;
  ASSERT_EQ(c.dtx_prepare(std::move(e)), Errno::ok);
  EXPECT_TRUE(c.dtx_commit(id));

  // All three ops became visible at the transaction epoch, atomically.
  const auto v1 = c.kv_get(o1, "d", "a", vos::kEpochMax);
  const auto v2 = c.kv_get(o2, "d2", "a", vos::kEpochMax);
  ASSERT_TRUE(v1.exists && v2.exists);
  EXPECT_EQ(str(v1), "alpha");
  EXPECT_EQ(str(v2), "beta");
  std::vector<std::byte> out(5);
  const vos::VosContainer::ArrayExtent ext{"0", 3, 5, 0};
  std::uint64_t fill = 0;
  std::vector<vos::Slice> slices;
  EXPECT_EQ(c.array_read_extents(o1, "arr", {&ext, 1}, &slices, {&fill, 1}, vos::kEpochMax), 5u);
  vos::SliceReader(slices).read(out);
  EXPECT_EQ(str(out), "gamma");
  // Nothing is visible below the commit epoch.
  EXPECT_FALSE(c.kv_get(o1, "d", "a", ep - 1).exists);
  EXPECT_EQ(c.dtx_state(id), vos::DtxState::committed);
  EXPECT_EQ(c.dtx_prepared_count(), 0u);
}

TEST(DtxVos, AbortLeavesNoTrace) {
  vos::VosContainer c(vos::PayloadMode::store);
  const auto oid = client::make_oid(1, ObjClass::S1);
  auto e = make_entry(1, vos::hlc_client(10, 1), {kv_op(oid, "d", "a", "never")});
  const vos::DtxId id = e.id;
  ASSERT_EQ(c.dtx_prepare(std::move(e)), Errno::ok);
  c.dtx_abort(id);

  EXPECT_FALSE(c.kv_get(oid, "d", "a", vos::kEpochMax).exists);
  EXPECT_EQ(c.object_count(), 0u);  // staging never touched the object index
  EXPECT_EQ(c.dtx_state(id), vos::DtxState::aborted);
  EXPECT_EQ(c.dtx_prepared_count(), 0u);
}

TEST(DtxVos, PreparedKeysLockOutConcurrentTransactions) {
  vos::VosContainer c(vos::PayloadMode::store);
  const auto oid = client::make_oid(1, ObjClass::S1);
  auto e1 = make_entry(1, vos::hlc_client(10, 1), {kv_op(oid, "d", "a", "first")});
  const vos::DtxId id1 = e1.id;
  ASSERT_EQ(c.dtx_prepare(std::move(e1)), Errno::ok);

  // Same (oid, dkey, akey): write-write conflict, the later arrival restarts.
  EXPECT_EQ(c.dtx_prepare(make_entry(2, vos::hlc_client(11, 2), {kv_op(oid, "d", "a", "loser")})),
            Errno::tx_restart);
  // A different akey is an independent lock.
  EXPECT_EQ(c.dtx_prepare(make_entry(3, vos::hlc_client(11, 3), {kv_op(oid, "d", "b", "fine")})),
            Errno::ok);
  // Once the holder commits, the key is free again (at a higher epoch).
  EXPECT_TRUE(c.dtx_commit(id1));
  EXPECT_EQ(c.dtx_prepare(make_entry(4, vos::hlc_client(12, 2), {kv_op(oid, "d", "a", "next")})),
            Errno::ok);
}

TEST(DtxVos, LostUpdateConflictsWithNewerCommittedRecord) {
  vos::VosContainer c(vos::PayloadMode::store);
  const auto oid = client::make_oid(1, ObjClass::S1);
  c.observe_time(vos::hlc_base(100));
  const vos::Epoch committed = c.next_epoch();
  c.kv_put(oid, "d", "a", bytes("committed"), committed);

  // A transaction whose epoch predates the committed record would shadow it.
  EXPECT_EQ(c.dtx_prepare(make_entry(1, vos::hlc_client(50, 1), {kv_op(oid, "d", "a", "old")})),
            Errno::tx_restart);
  // At a newer epoch the same write prepares fine.
  EXPECT_EQ(c.dtx_prepare(make_entry(2, vos::hlc_client(200, 1), {kv_op(oid, "d", "a", "new")})),
            Errno::ok);
}

// A punch of a key the shard never held is a record too: a transaction
// below it would commit a value the punch hides, so it must restart.
TEST(DtxVos, PrepareBelowPunchOfAbsentKeyRestarts) {
  vos::VosContainer c(vos::PayloadMode::store);
  const auto oid = client::make_oid(1, ObjClass::S1);
  c.punch(oid, vos::PunchScope::dkey, "d", {}, 10);
  EXPECT_EQ(c.dtx_prepare(make_entry(1, 5, {kv_op(oid, "d", "a", "under")})), Errno::tx_restart);
  EXPECT_EQ(c.dtx_prepare(make_entry(2, 11, {kv_op(oid, "d", "a", "over")})), Errno::ok);
}

TEST(DtxVos, EqualEpochCommitConflictsInsteadOfSilentOverwrite) {
  vos::VosContainer c(vos::PayloadMode::store);
  const auto oid = client::make_oid(1, ObjClass::S1);
  // hlc_client keys client epochs by only 7 node bits: two clients whose
  // node ids collide mod 128 mint the SAME epoch in the same virtual
  // nanosecond.
  const vos::Epoch ep = vos::hlc_client(10, 1);
  ASSERT_EQ(vos::hlc_client(10, 0x80 | 1), ep);

  auto e1 = make_entry(1, ep, {kv_op(oid, "d", "a", "first")});
  const vos::DtxId id1 = e1.id;
  ASSERT_EQ(c.dtx_prepare(std::move(e1)), Errno::ok);
  EXPECT_TRUE(c.dtx_commit(id1));

  // A second transaction at the equal epoch must conflict: committing it
  // would silently replace the first value (insert_sorted overwrites
  // same-epoch records) — an undetected lost update, not a visible race.
  EXPECT_EQ(c.dtx_prepare(make_entry(2, ep, {kv_op(oid, "d", "a", "second")})),
            Errno::tx_restart);
  const auto v = c.kv_get(oid, "d", "a", vos::kEpochMax);
  ASSERT_TRUE(v.exists);
  EXPECT_EQ(str(v), "first");
}

TEST(DtxVos, DecisionsAreStickyAndIdempotent) {
  vos::VosContainer c(vos::PayloadMode::store);
  const auto oid = client::make_oid(1, ObjClass::S1);

  // Commit decided before any prepare arrived (lost prepare reply): the
  // decision is recorded and a late prepare retry reports success.
  const vos::DtxId ic{7, 1};
  EXPECT_TRUE(c.dtx_commit(ic));
  EXPECT_EQ(c.dtx_state(ic), vos::DtxState::committed);
  EXPECT_EQ(c.dtx_prepare(make_entry(1, vos::hlc_client(10, 1), {kv_op(oid, "d", "a", "x")})),
            Errno::ok);
  // A decision never flips.
  c.dtx_abort(ic);
  EXPECT_EQ(c.dtx_state(ic), vos::DtxState::committed);

  // Abort decided first (the reaper won a race): a late prepare restarts and
  // a late commit reports the abort.
  const vos::DtxId ia{7, 2};
  c.dtx_abort(ia);
  EXPECT_EQ(c.dtx_prepare(make_entry(2, vos::hlc_client(10, 2), {kv_op(oid, "d", "b", "y")})),
            Errno::tx_restart);
  EXPECT_FALSE(c.dtx_commit(ia));
  EXPECT_EQ(c.dtx_state(ia), vos::DtxState::aborted);

  // Duplicate prepare of a live transaction is a no-op success.
  auto e = make_entry(3, vos::hlc_client(11, 1), {kv_op(oid, "d", "c", "z")});
  ASSERT_EQ(c.dtx_prepare(e), Errno::ok);
  EXPECT_EQ(c.dtx_prepare(e), Errno::ok);
  EXPECT_EQ(c.dtx_prepared_count(), 1u);
}

TEST(DtxVos, CommitLandsBelowAdvancedEpochClock) {
  vos::VosContainer c(vos::PayloadMode::store);
  const auto oid = client::make_oid(1, ObjClass::S1);
  // Ordinary writes run the shard clock far past the transaction's epoch.
  c.observe_time(vos::hlc_base(1000));
  c.kv_put(oid, "d", "other", bytes("late"), c.next_epoch());

  const vos::Epoch ep = vos::hlc_client(500, 1);
  auto e = make_entry(1, ep, {kv_op(oid, "d", "a", "tx")});
  const vos::DtxId id = e.id;
  ASSERT_EQ(c.dtx_prepare(std::move(e)), Errno::ok);
  EXPECT_TRUE(c.dtx_commit(id));

  // The commit inserted in sorted epoch order below the clock: visible both
  // at its own epoch and at the present.
  EXPECT_EQ(str(c.kv_get(oid, "d", "a", ep)), "tx");
  EXPECT_EQ(str(c.kv_get(oid, "d", "a", vos::kEpochMax)), "tx");
  EXPECT_GT(c.current_epoch(), vos::hlc_base(1000));

  // A later put at a higher epoch shadows it only above that epoch.
  c.kv_put(oid, "d", "a", bytes("newer"), c.next_epoch());
  EXPECT_EQ(str(c.kv_get(oid, "d", "a", ep)), "tx");
  EXPECT_EQ(str(c.kv_get(oid, "d", "a", vos::kEpochMax)), "newer");
}

TEST(DtxVos, PreparedEntriesPinAggregation) {
  vos::VosContainer c(vos::PayloadMode::store);
  const auto oid = client::make_oid(1, ObjClass::S1);
  c.observe_time(vos::hlc_base(10));
  const vos::Epoch e1 = c.next_epoch();
  c.kv_put(oid, "d", "a", bytes("v1"), e1);

  // Prepare between v1 and a later v3; the undecided entry floors aggregation.
  const vos::Epoch ep = vos::hlc_client(20, 1);
  auto e = make_entry(1, ep, {kv_op(oid, "d", "a", "tx")});
  const vos::DtxId id = e.id;
  ASSERT_EQ(c.dtx_prepare(std::move(e)), Errno::ok);
  EXPECT_EQ(c.dtx_min_prepared_epoch(), ep);

  c.observe_time(vos::hlc_base(30));
  const vos::Epoch e3 = c.next_epoch();
  c.kv_put(oid, "d", "a", bytes("v3"), e3);

  // Unclamped this would merge v1 away; the DTX floor keeps everything the
  // pending commit at `ep` could still be read against.
  c.aggregate(vos::kEpochMax);
  EXPECT_EQ(str(c.kv_get(oid, "d", "a", e1)), "v1");

  EXPECT_TRUE(c.dtx_commit(id));
  EXPECT_EQ(str(c.kv_get(oid, "d", "a", ep)), "tx");
  EXPECT_EQ(str(c.kv_get(oid, "d", "a", vos::kEpochMax)), "v3");
  EXPECT_EQ(c.dtx_min_prepared_epoch(), vos::kEpochMax);

  // With the table drained the same aggregation now squashes history.
  c.aggregate(vos::kEpochMax);
  EXPECT_FALSE(c.kv_get(oid, "d", "a", e1).exists);
  EXPECT_EQ(str(c.kv_get(oid, "d", "a", vos::kEpochMax)), "v3");
}

// ---------------------------------------------------------------------------
// Part B — client transactions on the live cluster.

TEST(DtxCluster, CommitIsAtomicAcrossObjectsAndShards) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const auto o1 = client::make_oid(1, ObjClass::S2);
    const auto o2 = client::make_oid(2, ObjClass::S2);
    client::KvObject k1(cl, kPoolUuid, o1);
    client::KvObject k2(cl, kPoolUuid, o2);

    auto tx = cl.tx_begin(kPoolUuid);
    tx.kv_put(o1, "rank0", "state", bytes("alpha"));
    tx.kv_put(o1, "rank1", "state", bytes("beta"));
    tx.kv_put(o2, "rank0", "state", bytes("gamma"));
    CO_ASSERT_EQ(tx.staged_ops(), 3u);
    CO_ASSERT_TRUE(tx.participants() >= 2);  // S2 dkeys spread over 2 shards

    // Nothing is visible while staged.
    CO_ASSERT_ERRNO((co_await k1.get("rank0", "state")).error(), Errno::no_entry);

    CO_ASSERT_ERRNO(co_await tx.commit(), Errno::ok);
    CO_ASSERT_TRUE(tx.committed());
    CO_ASSERT_TRUE(tx.commit_epoch() > 0);

    // Everything is visible, with the staged bytes, on every touched shard.
    auto r1 = co_await k1.get("rank0", "state");
    auto r2 = co_await k1.get("rank1", "state");
    auto r3 = co_await k2.get("rank0", "state");
    CO_ASSERT_OK(r1);
    CO_ASSERT_OK(r2);
    CO_ASSERT_OK(r3);
    CO_ASSERT_EQ(str(*r1), "alpha");
    CO_ASSERT_EQ(str(*r2), "beta");
    CO_ASSERT_EQ(str(*r3), "gamma");
    // And nothing is visible below the commit epoch: the cut is atomic.
    CO_ASSERT_ERRNO((co_await k1.get("rank0", "state", tx.commit_epoch() - 1)).error(),
                    Errno::no_entry);
    CO_ASSERT_OK(co_await k1.get("rank1", "state", tx.commit_epoch()));
  });
  tb.stop();
}

TEST(DtxCluster, EmptyTransactionCommits) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    auto tx = cl.tx_begin(kPoolUuid);
    CO_ASSERT_EQ(tx.staged_ops(), 0u);
    CO_ASSERT_ERRNO(co_await tx.commit(), Errno::ok);
    CO_ASSERT_TRUE(tx.committed());
    CO_ASSERT_EQ(cl.tx_commits(), 1u);
  });
  tb.stop();
}

TEST(DtxCluster, AbortDropsStagedWrites) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const auto oid = client::make_oid(1, ObjClass::S1);
    client::KvObject kv(cl, kPoolUuid, oid);

    auto tx = cl.tx_begin(kPoolUuid);
    tx.kv_put(oid, "d", "a", bytes("discarded"));
    CO_ASSERT_ERRNO(co_await tx.abort(), Errno::ok);
    CO_ASSERT_TRUE(!tx.open());

    CO_ASSERT_ERRNO((co_await kv.get("d", "a")).error(), Errno::no_entry);
    CO_ASSERT_EQ(cl.tx_aborts(), 1u);
    CO_ASSERT_EQ(cl.tx_commits(), 0u);
  });
  tb.stop();
}

TEST(DtxCluster, WriteWriteConflictHasOneWinner) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& ca = tb.client(0);
    auto& cb = tb.client(1);
    CO_ASSERT_OK(co_await ca.cont_create(kPoolUuid, {}));
    const auto oid = client::make_oid(1, ObjClass::S1);

    Errno ra = Errno::ok;
    Errno rb = Errno::ok;
    vos::Epoch ea = 0;
    vos::Epoch eb = 0;
    sim::WaitGroup wg(tb.sched());
    wg.spawn([&]() -> CoTask<void> {
      auto tx = ca.tx_begin(kPoolUuid);
      tx.kv_put(oid, "shared", "a", bytes("from-A"));
      ra = co_await tx.commit();
      ea = tx.commit_epoch();
    });
    wg.spawn([&]() -> CoTask<void> {
      auto tx = cb.tx_begin(kPoolUuid);
      tx.kv_put(oid, "shared", "a", bytes("from-B"));
      rb = co_await tx.commit();
      eb = tx.commit_epoch();
    });
    co_await wg.wait();

    // Exactly one transaction wins; the loser is told to restart.
    const bool a_won = ra == Errno::ok;
    const bool b_won = rb == Errno::ok;
    CO_ASSERT_TRUE(a_won != b_won);
    CO_ASSERT_ERRNO(a_won ? rb : ra, Errno::tx_restart);
    CO_ASSERT_EQ(ca.tx_restarts() + cb.tx_restarts(), 1u);
    CO_ASSERT_EQ(ca.tx_commits() + cb.tx_commits(), 1u);

    client::KvObject kv(ca, kPoolUuid, oid);
    auto r = co_await kv.get("shared", "a");
    CO_ASSERT_OK(r);
    CO_ASSERT_EQ(str(*r), a_won ? "from-A" : "from-B");
    // The winner's epoch is the one the value is visible at.
    CO_ASSERT_OK(co_await kv.get("shared", "a", a_won ? ea : eb));
  });
  tb.stop();
}

TEST(DtxCluster, RunTxRetriesConflictsToCommit) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& ca = tb.client(0);
    auto& cb = tb.client(1);
    CO_ASSERT_OK(co_await ca.cont_create(kPoolUuid, {}));
    const auto oid = client::make_oid(1, ObjClass::S1);

    Errno ra = Errno::ok;
    Errno rb = Errno::ok;
    sim::WaitGroup wg(tb.sched());
    wg.spawn([&]() -> CoTask<void> {
      ra = co_await ca.run_tx(kPoolUuid, [&](client::TxHandle& tx) -> CoTask<Errno> {
        tx.kv_put(oid, "shared", "a", bytes("A"));
        tx.kv_put(oid, "shared", "b", bytes("A"));
        co_return Errno::ok;
      });
    });
    wg.spawn([&]() -> CoTask<void> {
      rb = co_await cb.run_tx(kPoolUuid, [&](client::TxHandle& tx) -> CoTask<Errno> {
        tx.kv_put(oid, "shared", "a", bytes("B"));
        tx.kv_put(oid, "shared", "b", bytes("B"));
        co_return Errno::ok;
      });
    });
    co_await wg.wait();

    // The restart loop absorbs the conflict: both eventually commit.
    CO_ASSERT_ERRNO(ra, Errno::ok);
    CO_ASSERT_ERRNO(rb, Errno::ok);
    CO_ASSERT_EQ(ca.tx_commits() + cb.tx_commits(), 2u);
    CO_ASSERT_TRUE(ca.tx_restarts() + cb.tx_restarts() >= 1);

    // Atomicity held through the retries: both akeys carry one writer.
    client::KvObject kv(ca, kPoolUuid, oid);
    auto r1 = co_await kv.get("shared", "a");
    auto r2 = co_await kv.get("shared", "b");
    CO_ASSERT_OK(r1);
    CO_ASSERT_OK(r2);
    CO_ASSERT_EQ(str(*r1), str(*r2));
  });
  tb.stop();
}

TEST(DtxCluster, TransactionalArrayWriteRoundTrips) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const auto oid = client::make_oid(1, ObjClass::S4);
    const std::uint64_t chunk = 64;

    std::string payload;
    for (int i = 0; i < 200; ++i) payload.push_back(char('a' + i % 23));

    auto tx = cl.tx_begin(kPoolUuid);
    // Offset 10, length 200 with 64-byte chunks: spans chunks 0..3.
    tx.array_write(oid, chunk, 10, payload.size(), bytes(payload));
    CO_ASSERT_TRUE(tx.staged_ops() >= 4);
    CO_ASSERT_ERRNO(co_await tx.commit(), Errno::ok);

    client::ArrayObject arr(cl, kPoolUuid, oid, chunk);
    std::vector<std::byte> out(payload.size());
    auto rd = co_await arr.read(10, out);
    CO_ASSERT_OK(rd);
    CO_ASSERT_EQ(*rd, payload.size());
    CO_ASSERT_EQ(str(out), payload);
    auto sz = co_await arr.size();
    CO_ASSERT_OK(sz);
    CO_ASSERT_EQ(*sz, 10u + payload.size());
  });
  tb.stop();
}

TEST(DtxCluster, ReadAtSnapshotIsolatesFromLaterWrites) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const auto oid = client::make_oid(1, ObjClass::S2);
    client::KvObject kv(cl, kPoolUuid, oid);

    CO_ASSERT_ERRNO(co_await kv.put("d", "a", bytes("gen-1")), Errno::ok);
    auto snap = co_await cl.snapshot_create(kPoolUuid);
    CO_ASSERT_OK(snap);
    const vos::Epoch e1 = *snap;
    CO_ASSERT_ERRNO(co_await kv.put("d", "a", bytes("gen-2")), Errno::ok);
    CO_ASSERT_ERRNO(co_await kv.put("d", "b", bytes("new-key")), Errno::ok);

    // Present reads see the overwrite; the snapshot still reads gen-1 and
    // keys created after it do not exist there.
    auto now = co_await kv.get("d", "a");
    auto old = co_await kv.get("d", "a", e1);
    CO_ASSERT_OK(now);
    CO_ASSERT_OK(old);
    CO_ASSERT_EQ(str(*now), "gen-2");
    CO_ASSERT_EQ(str(*old), "gen-1");
    CO_ASSERT_ERRNO((co_await kv.get("d", "b", e1)).error(), Errno::no_entry);
  });
  tb.stop();
}

TEST(DtxCluster, SnapshotPinsAggregationUntilDestroyed) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const auto oid = client::make_oid(1, ObjClass::S2);
    client::KvObject kv(cl, kPoolUuid, oid);

    CO_ASSERT_ERRNO(co_await kv.put("d", "a", bytes("pinned")), Errno::ok);
    auto snap = co_await cl.snapshot_create(kPoolUuid);
    CO_ASSERT_OK(snap);
    const vos::Epoch e1 = *snap;
    CO_ASSERT_ERRNO(co_await kv.put("d", "a", bytes("current")), Errno::ok);

    // Aggregation clamps below the registered snapshot: the pinned version
    // survives and the snapshot read still answers.
    CO_ASSERT_OK(co_await cl.cont_aggregate(kPoolUuid));
    auto old = co_await kv.get("d", "a", e1);
    CO_ASSERT_OK(old);
    CO_ASSERT_EQ(str(*old), "pinned");

    // Destroying the snapshot unpins the epoch; the next aggregation merges
    // the old version away and the time-travel read comes back empty.
    CO_ASSERT_OK(co_await cl.snapshot_destroy(kPoolUuid, e1));
    CO_ASSERT_OK(co_await cl.cont_aggregate(kPoolUuid));
    CO_ASSERT_ERRNO((co_await kv.get("d", "a", e1)).error(), Errno::no_entry);
    auto now = co_await kv.get("d", "a");
    CO_ASSERT_OK(now);
    CO_ASSERT_EQ(str(*now), "current");
  });
  tb.stop();
}

TEST(DtxCluster, SnapshotRegistryListsAndDestroys) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));

    auto s1 = co_await cl.snapshot_create(kPoolUuid);
    CO_ASSERT_OK(s1);
    auto s2 = co_await cl.snapshot_create(kPoolUuid);
    CO_ASSERT_OK(s2);
    CO_ASSERT_TRUE(*s1 < *s2);

    auto ls = co_await cl.list_snapshots(kPoolUuid);
    CO_ASSERT_OK(ls);
    CO_ASSERT_EQ(ls->size(), 2u);
    CO_ASSERT_EQ((*ls)[0], *s1);
    CO_ASSERT_EQ((*ls)[1], *s2);

    CO_ASSERT_OK(co_await cl.snapshot_destroy(kPoolUuid, *s1));
    ls = co_await cl.list_snapshots(kPoolUuid);
    CO_ASSERT_OK(ls);
    CO_ASSERT_EQ(ls->size(), 1u);
    CO_ASSERT_EQ((*ls)[0], *s2);

    // Destroy is not idempotent: the registry reports the missing epoch.
    CO_ASSERT_ERRNO((co_await cl.snapshot_destroy(kPoolUuid, *s1)).error(), Errno::no_entry);
    // Snapshots of an unknown container are rejected.
    CO_ASSERT_TRUE(!(co_await cl.snapshot_create(vos::Uuid{0xBAD, 0xBAD})).ok());
  });
  tb.stop();
}

TEST(DtxCluster, TelemetryCountsOutcomesAndEngineVerbs) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const auto oid = client::make_oid(1, ObjClass::S2);

    CO_ASSERT_ERRNO(co_await cl.run_tx(kPoolUuid,
                                       [&](client::TxHandle& tx) -> CoTask<Errno> {
                                         tx.kv_put(oid, "d", "a", bytes("x"));
                                         co_return Errno::ok;
                                       }),
                    Errno::ok);
    auto tx = cl.tx_begin(kPoolUuid);
    tx.kv_put(oid, "d", "b", bytes("y"));
    CO_ASSERT_ERRNO(co_await tx.abort(), Errno::ok);

    CO_ASSERT_EQ(cl.tx_commits(), 1u);
    CO_ASSERT_EQ(cl.tx_aborts(), 1u);
    const auto* h = cl.telemetry().find<telemetry::DurationHistogram>("tx/commit_time_ns");
    CO_ASSERT_TRUE(h != nullptr);
    CO_ASSERT_TRUE(h->state().count >= 1);

    // Engine-side DTX counters saw the prepare and the commit.
    std::uint64_t prepares = 0;
    std::uint64_t commits = 0;
    for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
      const auto& reg = tb.engine(e).telemetry();
      if (const auto* p = reg.find<telemetry::Counter>("dtx/prepares")) prepares += p->value();
      if (const auto* c = reg.find<telemetry::Counter>("dtx/commits")) commits += c->value();
    }
    CO_ASSERT_TRUE(prepares >= 1);
    CO_ASSERT_TRUE(commits >= 1);
  });
  tb.stop();
}

// ---------------------------------------------------------------------------
// Part C — the failure matrix (docs/dtx.md), driven with raw protocol RPCs
// where the scenario needs a transaction frozen between 2PC phases.

/// Stages a single-op prepare on map target `mt` directly (bypassing
/// TxHandle), as a coordinator that is about to disappear would.
CoTask<void> raw_prepare(client::DaosClient& cl, const pool::PoolMap& map, std::uint32_t mt,
                         std::uint32_t leader, vos::DtxId id, vos::Epoch epoch, vos::ObjId oid,
                         const std::string& dkey, const std::string& value, Errno* out) {
  engine::TxPrepareReq req;
  req.cont = kPoolUuid;
  req.tx_client = id.client;
  req.tx_seq = id.seq;
  req.epoch = epoch;
  req.target = map.targets[mt].target;
  req.leader = leader;
  engine::TxOpDesc op;
  op.oid = oid;
  op.dkey = dkey;
  op.akey = "a";
  op.type = engine::RecordType::single_value;
  op.length = value.size();
  op.data = std::make_shared<std::vector<std::byte>>(bytes(value));
  req.ops.push_back(std::move(op));
  const std::uint64_t wire = engine::obj_wire_bytes(1, value.size());
  net::Body body = net::Body::make(std::move(req));
  auto rep = co_await cl.call_target(mt, engine::kOpTxPrepare, std::move(body), wire);
  *out = rep.status;
}

CoTask<void> raw_decide(client::DaosClient& cl, const pool::PoolMap& map, std::uint32_t mt,
                        std::uint16_t opcode, vos::DtxId id, Errno* out) {
  engine::TxDecideReq req;
  req.cont = kPoolUuid;
  req.tx_client = id.client;
  req.tx_seq = id.seq;
  req.target = map.targets[mt].target;
  net::Body body = net::Body::make(std::move(req));
  auto rep = co_await cl.call_target(mt, opcode, std::move(body), engine::kObjRpcHeader);
  *out = rep.status;
}

// Snapshot-stable reads (placed here because it freezes a transaction
// between 2PC phases with the raw helpers above): a transaction prepared
// BELOW a snapshot epoch must not pop into the snapshot retroactively when
// it commits. The engine parks the epoch-bounded read until the prepared
// entry settles, so the first snapshot read already sees the commit and
// every later read of the same snapshot agrees with it.
TEST(DtxCluster, SnapshotReadsAreStableAgainstInFlightCommits) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const auto& map = tb.pool_map();
    const auto oid = client::make_oid(1, ObjClass::S1);
    const auto layout = client::compute_group_layout(oid, 1, 1, map);
    const std::uint32_t mt = layout.at(0, 0);

    // Prepare below the snapshot, snapshot, THEN commit: the classic
    // unstable-read interleaving.
    const vos::DtxId id{9999, 6};
    const vos::Epoch ep = cl.tx_alloc_epoch();
    Errno rc = Errno::ok;
    co_await raw_prepare(cl, map, mt, /*leader=*/mt, id, ep, oid, "d", "staged", &rc);
    CO_ASSERT_ERRNO(rc, Errno::ok);
    auto snap = co_await cl.snapshot_create(kPoolUuid);
    CO_ASSERT_OK(snap);
    const vos::Epoch s = *snap;
    CO_ASSERT_TRUE(s > ep);

    client::KvObject kv(cl, kPoolUuid, oid);
    // Plain (present-time) reads never wait on prepared entries.
    CO_ASSERT_ERRNO((co_await kv.get("d", "a")).error(), Errno::no_entry);

    // Commit lands 200ms later, from a second client.
    Errno drc = Errno::ok;
    sim::WaitGroup wg(tb.sched());
    wg.spawn([&]() -> CoTask<void> {
      co_await tb.sched().delay(200 * sim::kMs);
      co_await raw_decide(tb.client(1), map, mt, engine::kOpTxCommit, id, &drc);
    });

    // The snapshot read blocks until the commit settles instead of answering
    // no_entry now and "staged" on the next read of the SAME epoch.
    const sim::Time t0 = tb.sched().now();
    auto r1 = co_await kv.get("d", "a", s);
    CO_ASSERT_OK(r1);
    CO_ASSERT_EQ(str(*r1), "staged");
    CO_ASSERT_TRUE(tb.sched().now() - t0 >= 200 * sim::kMs);
    co_await wg.wait();
    CO_ASSERT_ERRNO(drc, Errno::ok);

    // Re-reading the snapshot agrees with the first read.
    auto r2 = co_await kv.get("d", "a", s);
    CO_ASSERT_OK(r2);
    CO_ASSERT_EQ(str(*r2), "staged");
  });
  tb.stop();
}

TEST(DtxFault, OrphanedPrepareIsReapedAndAborted) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const auto& map = tb.pool_map();
    const auto oid = client::make_oid(1, ObjClass::S1);
    const auto layout = client::compute_group_layout(oid, 1, 1, map);
    const std::uint32_t mt = layout.at(0, 0);
    const std::uint32_t ei = engine_index(tb, map.targets[mt].engine);

    // A coordinator prepares its single (leader) shard and then dies: the
    // decision RPC never arrives.
    const vos::DtxId id{9999, 1};
    Errno prc = Errno::ok;
    co_await raw_prepare(cl, map, mt, /*leader=*/mt, id, cl.tx_alloc_epoch(), oid, "d",
                         "orphan", &prc);
    CO_ASSERT_ERRNO(prc, Errno::ok);
    CO_ASSERT_EQ(shard_of(tb, mt).dtx_state(id), vos::DtxState::prepared);

    // Past the orphan timeout the leader-local reaper aborts authoritatively.
    co_await tb.sched().delay(tb.dtx_service(ei).config().orphan_timeout + 2 * sim::kSec);
    CO_ASSERT_TRUE(tb.dtx_service(ei).orphans_aborted() >= 1);
    CO_ASSERT_EQ(shard_of(tb, mt).dtx_state(id), vos::DtxState::aborted);
    CO_ASSERT_EQ(shard_of(tb, mt).dtx_prepared_count(), 0u);
    client::KvObject kv(cl, kPoolUuid, oid);
    CO_ASSERT_ERRNO((co_await kv.get("d", "a")).error(), Errno::no_entry);

    // A fresh transaction on the reaped key proceeds normally.
    CO_ASSERT_ERRNO(co_await cl.run_tx(kPoolUuid,
                                       [&](client::TxHandle& tx) -> CoTask<Errno> {
                                         tx.kv_put(oid, "d", "a", bytes("after"));
                                         co_return Errno::ok;
                                       }),
                    Errno::ok);
    auto r = co_await kv.get("d", "a");
    CO_ASSERT_OK(r);
    CO_ASSERT_EQ(str(*r), "after");
  });
  tb.stop();
}

TEST(DtxFault, ResyncCommitsParticipantAfterCoordinatorDies) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const auto& map = tb.pool_map();
    const auto oid = client::make_oid(1, ObjClass::RP_2G1);
    const auto layout = client::compute_group_layout(oid, 1, 2, map);
    const std::uint32_t leader = std::min(layout.at(0, 0), layout.at(0, 1));
    const std::uint32_t follower = std::max(layout.at(0, 0), layout.at(0, 1));
    const std::uint32_t fei = engine_index(tb, map.targets[follower].engine);

    // The coordinator prepares both replicas, records the commit on the
    // leader — the durable commit point — and dies before the fan-out.
    const vos::DtxId id{9999, 2};
    const vos::Epoch ep = cl.tx_alloc_epoch();
    Errno rc = Errno::ok;
    co_await raw_prepare(cl, map, leader, leader, id, ep, oid, "d", "payload", &rc);
    CO_ASSERT_ERRNO(rc, Errno::ok);
    co_await raw_prepare(cl, map, follower, leader, id, ep, oid, "d", "payload", &rc);
    CO_ASSERT_ERRNO(rc, Errno::ok);
    co_await raw_decide(cl, map, leader, engine::kOpTxCommit, id, &rc);
    CO_ASSERT_ERRNO(rc, Errno::ok);
    CO_ASSERT_EQ(shard_of(tb, follower).dtx_state(id), vos::DtxState::prepared);

    // The follower's reaper resolves against the leader's decision table and
    // finishes the commit — the transaction is NOT lost.
    co_await tb.sched().delay(tb.dtx_service(fei).config().orphan_timeout + 2 * sim::kSec);
    CO_ASSERT_EQ(shard_of(tb, follower).dtx_state(id), vos::DtxState::committed);
    CO_ASSERT_TRUE(tb.dtx_service(fei).resyncs_resolved() >= 1);

    // Byte-correct on BOTH replicas: resync applied the staged ops.
    const auto v1 = shard_of(tb, leader).kv_get(oid, "d", "a", vos::kEpochMax);
    const auto v2 = shard_of(tb, follower).kv_get(oid, "d", "a", vos::kEpochMax);
    CO_ASSERT_TRUE(v1.exists && v2.exists);
    CO_ASSERT_EQ(str(v1), "payload");
    CO_ASSERT_EQ(str(v2), "payload");
    client::KvObject kv(cl, kPoolUuid, oid);
    auto r = co_await kv.get("d", "a");
    CO_ASSERT_OK(r);
    CO_ASSERT_EQ(str(*r), "payload");
  });
  tb.stop();
}

TEST(DtxFault, EngineCrashMidCommitResolvesOnRestart) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const auto& map = tb.pool_map();
    const auto oid = client::make_oid(1, ObjClass::RP_2G1);
    const auto layout = client::compute_group_layout(oid, 1, 2, map);
    const std::uint32_t leader = std::min(layout.at(0, 0), layout.at(0, 1));
    const std::uint32_t follower = std::max(layout.at(0, 0), layout.at(0, 1));
    const std::uint32_t fei = engine_index(tb, map.targets[follower].engine);

    const vos::DtxId id{9999, 3};
    const vos::Epoch ep = cl.tx_alloc_epoch();
    Errno rc = Errno::ok;
    co_await raw_prepare(cl, map, leader, leader, id, ep, oid, "d", "mid-commit", &rc);
    CO_ASSERT_ERRNO(rc, Errno::ok);
    co_await raw_prepare(cl, map, follower, leader, id, ep, oid, "d", "mid-commit", &rc);
    CO_ASSERT_ERRNO(rc, Errno::ok);

    // The follower engine crashes between the leader's commit and its own
    // decision RPC. Its VOS (and the prepared entry) survive the crash.
    co_await raw_decide(cl, map, leader, engine::kOpTxCommit, id, &rc);
    CO_ASSERT_ERRNO(rc, Errno::ok);
    tb.crash_engine(fei);
    CO_ASSERT_EQ(shard_of(tb, follower).dtx_state(id), vos::DtxState::prepared);

    // Restart schedules the forced resync sweep: the prepared entry resolves
    // against the leader without waiting out the orphan timeout.
    co_await tb.sched().delay(200 * sim::kMs);
    tb.restart_engine(fei);
    co_await tb.sched().delay(1 * sim::kSec);
    CO_ASSERT_EQ(shard_of(tb, follower).dtx_state(id), vos::DtxState::committed);
    CO_ASSERT_TRUE(tb.dtx_service(fei).resyncs_resolved() >= 1);
    const auto v = shard_of(tb, follower).kv_get(oid, "d", "a", vos::kEpochMax);
    CO_ASSERT_TRUE(v.exists);
    CO_ASSERT_EQ(str(v), "mid-commit");
  });
  tb.stop();
}

TEST(DtxFault, PoolServiceLeaderCrashDoesNotBlock2PC) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const auto& map = tb.pool_map();

    // Pick an S2 object whose both shards avoid the pool-service leader's
    // engine, so the transaction itself needs nothing from that engine.
    const auto lead = tb.svc_leader();
    CO_ASSERT_TRUE(lead.has_value());
    const std::uint32_t svc_engine = *lead;  // replica i lives on engine i
    const net::NodeId avoid = tb.engine(svc_engine).node();
    vos::ObjId oid{};
    bool found = false;
    for (std::uint64_t seq = 1; seq < 500 && !found; ++seq) {
      const auto cand = client::make_oid(seq, ObjClass::S2);
      const auto layout = client::compute_group_layout(cand, 2, 1, map);
      if (map.targets[layout.at(0, 0)].engine != avoid &&
          map.targets[layout.at(1, 0)].engine != avoid) {
        oid = cand;
        found = true;
      }
    }
    CO_ASSERT_TRUE(found);

    // Kill the pool-service leader, then run the transaction while the Raft
    // group is mid-election: 2PC is client-coordinated and must not stall.
    tb.crash_engine(svc_engine);
    CO_ASSERT_ERRNO(co_await cl.run_tx(kPoolUuid,
                                       [&](client::TxHandle& tx) -> CoTask<Errno> {
                                         tx.kv_put(oid, "rank0", "a", bytes("unfazed"));
                                         tx.kv_put(oid, "rank1", "a", bytes("unfazed"));
                                         co_return Errno::ok;
                                       }),
                    Errno::ok);
    client::KvObject kv(cl, kPoolUuid, oid);
    auto r = co_await kv.get("rank0", "a");
    CO_ASSERT_OK(r);
    CO_ASSERT_EQ(str(*r), "unfazed");

    // Snapshot creation needs the pool service: it succeeds once the
    // surviving replicas elect a new leader (svc_command re-discovers it).
    bool snapped = false;
    for (int i = 0; i < 60 && !snapped; ++i) {
      if ((co_await cl.snapshot_create(kPoolUuid)).ok()) snapped = true;
      else co_await tb.sched().delay(50 * sim::kMs);
    }
    CO_ASSERT_TRUE(snapped);
    tb.restart_engine(svc_engine);
    co_await tb.sched().delay(200 * sim::kMs);
  });
  tb.stop();
}

TEST(DtxFault, CrashedParticipantEvictsAndTxRestages) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const auto& map = tb.pool_map();

    // An S1 key placed on engine 3 (no pool-service replica there).
    const net::NodeId want = tb.engine(3).node();
    vos::ObjId oid{};
    bool found = false;
    for (std::uint64_t seq = 1; seq < 500 && !found; ++seq) {
      const auto cand = client::make_oid(seq, ObjClass::S1);
      const auto layout = client::compute_group_layout(cand, 1, 1, map);
      if (map.targets[layout.at(0, 0)].engine == want) {
        oid = cand;
        found = true;
      }
    }
    CO_ASSERT_TRUE(found);

    // The participant is down before the transaction starts: the prepare
    // exhausts its retry budget, SWIM evicts the engine, commit() reports
    // Errno::stale and run_tx restages against the moved map.
    tb.crash_engine(3);
    CO_ASSERT_ERRNO(co_await cl.run_tx(kPoolUuid,
                                       [&](client::TxHandle& tx) -> CoTask<Errno> {
                                         tx.kv_put(oid, "d", "a", bytes("replaced"));
                                         co_return Errno::ok;
                                       }),
                    Errno::ok);
    CO_ASSERT_EQ(cl.pool_map().version, 2u);
    CO_ASSERT_TRUE(testkit::client_sees_excluded(cl, tb.engine(3).node()));
    CO_ASSERT_TRUE(testkit::swim_deaths(tb) >= 1);

    client::KvObject kv(cl, kPoolUuid, oid);
    auto r = co_await kv.get("d", "a");
    CO_ASSERT_OK(r);
    CO_ASSERT_EQ(str(*r), "replaced");
  });
  // The eviction opened a rebuild task; let it settle before teardown.
  EXPECT_TRUE(tb.wait_rebuild());
  tb.stop();
}

TEST(DtxFault, ParticipantOrphanFencesLeaderBeforeLocalAbort) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const auto& map = tb.pool_map();

    // A replicated object whose leader and follower shards live on DIFFERENT
    // engines, so the fence is a real cross-engine RPC.
    vos::ObjId oid{};
    std::uint32_t leader = 0;
    std::uint32_t follower = 0;
    bool found = false;
    for (std::uint64_t seq = 1; seq < 500 && !found; ++seq) {
      const auto cand = client::make_oid(seq, ObjClass::RP_2G1);
      const auto layout = client::compute_group_layout(cand, 1, 2, map);
      const std::uint32_t lo = std::min(layout.at(0, 0), layout.at(0, 1));
      const std::uint32_t hi = std::max(layout.at(0, 0), layout.at(0, 1));
      if (map.targets[lo].engine != map.targets[hi].engine) {
        oid = cand;
        leader = lo;
        follower = hi;
        found = true;
      }
    }
    CO_ASSERT_TRUE(found);
    const std::uint32_t fei = engine_index(tb, map.targets[follower].engine);

    // The coordinator prepares ONLY the follower and dies: the leader never
    // hears of the transaction (its prepare could still be in flight).
    const vos::DtxId id{9999, 7};
    Errno rc = Errno::ok;
    co_await raw_prepare(cl, map, follower, leader, id, cl.tx_alloc_epoch(), oid, "d",
                         "fenced", &rc);
    CO_ASSERT_ERRNO(rc, Errno::ok);
    CO_ASSERT_EQ(shard_of(tb, leader).dtx_state(id), vos::DtxState::unknown);

    // The follower's reaper resolves `unknown` at the leader past the orphan
    // timeout. It must NOT just abort locally: it plants a sticky abort at
    // the leader first, closing the door on any late prepare+commit there.
    co_await tb.sched().delay(tb.dtx_service(fei).config().orphan_timeout + 2 * sim::kSec);
    CO_ASSERT_EQ(shard_of(tb, leader).dtx_state(id), vos::DtxState::aborted);
    CO_ASSERT_EQ(shard_of(tb, follower).dtx_state(id), vos::DtxState::aborted);
    CO_ASSERT_TRUE(tb.dtx_service(fei).orphans_aborted() >= 1);

    // The late coordinator now bounces off the fence at every step: the
    // delayed prepare is refused, and so is a commit attempt — no path
    // reports this transaction committed.
    co_await raw_prepare(cl, map, leader, leader, id, cl.tx_alloc_epoch(), oid, "d",
                         "late", &rc);
    CO_ASSERT_ERRNO(rc, Errno::tx_restart);
    co_await raw_decide(cl, map, leader, engine::kOpTxCommit, id, &rc);
    CO_ASSERT_ERRNO(rc, Errno::tx_restart);
    client::KvObject kv(cl, kPoolUuid, oid);
    CO_ASSERT_ERRNO((co_await kv.get("d", "a")).error(), Errno::no_entry);
  });
  tb.stop();
}

TEST(DtxFault, ExcludedLeaderEngineAbandonsPreparedEntry) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const auto& map = tb.pool_map();
    const net::NodeId doomed = tb.engine(3).node();  // no svc replica there

    // One S1 key on engine 3 (its shard will be the dead leader, and a
    // transaction against it drives the eviction) and one off it (the
    // surviving participant holding the stuck prepared entry).
    vos::ObjId on3{};
    vos::ObjId off3{};
    std::uint32_t lt = 0;
    std::uint32_t ft = 0;
    bool f1 = false;
    bool f2 = false;
    for (std::uint64_t seq = 1; seq < 500 && !(f1 && f2); ++seq) {
      const auto cand = client::make_oid(seq, ObjClass::S1);
      const auto layout = client::compute_group_layout(cand, 1, 1, map);
      const std::uint32_t t = layout.at(0, 0);
      if (!f1 && map.targets[t].engine == doomed) {
        on3 = cand;
        lt = t;
        f1 = true;
      } else if (!f2 && map.targets[t].engine != doomed) {
        off3 = cand;
        ft = t;
        f2 = true;
      }
    }
    CO_ASSERT_TRUE(f1 && f2);
    const std::uint32_t fei = engine_index(tb, map.targets[ft].engine);

    const vos::DtxId id{9999, 8};
    Errno rc = Errno::ok;
    co_await raw_prepare(cl, map, ft, /*leader=*/lt, id, cl.tx_alloc_epoch(), off3, "d",
                         "stuck", &rc);
    CO_ASSERT_ERRNO(rc, Errno::ok);

    // The leader engine dies for good and SWIM evicts it: a transaction
    // against its key exhausts retries, waits out the eviction, and restages
    // against the moved map.
    tb.crash_engine(3);
    CO_ASSERT_ERRNO(co_await cl.run_tx(kPoolUuid,
                                       [&](client::TxHandle& tx) -> CoTask<Errno> {
                                         tx.kv_put(on3, "d", "a", bytes("replaced"));
                                         co_return Errno::ok;
                                       }),
                    Errno::ok);
    CO_ASSERT_EQ(cl.pool_map().version, 2u);
    CO_ASSERT_TRUE(testkit::client_sees_excluded(cl, doomed));
    CO_ASSERT_TRUE(testkit::swim_deaths(tb) >= 1);

    // With the leader engine EXCLUDED in the pool map, the participant's
    // reaper abandons the entry instead of resolving against it forever —
    // the aggregation floor is released.
    co_await tb.sched().delay(8 * sim::kSec);
    CO_ASSERT_EQ(shard_of(tb, ft).dtx_state(id), vos::DtxState::aborted);
    CO_ASSERT_TRUE(tb.dtx_service(fei).orphans_aborted() >= 1);
    CO_ASSERT_EQ(shard_of(tb, ft).dtx_prepared_count(), 0u);
    CO_ASSERT_EQ(shard_of(tb, ft).dtx_min_prepared_epoch(), vos::kEpochMax);
  });
  // The eviction opened a rebuild task; let it settle before teardown.
  EXPECT_TRUE(tb.wait_rebuild());
  tb.stop();
}

TEST(DtxFault, UnreachableLeaderBackstopAbandonsPreparedEntry) {
  Testbed tb(small_cluster());
  tb.start();
  tb.run([&]() -> CoTask<void> {
    auto& cl = tb.client(0);
    CO_ASSERT_OK(co_await cl.cont_create(kPoolUuid, {}));
    const auto& map = tb.pool_map();
    const net::NodeId doomed = tb.engine(3).node();

    vos::ObjId off3{};
    std::uint32_t lt = 0;
    std::uint32_t ft = 0;
    bool f1 = false;
    bool f2 = false;
    for (std::uint64_t seq = 1; seq < 500 && !(f1 && f2); ++seq) {
      const auto cand = client::make_oid(seq, ObjClass::S1);
      const auto layout = client::compute_group_layout(cand, 1, 1, map);
      const std::uint32_t t = layout.at(0, 0);
      if (!f1 && map.targets[t].engine == doomed) {
        lt = t;
        f1 = true;
      } else if (!f2 && map.targets[t].engine != doomed) {
        off3 = cand;
        ft = t;
        f2 = true;
      }
    }
    CO_ASSERT_TRUE(f1 && f2);
    const std::uint32_t fei = engine_index(tb, map.targets[ft].engine);

    const vos::DtxId id{9999, 9};
    Errno rc = Errno::ok;
    co_await raw_prepare(cl, map, ft, /*leader=*/lt, id, cl.tx_alloc_epoch(), off3, "d",
                         "limbo", &rc);
    CO_ASSERT_ERRNO(rc, Errno::ok);

    // The participant loses its path to the leader engine, which is NEVER
    // evicted: a one-way partition cuts participant -> leader only, so SWIM's
    // witnesses (and every other engine) still reach the leader, the pool
    // map keeps reporting it healthy and the exclusion check keeps answering
    // no.
    fault::Schedule cut;
    cut.partition(0, 30 * sim::kSec, {fei}, {3}, /*oneway=*/true);
    tb.inject_faults(cut, /*seed=*/1);

    // Well past the orphan timeout the entry is still prepared — a merely
    // unreachable leader is not authoritative evidence by itself.
    co_await tb.sched().delay(4 * sim::kSec);
    CO_ASSERT_EQ(shard_of(tb, ft).dtx_state(id), vos::DtxState::prepared);

    // But the consecutive-failed-resolve backstop eventually is: the entry
    // cannot pin dtx_min_prepared_epoch (and aggregation) forever. Each
    // failed resolve eats the 100ms RPC timeout on top of the reap tick, so
    // 16 of them take ~7.5s from the prepare.
    co_await tb.sched().delay(6 * sim::kSec);
    CO_ASSERT_EQ(shard_of(tb, ft).dtx_state(id), vos::DtxState::aborted);
    CO_ASSERT_TRUE(tb.dtx_service(fei).orphans_aborted() >= 1);
    CO_ASSERT_EQ(shard_of(tb, ft).dtx_prepared_count(), 0u);
    CO_ASSERT_EQ(shard_of(tb, ft).dtx_min_prepared_epoch(), vos::kEpochMax);
    const auto leader = tb.svc_leader();
    CO_ASSERT_TRUE(leader.has_value());
    CO_ASSERT_EQ(tb.svc_replica(*leader).meta().map_version(), 1u);
    CO_ASSERT_EQ(testkit::swim_deaths(tb), 0u);
  });
  tb.stop();
}

// ---------------------------------------------------------------------------
// Part D — randomized many-client serializability property + replay.

struct TxRecord {
  vos::Epoch epoch = 0;
  bool known = false;  // commit() returned ok; false = in doubt
  std::map<std::string, std::string> writes;
};

/// Deterministic key set for client c's t-th transaction (no RNG: draws
/// from a shared generator would depend on coroutine interleaving).
std::vector<std::string> keys_for(std::uint32_t c, std::uint32_t t, std::uint32_t nkeys) {
  const std::uint32_t k1 = (2 * c + 3 * t) % nkeys;
  std::uint32_t k2 = (c + 5 * t + 1) % nkeys;
  if (k2 == k1) k2 = (k2 + 1) % nkeys;
  return {"key" + std::to_string(k1), "key" + std::to_string(k2)};
}

/// Drives `clients` x `txs` conflicting multi-key transactions against one
/// replicated object while engine 3 crashes and restarts underneath, then
/// checks the final state is the serial order by commit epoch. Returns the
/// scheduler's trace digest for the replay test.
std::uint64_t run_property_scenario(std::uint32_t clients, std::uint32_t txs,
                                    bool check = true) {
  ClusterConfig cfg = small_cluster();
  cfg.client_nodes = clients;
  Testbed tb(cfg);
  tb.start();

  constexpr std::uint32_t kKeys = 6;
  const auto oid = client::make_oid(1, ObjClass::RP_2G2);
  std::vector<TxRecord> recs;

  tb.run([&]() -> CoTask<void> {
    auto& cl0 = tb.client(0);
    CO_ASSERT_OK(co_await cl0.cont_create(kPoolUuid, {}));

    // Engine 3 (no svc replica) crashes mid-run and comes back; a stall on
    // engine 2 jitters service times without losing state.
    tb.inject_faults(fault::Schedule()
                         .crash(150 * sim::kMs, 3)
                         .restart(450 * sim::kMs, 3)
                         .stall(200 * sim::kMs, 2, 0, 50 * sim::kMs),
                     /*seed=*/7);

    sim::WaitGroup wg(tb.sched());
    for (std::uint32_t c = 0; c < clients; ++c) {
      wg.spawn([&, c]() -> CoTask<void> {
        auto& cl = tb.client(c);
        // No stagger: the first wave of transactions must genuinely contend.
        for (std::uint32_t t = 0; t < txs; ++t) {
          const auto keys = keys_for(c, t, kKeys);
          const std::string val = "c" + std::to_string(c) + ".t" + std::to_string(t);
          for (int attempt = 0; attempt < 20; ++attempt) {
            auto tx = cl.tx_begin(kPoolUuid);
            for (const auto& k : keys) tx.kv_put(oid, k, "v", bytes(val));
            const Errno rc = co_await tx.commit();
            if (rc == Errno::ok || (rc != Errno::tx_restart && rc != Errno::stale)) {
              // ok = serial-order point known; anything else = in doubt
              // (resync decides; the write may or may not land).
              TxRecord rec;
              rec.epoch = tx.commit_epoch();
              rec.known = rc == Errno::ok;
              for (const auto& k : keys) rec.writes[k] = val;
              recs.push_back(std::move(rec));
              break;
            }
            co_await tb.sched().delay((c + 1) * sim::kMs);
          }
        }
      });
    }
    co_await wg.wait();

    // Quiesce: eviction-triggered rebuilds finish and the DTX reapers settle
    // every in-doubt transaction before the final read-back.
    co_await tb.sched().delay(5 * sim::kSec);
  });
  EXPECT_TRUE(tb.wait_rebuild());

  std::uint64_t commits = 0;
  std::uint64_t restarts = 0;
  for (std::uint32_t c = 0; c < clients; ++c) {
    commits += tb.client(c).tx_commits();
    restarts += tb.client(c).tx_restarts();
  }

  if (check) {
    tb.run([&]() -> CoTask<void> {
      // Serializability of write transactions: every key holds the value of
      // the highest-commit-epoch transaction that wrote it — the outcome of
      // replaying the committed transactions in epoch order. In-doubt
      // transactions above that epoch may have committed during resync, so
      // their values are also admissible.
      client::KvObject kv(tb.client(0), kPoolUuid, oid);
      for (std::uint32_t k = 0; k < kKeys; ++k) {
        const std::string key = "key" + std::to_string(k);
        vos::Epoch winner_epoch = 0;
        std::string winner;
        bool have = false;
        for (const auto& rec : recs) {
          if (!rec.known || !rec.writes.contains(key)) continue;
          if (rec.epoch > winner_epoch) {
            winner_epoch = rec.epoch;
            winner = rec.writes.at(key);
            have = true;
          }
        }
        std::set<std::string> admissible;
        if (have) admissible.insert(winner);
        for (const auto& rec : recs) {
          if (rec.known || !rec.writes.contains(key)) continue;
          if (rec.epoch > winner_epoch) admissible.insert(rec.writes.at(key));
        }
        auto r = co_await kv.get(key, "v");
        if (r.ok()) {
          CO_ASSERT_TRUE(admissible.contains(str(*r)));
        } else {
          // Only acceptable when no transaction is known to have committed
          // this key.
          CO_ASSERT_TRUE(!have);
        }
      }
    });

    // The schedule must actually have exercised contention and commits.
    EXPECT_GE(commits, std::uint64_t(clients * txs) / 2);
    EXPECT_GE(restarts, 1u);
  }

  tb.stop();
  return tb.sched().trace_hash();
}

TEST(DtxProperty, SerializableUnderConflictsAndFaults) {
  run_property_scenario(/*clients=*/8, /*txs=*/3);
}

TEST(DtxProperty, SameSeedReplaysBitIdentically) {
  const std::uint64_t a = run_property_scenario(4, 2, /*check=*/false);
  const std::uint64_t b = run_property_scenario(4, 2, /*check=*/false);
  EXPECT_EQ(a, b) << "DTX scenario diverged between identical runs";
}

}  // namespace
}  // namespace daosim
