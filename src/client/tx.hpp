// Client-coordinated distributed transactions (the daos_tx_* model): writes
// staged through a TxHandle become visible atomically, on every touched
// shard, at one client-chosen HLC epoch. The handle is the two-phase-commit
// coordinator: commit() prepares on every participating shard (staging the
// ops and locking the keys), then drives the decision — leader shard first,
// whose durable decision record is the commit point — and fans it out.
// Conflicts surface as Errno::tx_restart; DaosClient::run_tx wraps the
// restart loop. Protocol details and the failure matrix: docs/dtx.md.
#pragma once

#include "client/client.hpp"

namespace daosim::client {

class TxHandle {
 public:
  /// Use DaosClient::tx_begin, which allocates the per-client sequence.
  TxHandle(DaosClient& client, vos::Uuid cont, std::uint64_t seq);
  TxHandle(TxHandle&&) = default;
  TxHandle(const TxHandle&) = delete;
  TxHandle& operator=(const TxHandle&) = delete;

  // --- staging (local, no RPCs until commit) ---

  /// Stages a single-value put on every replica of the dkey's group.
  void kv_put(vos::ObjId oid, const vos::Key& dkey, const vos::Key& akey,
              std::span<const std::byte> value);
  /// Stages an array write (chunked into dkeys exactly like
  /// ArrayObject::write). `data` must be `length` bytes or empty
  /// (metadata-only mode).
  void array_write(vos::ObjId oid, std::uint64_t chunk_size, std::uint64_t offset,
                   std::uint64_t length, std::span<const std::byte> data);

  // --- two-phase commit ---

  /// Runs the 2PC: Errno::ok = committed (all staged writes visible at
  /// commit_epoch()); Errno::tx_restart = lost a conflict or raced the
  /// orphan reaper — restart with a fresh handle; Errno::stale = a
  /// participant moved under us — restage against the refreshed map;
  /// anything else = in doubt (the leader's answer was lost; DTX resync
  /// settles the shards either way, and the caller must re-read to learn
  /// the outcome).
  sim::CoTask<Errno> commit();
  /// Drops the staged writes. Purely local before commit() — nothing has
  /// been sent to any shard yet.
  sim::CoTask<Errno> abort();

  bool open() const { return state_ == State::open; }
  bool committed() const { return state_ == State::committed; }
  vos::DtxId id() const { return id_; }
  /// Valid once commit() returned Errno::ok.
  vos::Epoch commit_epoch() const { return epoch_; }
  std::size_t staged_ops() const;
  std::size_t participants() const { return staged_.size(); }

 private:
  enum class State : std::uint8_t { open, committed, aborted, in_doubt };

  void stage(std::uint32_t map_target, engine::TxOpDesc op);
  // `ctx` is the commit-time trace root: the whole 2PC — prepares, the
  // leader decision, the commit/abort fans — assembles into one trace tree.
  sim::CoTask<Errno> decide_one(std::uint32_t map_target, std::uint16_t opcode,
                                sim::TraceContext ctx);
  sim::CoTask<void> decide_quiet(std::uint32_t map_target, std::uint16_t opcode,
                                 sim::TraceContext ctx);
  /// Abort on every participant, failures tolerated (the reaper finishes
  /// the job against the leader's sticky abort record).
  sim::CoTask<void> abort_fan(sim::TraceContext ctx);

  DaosClient& client_;
  vos::Uuid cont_;
  vos::DtxId id_;
  State state_ = State::open;
  vos::Epoch epoch_ = 0;
  std::uint32_t leader_ = 0;  // lowest participating pool-map target
  /// map_target -> staged ops. std::map: the fan order and the leader
  /// choice must be deterministic.
  std::map<std::uint32_t, std::vector<engine::TxOpDesc>> staged_;
};

}  // namespace daosim::client
