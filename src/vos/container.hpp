// VosContainer: one container's object index on one target.
//
// Index structure mirrors VOS: object table -> per-object dkey tree ->
// per-dkey akey tree -> versioned records (single values or array extents).
// Epochs within a container are issued by a monotonic counter (the engine's
// transaction clock).
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "vos/btree.hpp"
#include "vos/dtx.hpp"
#include "vos/types.hpp"
#include "vos/value_store.hpp"

namespace daosim::vos {

class VosContainer {
 public:
  explicit VosContainer(PayloadMode mode) : mode_(mode) {}
  /// Not movable: array stores bind their probe accounting to the address of
  /// tree_stats_ (see akey_node_in), so a moved-from container would leave
  /// dangling counter pointers behind. VosTarget constructs shards in place.
  VosContainer(VosContainer&&) = delete;
  VosContainer& operator=(VosContainer&&) = delete;

  /// Issues the next write epoch (monotonic per container).
  Epoch next_epoch() { return ++epoch_clock_; }
  Epoch current_epoch() const { return epoch_clock_; }

  /// Hybrid-logical-clock receive rule: runs the epoch clock forward to an
  /// externally observed timestamp (never backwards). Engines feed it the
  /// virtual wall clock before issuing write epochs, which places every
  /// shard's epochs — and the client-chosen DTX commit/snapshot epochs drawn
  /// from the same clock — on one comparable timeline.
  void observe_time(Epoch e) {
    if (epoch_clock_ < e) epoch_clock_ = e;
  }

  // --- array records ---
  /// Writes data.length bytes at `offset`, adopting `data` (see
  /// ArrayStore::write).
  void array_write(ObjId oid, const Key& dkey, const Key& akey, std::uint64_t offset,
                   Slice data, Epoch epoch);

  /// One extent of a batched array visit: a dkey-relative byte range plus
  /// its offset into the shared payload buffer.
  struct ArrayExtent {
    Key dkey;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint64_t payload_off = 0;
  };
  /// Batched array write (the engine's single-service-visit entry point):
  /// applies every extent under one object-table descent. Each extent gets
  /// its own epoch from next_epoch(), so versioning is identical to issuing
  /// the extents as separate updates. Every extent's versions slice
  /// `payload` at its payload_off: the store adopts the request buffer and
  /// copies nothing. `payload` is null for metadata-only requests.
  void array_write_extents(ObjId oid, const Key& akey, std::span<const ArrayExtent> extents,
                           const BufferRef& payload);
  /// Batched array read: one object-table descent, then per-extent dkey/akey
  /// probes. Appends each extent's bytes to `*slices` (when non-null), in
  /// extent order, as slices of the stored buffers (see
  /// ArrayStore::read_slices; a missing akey is one payload-free slice), and
  /// writes `fills[i]` with the extent's overlap; returns the total overlap.
  std::uint64_t array_read_extents(ObjId oid, const Key& akey,
                                   std::span<const ArrayExtent> extents,
                                   std::vector<Slice>* slices, std::span<std::uint64_t> fills,
                                   Epoch epoch) const;
  std::uint64_t array_size(ObjId oid, const Key& dkey, const Key& akey, Epoch epoch) const;

  // --- single-value (KV) records ---
  void kv_put(ObjId oid, const Key& dkey, const Key& akey, std::span<const std::byte> value,
              Epoch epoch);
  SingleValueStore::View kv_get(ObjId oid, const Key& dkey, const Key& akey, Epoch epoch) const;

  // --- punch ---
  /// Appends `epoch` to the punch log of the object, of `dkey` or of `akey`
  /// under `dkey` (the keys a scope does not name are ignored), creating an
  /// absent node to hold only its log. Reads at `epoch` or later no longer
  /// see any version at or below it under that node, including versions
  /// that arrive below it afterwards (a DTX commit, a rebuild image). An
  /// object punch also resets the array end hint.
  void punch(ObjId oid, PunchScope scope, const Key& dkey, const Key& akey, Epoch epoch);

  // --- enumeration ---
  /// Dkeys with at least one record visible at `epoch`, in key order.
  std::vector<Key> list_dkeys(ObjId oid, Epoch epoch) const;
  std::vector<Key> list_akeys(ObjId oid, const Key& dkey, Epoch epoch) const;
  std::vector<ObjId> list_objects() const;

  /// Object-level array high-water mark (global array offset), maintained by
  /// the client array API for O(1) size queries (mirrors the DAOS array
  /// metadata record).
  void note_array_end(ObjId oid, std::uint64_t global_end);
  std::uint64_t array_end_hint(ObjId oid) const;

  /// One aggregation pass's outcome (summed over every akey's array store).
  /// `upto` is the epoch actually aggregated to after the DTX-floor clamp.
  struct AggregateResult {
    std::uint64_t extents_retired = 0;
    std::uint64_t bytes_flattened = 0;
    Epoch upto = 0;
  };

  /// Merges record versions <= `upto` (background aggregation service) and
  /// folds each punch log to its newest punch <= `upto`. Never merges across
  /// the oldest prepared-transaction epoch: an undecided DTX must still be
  /// able to commit below everything aggregated so far.
  AggregateResult aggregate(Epoch upto);

  // --- distributed transactions (implemented in dtx.cpp; see docs/dtx.md) ---

  /// Phase 1: stages the entry's writes, invisible to reads, locking every
  /// touched (oid, dkey, akey). Errno::tx_restart on a write-write conflict
  /// with another prepared transaction or with a committed record newer than
  /// the entry's epoch. Idempotent per id; a prepare that arrives after the
  /// decision returns ok (committed) or tx_restart (aborted).
  Errno dtx_prepare(DtxEntry entry);
  /// Phase 2: records the committed decision and applies the staged ops at
  /// the entry's epoch. Idempotent; returns false iff the id was already
  /// decided as aborted (the sticky abort a too-late commit runs into).
  bool dtx_commit(const DtxId& id);
  /// Records the aborted decision and drops the staged ops, leaving no
  /// trace. Idempotent; a no-op when the id already committed.
  void dtx_abort(const DtxId& id);
  /// Resolve query: prepared / committed / aborted / unknown (never seen).
  DtxState dtx_state(const DtxId& id) const;
  const DtxEntry* dtx_find_prepared(const DtxId& id) const;
  /// Prepared ids in DtxId order (deterministic resync/reaper walks).
  std::vector<DtxId> dtx_prepared_ids() const;
  /// Oldest prepared epoch (kEpochMax when none): the aggregation floor.
  Epoch dtx_min_prepared_epoch() const;
  std::size_t dtx_prepared_count() const { return dtx_prepared_.size(); }
  std::size_t dtx_decided_count() const { return dtx_decisions_.size(); }

  /// Exports the object's records newer than `min_epoch` (per this
  /// container's epoch clock; 0 = everything) for replication to a peer
  /// target: the visible image of each akey written since, and a punch
  /// record for each node whose newest punch is newer. Records are emitted
  /// in dkey/akey tree order; no array payload byte is copied.
  std::vector<RecordImage> export_object(ObjId oid, Epoch min_epoch) const;

  std::size_t object_count() const { return objects_.size(); }
  std::uint64_t stored_bytes() const;
  std::uint64_t logical_bytes_written() const { return logical_bytes_; }

  /// Plain index-operation counters polled by the engine's telemetry probes
  /// (VOS itself stays free of the telemetry dependency). `lookups` counts
  /// tree probes (object/dkey/akey), `inserts` node creations,
  /// `extent_merges` array extents retired by aggregate(), and
  /// `extent_probes` evtree visibility probes on read-side resolution (one
  /// per index seek plus log2(version-stack depth) per overlapped segment —
  /// the per-read cost the endurance bench watches stay flat).
  struct TreeStats {
    std::uint64_t lookups = 0;
    std::uint64_t inserts = 0;
    std::uint64_t extent_merges = 0;
    std::uint64_t extent_probes = 0;
    TreeStats& operator+=(const TreeStats& o) {
      lookups += o.lookups;
      inserts += o.inserts;
      extent_merges += o.extent_merges;
      extent_probes += o.extent_probes;
      return *this;
    }
  };
  const TreeStats& tree_stats() const { return tree_stats_; }

 private:
  /// One node's punches (the punch half of a VOS incarnation log),
  /// ascending. The path floor at epoch e is the newest punch <= e on the
  /// object's, the dkey's and the akey's logs; a version at or below it is
  /// hidden, and the value stores take it as their `floor`.
  class PunchLog {
   public:
    void add(Epoch epoch);
    /// Newest punch <= `epoch`; 0 when none.
    Epoch at(Epoch epoch) const;
    Epoch latest() const { return punches_.empty() ? 0 : punches_.back(); }
    /// Drops the punches below the newest one <= `upto`. That one stays, so
    /// a version inserted under it later stays hidden.
    void aggregate(Epoch upto);

   private:
    std::vector<Epoch> punches_;
  };
  struct AkeyNode {
    SingleValueStore sv;
    ArrayStore arr;
    PunchLog punches;
    bool has_sv = false;
    bool has_arr = false;
  };
  struct DkeyNode {
    BPlusTree<Key, std::unique_ptr<AkeyNode>> akeys;
    PunchLog punches;
  };
  struct ObjectNode {
    BPlusTree<Key, std::unique_ptr<DkeyNode>> dkeys;
    PunchLog punches;
    std::uint64_t array_end_hint = 0;
  };
  /// An akey's node (null when absent) and its path floor at the lookup
  /// epoch.
  struct FoundAkey {
    const AkeyNode* node = nullptr;
    Epoch floor = 0;
  };

  ObjectNode& obj(ObjId oid);
  const ObjectNode* find_obj(ObjId oid) const;
  DkeyNode& dkey_node_in(ObjectNode& o, const Key& dkey);
  AkeyNode& akey_node(ObjId oid, const Key& dkey, const Key& akey);
  /// Descends from an already-resolved object node (batched visits resolve
  /// the object once and reuse it across extents).
  AkeyNode& akey_node_in(ObjectNode& o, const Key& dkey, const Key& akey);
  /// `obj_floor` is the object's part of the path floor, read once per
  /// descent.
  FoundAkey find_akey_in(const ObjectNode& o, Epoch obj_floor, const Key& dkey, const Key& akey,
                         Epoch epoch) const;
  FoundAkey find_akey(ObjId oid, const Key& dkey, const Key& akey, Epoch epoch) const;
  /// Whether the akey holds a value visible at `epoch`; `floor` is the
  /// object's and dkey's part of the path floor.
  static bool akey_visible(const AkeyNode& a, Epoch epoch, Epoch floor);

  /// Newest stored epoch (a put or write of the akey, or a punch on its
  /// path); 0 when there is none. The DTX lost-update conflict check.
  Epoch akey_latest_epoch(ObjId oid, const Key& dkey, const Key& akey) const;
  void apply_dtx_op(const DtxOp& op, Epoch epoch);

  PayloadMode mode_;
  Epoch epoch_clock_ = 0;
  std::uint64_t logical_bytes_ = 0;
  /// Staged-but-undecided transactions touching this shard (std::map:
  /// deterministic iteration for conflict checks and resync walks).
  std::map<DtxId, DtxEntry> dtx_prepared_;
  /// Commit/abort decisions (the DAOS committed table): idempotency for
  /// retried phase-2 RPCs and the answer store for resolve queries.
  std::map<DtxId, DtxState> dtx_decisions_;
  mutable TreeStats tree_stats_;  // mutable: lookups count on const reads
  BPlusTree<ObjId, std::unique_ptr<ObjectNode>> objects_;
};

}  // namespace daosim::vos
