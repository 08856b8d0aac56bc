// Versioned value stores for one attribute key (akey):
//   SingleValueStore — one value per epoch (DAOS "single value" records)
//   ArrayStore       — byte-extent records with epoch-resolved visibility
//
// Both keep every version until aggregate() merges epochs, mirroring VOS's
// multi-version design. ArrayStore is organised as an evtree-style ordered
// interval index (see docs/vos.md): non-overlapping byte segments keyed by
// start offset, each holding an epoch-sorted version stack, so visibility
// resolution costs O(log segments + overlapped segments * log versions)
// instead of a whole-history overlay scan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "vos/slice.hpp"
#include "vos/types.hpp"

namespace daosim::vos {

class SingleValueStore {
 public:
  /// Single values are always stored, in either payload mode: they are
  /// small metadata records (DFS entries, HDF5 headers) the stack reads back.
  void put(std::span<const std::byte> value, Epoch epoch);

  /// Latest value visible at `epoch`; `exists` is false if none. A version at
  /// or below `floor` (the newest punch <= epoch on the key's path, 0 for
  /// none) is hidden.
  struct View {
    bool exists = false;
    std::uint64_t size = 0;
    std::span<const std::byte> data{};
  };
  View get(Epoch epoch, Epoch floor = 0) const;

  /// Drops versions shadowed at `upto`: every version <= upto but the
  /// newest, and that one too when it is at or below `floor` (the newest
  /// punch <= upto on the key's path).
  void aggregate(Epoch upto, Epoch floor = 0);

  std::size_t version_count() const { return versions_.size(); }

  /// Epoch of the newest version (0 if empty). Rebuild's epoch-mark diff
  /// and the DTX lost-update check compare against it.
  Epoch latest_epoch() const { return versions_.empty() ? 0 : versions_.back().epoch; }

 private:
  struct Version {
    Epoch epoch;
    std::vector<std::byte> data;
  };
  std::vector<Version> versions_;  // ascending epoch
};

class ArrayStore {
 public:
  /// Records a write of `data.length` bytes at `offset`. In store mode the
  /// store adopts `data`: every version the write leaves slices data.buf, and
  /// no byte is copied, so the caller must not write the buffer afterwards.
  /// A null data.buf (or discard mode) records the extent without payload.
  void write(std::uint64_t offset, Slice data, Epoch epoch, PayloadMode mode);

  /// Punches (logically zeroes / removes) the byte range at `epoch`. A
  /// punch of the whole akey is a record of its node's punch log instead
  /// (see VosContainer): the reads below take its `floor`.
  void punch_range(std::uint64_t offset, std::uint64_t length, Epoch epoch);

  /// Reads `out.size()` bytes at `offset` as visible at `epoch`, writing
  /// every byte of `out`: holes and punched ranges read as zero, and so does
  /// every version at or below `floor` (the newest punch <= epoch on the
  /// key's path, 0 for none). Returns the number of bytes that overlap
  /// written data (the "filled" count).
  std::uint64_t read(std::uint64_t offset, std::span<std::byte> out, Epoch epoch,
                     Epoch floor = 0) const;

  /// Like read(), but appends the visible bytes of [offset, offset + length)
  /// to `out` as slices of the stored buffers (payload-free slices for holes,
  /// punches and metadata-only extents) instead of copying them. The slices
  /// tile the range in order and keep their buffers alive: later writes,
  /// punches and aggregation never change what they read.
  std::uint64_t read_slices(std::uint64_t offset, std::uint64_t length, Epoch epoch,
                            std::vector<Slice>& out, Epoch floor = 0) const;

  /// Highest written offset+length visible at `epoch` above `floor` (0 if
  /// empty/punched).
  std::uint64_t size(Epoch epoch, Epoch floor = 0) const;

  /// What one aggregation pass removed (extents-retired feeds the container's
  /// `extent_merges` stat directly — no before/after rescan needed).
  struct AggResult {
    std::uint64_t extents_retired = 0;  // version records dropped or merged away
    std::uint64_t bytes_flattened = 0;  // payload bytes those records held
  };

  /// Merges all versions <= `upto` into flat non-overlapping extents,
  /// dropping every version at or below `floor` (the newest punch <= upto on
  /// the key's path). Kept survivors retain their original epochs (merged
  /// runs take the max epoch of the run), so latest_epoch() never inflates
  /// past a real write — the rebuild epoch-mark diff and the DTX-conflict
  /// guard that compare against it stay exact across aggregation. No payload
  /// byte is copied, except to compact the last holders of a larger buffer
  /// (docs/vos.md §2).
  AggResult aggregate(Epoch upto, Epoch floor = 0);

  /// Total version records held (every fragment of every epoch).
  std::size_t extent_count() const;
  /// Distinct byte ranges in the interval index.
  std::size_t segment_count() const { return segs_.size(); }
  std::uint64_t stored_bytes() const { return stored_bytes_; }
  /// Bytes of the distinct buffers the stored versions keep alive. At least
  /// stored_bytes(); more while a buffer outlives some of its slices (see
  /// docs/vos.md, "Payload buffers").
  std::uint64_t retained_bytes() const;

  /// Epoch of the newest extent (0 if empty). Rebuild's epoch-mark diff
  /// uses this to skip akeys unchanged since the mark.
  Epoch latest_epoch() const { return max_epoch_; }

  /// Points visibility-probe accounting at an external counter (the owning
  /// container's TreeStats::extent_probes). Each read-side resolution adds
  /// one unit per index seek plus log2(version-stack depth) per overlapped
  /// segment — the polled `vos/extent_probes` telemetry that the endurance
  /// bench tracks per pass. nullptr (the default) disables accounting.
  void bind_probe_counter(std::uint64_t* probes) { probes_ = probes; }

 private:
  /// A version's payload is a slice, [off, off + segment length), of an
  /// immutable byte buffer shared by reference count: a write adopts the
  /// caller's buffer and a split hands both halves the same buffer. A version
  /// that aggregation merged from slices of several buffers keeps them as a
  /// run of pieces in runs_ instead (`merged`, with a null buf). The buffer
  /// carries its own size, so a version stays six words: a seventh (a
  /// separate size field) measurably raised the peak RSS of discard-mode runs.
  struct Version {
    Epoch epoch = 0;
    std::uint64_t seq = 0;  // arrival stamp; the audit keys a write's slices by it
    bool punch = false;     // range punch: reads as hole above older data
    bool merged = false;    // payload is the segment's run in runs_
    BufferRef buf;          // null: no payload (or a merged run's)
    std::uint64_t off = 0;  // slice start within *buf (unused if null)
    bool payload() const { return buf != nullptr || merged; }
  };
  static_assert(sizeof(Version) == 6 * sizeof(std::uint64_t));
  /// One byte range [start, start+length) with its epoch-sorted version
  /// stack. Every version spans the whole segment: writes split segments at
  /// their boundaries before stacking, so per-byte and per-segment
  /// visibility coincide.
  struct Segment {
    std::uint64_t length = 0;
    std::vector<Version> versions;  // ascending epoch, arrival order within one
  };
  /// One piece of a merged run: the store bytes from `pos` up to the next
  /// piece (or the segment end) are *buf from `off`, adopted by write `seq`.
  struct Piece {
    std::uint64_t pos = 0;
    std::uint64_t seq = 0;
    BufferRef buf;
    std::uint64_t off = 0;
  };
  /// A merged version's pieces, ascending by pos, tiling its segment. No two
  /// neighbours lie end to end in one buffer, so a run has two pieces or more.
  using Run = std::vector<Piece>;

  /// Splits the segment containing offset `x` (if any) so `x` becomes a
  /// segment boundary; both halves slice the same payload buffers (a merged
  /// run splits between its pieces), so no byte moves and byte totals are
  /// conserved.
  void split_at(std::uint64_t x);
  /// Hands `run` to the version of the segment at `start`: one piece makes
  /// it a plain version again, more make it a merged one.
  void settle(std::uint64_t start, Version& v, Run run);
  /// Appends the payload of the version of the segment at `start` to `run`,
  /// extending the last piece where the next bytes continue it in one buffer.
  void take_pieces(std::uint64_t start, Version& v, Run& run);
  /// Common write/punch path: stacks one version over
  /// [offset, offset + data.length), slicing data.buf when it is non-null.
  void apply_range(std::uint64_t offset, const Slice& data, Epoch epoch, bool punch);
  /// Keeps a segment's stack ascending when a write (a DTX commit, a rebuild
  /// image) lands below the newest stored epoch; equal epochs keep arrival
  /// order.
  static void insert_version(Segment& s, Version v);
  /// Newest version with epoch <= `epoch` (nullptr when none).
  static const Version* newest_at(const Segment& s, Epoch epoch);
  /// The one visibility resolver behind read() and read_slices(): emits the
  /// ranges that tile [offset, offset + length) in order, as
  /// emit(lo, hi, buf, off): the bytes are *buf from `off`, or zeros when buf
  /// is null (a hole, a punch, a version at or below `floor`, a
  /// metadata-only extent). A merged version emits one range per piece.
  /// Returns the filled byte count (the ranges some visible write covers)
  /// and charges the probe counter.
  template <typename Emit>
  std::uint64_t resolve(std::uint64_t offset, std::uint64_t length, Epoch epoch, Epoch floor,
                        Emit&& emit) const;
  /// Audit (DAOSIM_AUDIT): every payload slice (plain version or piece) lies
  /// inside its buffer, every merged version's run tiles its segment,
  /// stored_bytes_ is the sum of the payload-holding segment lengths, and
  /// the slices one write left in one buffer map store offsets to buffer
  /// offsets by one shift (a split or merge that moves an adopted slice
  /// breaks it).
  void audit_payload() const;

  std::map<std::uint64_t, Segment> segs_;  // keyed by segment start offset
  std::map<std::uint64_t, Run> runs_;      // merged versions' runs, by segment start
  std::uint64_t stored_bytes_ = 0;
  std::uint64_t seq_ = 0;   // next arrival stamp
  Epoch max_epoch_ = 0;     // newest extent epoch
  std::uint64_t* probes_ = nullptr;  // see bind_probe_counter()
};

}  // namespace daosim::vos
