// Physical block management shared by every engine.
//
// The data region is split into the *home* area (identity-mapped: LBA i's
// natural location is PBA i, as on a plain block device) and an
// over-provision *pool* used when a write cannot go to its home block —
// which happens exactly when the home block still holds content that other
// LBAs reference (the paper's Request Redirector "maintains data
// consistency to prevent the referenced data from being overwritten").
//
// BlockStore tracks, per physical block, a reference count (how many LBAs
// map to it) and, for the engines that read it, the fingerprint of its
// current content, and owns the Map table. It performs no I/O itself;
// engines turn its placement decisions into volume operations. A block
// whose content is released goes on the store's freed list (freed()),
// which the engine drains into its caches once per request.
//
// Host bytes per physical block: 4 (refcount) + 16 (fingerprint, only when
// Config::fingerprints) + 4 per LBA in the Map table, all in OS-zeroed
// pages. Native dedups nothing, so nothing ever revalidates or indexes a
// block's content there, and it keeps no fingerprints.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/mapped.hpp"
#include "common/prefetch.hpp"
#include "common/types.hpp"
#include "dedup/map_table.hpp"
#include "hash/fingerprint.hpp"

namespace pod {

class MetadataJournal;

/// Bump-pointer + free-list allocator over the pool region
/// [pool_start, pool_start + pool_blocks). Prefers contiguous allocation
/// (fresh bump range per request run) and falls back to recycled frees.
class PoolAllocator {
 public:
  PoolAllocator(Pba pool_start, std::uint64_t pool_blocks);

  /// Allocates one block, preferring `hint` (typically prev+1) if free.
  Pba allocate(Pba hint = kInvalidPba);
  void free_block(Pba pba);

  bool in_pool(Pba pba) const {
    return pba >= pool_start_ && pba < pool_start_ + pool_blocks_;
  }
  /// True when `pba` is a pool block currently available for allocation
  /// (never handed out, or sitting on the free list). Used by fsck.
  bool is_free(Pba pba) const;
  /// Rebuilds occupancy (bump pointer, free list) from a liveness
  /// predicate `live(pba) -> bool` — journal recovery restores refcounts
  /// without replaying the original allocation sequence, so the pool
  /// re-derives its state here.
  template <typename LiveFn>
  void reset_occupancy(LiveFn&& live) {
    free_list_.clear();
    free_mask_ = ZeroedArray<std::uint64_t>(free_mask_.size());
    allocated_ = 0;
    Pba top = pool_start_;  // one past the highest live block
    for (Pba p = pool_start_; p < pool_start_ + pool_blocks_; ++p) {
      if (live(p)) {
        ++allocated_;
        top = p + 1;
      }
    }
    bump_ = top;
    // Holes below the bump pointer become the free list; pushed in
    // descending address order so pop_back() recycles ascending.
    for (Pba p = top; p > pool_start_;) {
      --p;
      if (!live(p)) {
        set_freed(static_cast<std::size_t>(p - pool_start_), true);
        free_list_.push_back(p);
      }
    }
  }
  std::uint64_t allocated() const { return allocated_; }
  std::uint64_t pool_blocks() const { return pool_blocks_; }

 private:
  /// Pool-relative bit: block currently in the free list.
  bool freed(std::size_t rel) const {
    return (free_mask_[rel / 64] >> (rel % 64)) & 1u;
  }
  void set_freed(std::size_t rel, bool on) {
    const std::uint64_t bit = std::uint64_t{1} << (rel % 64);
    free_mask_[rel / 64] = on ? free_mask_[rel / 64] | bit
                              : free_mask_[rel / 64] & ~bit;
  }

  Pba pool_start_;
  std::uint64_t pool_blocks_;
  Pba bump_;
  std::vector<Pba> free_list_;
  ZeroedArray<std::uint64_t> free_mask_;  // bits, see freed()
  std::uint64_t allocated_ = 0;
};

class BlockStore {
 public:
  struct Config {
    std::uint64_t logical_blocks = 0;
    /// Pool sizing as a fraction of the logical space.
    double pool_fraction = 0.25;
    /// Keep each live block's fingerprint (fingerprint_of, revalidation,
    /// the freed list's fingerprints). Off: fingerprint_of is always null
    /// and freed blocks carry a zero fingerprint.
    bool fingerprints = true;
  };

  explicit BlockStore(const Config& cfg);

  std::uint64_t logical_blocks() const { return logical_blocks_; }
  /// Home area + pool (what the data region of the volume must hold).
  std::uint64_t data_region_blocks() const {
    return logical_blocks_ + pool_.pool_blocks();
  }

  bool is_live(Lba lba) const;
  /// Physical location of a live LBA (kInvalidPba when never written).
  Pba resolve(Lba lba) const;
  /// Run variant: `out[i] = resolve(lba0 + i)` for i in [0, n) — one call
  /// resolves a read request's whole extent (see MapTable::resolve_run).
  void resolve_run(Lba lba0, std::size_t n, Pba* out) const {
    map_.resolve_run(lba0, n, out);
  }

  /// Places new unique content for `lba`: releases the old mapping, picks
  /// the home block when legal, otherwise redirects into the pool
  /// (contiguous with `prev_pba` when possible). Returns the target PBA the
  /// caller must write.
  Pba place_write(Lba lba, const Fingerprint& fp, Pba prev_pba = kInvalidPba);

  /// Run variant of place_write: places `fps.size()` sequential LBAs
  /// starting at `lba0` (one bounds check for the run) and appends the
  /// targets to `out`. Placement stays strictly sequential — releasing
  /// chunk j's old block can hand chunk k>j its home or pool slot — but
  /// the LBA->PBA binds commute with everything in the loop (each chunk
  /// reads only its own mapping, and refcounts live outside the Map
  /// table), so they are deferred and applied run-at-a-time: an
  /// all-identity or all-sequential-redirect run updates the Map table
  /// through clear_run/set_run instead of per-chunk probes.
  void place_write_run(Lba lba0, std::span<const Fingerprint> fps,
                       std::vector<Pba>& out);

  /// Deduplicates `lba` against existing content at `pba` (no disk write).
  void dedup_to(Lba lba, Pba pba);

  /// Run variant of dedup_to: remaps `fps.size()` sequential LBAs starting
  /// at `lba0` onto sequential physical content starting at `pba0`. Each
  /// chunk revalidates its target's fingerprint immediately before
  /// remapping (remapping an earlier chunk can release a later chunk's
  /// target); failures are reported through `on_skip(k)` and left
  /// untouched. Returns the number of chunks remapped.
  template <typename SkipFn>
  std::size_t remap_run(Lba lba0, Pba pba0, std::span<const Fingerprint> fps,
                        SkipFn&& on_skip) {
    POD_CHECK(lba0 + fps.size() <= logical_blocks_);
    std::size_t remapped = 0;
    for (std::size_t k = 0; k < fps.size(); ++k) {
      const Pba pba = pba0 + k;
      const Fingerprint* live = fingerprint_of(pba);
      if (live == nullptr || !(*live == fps[k])) {
        on_skip(k);
        continue;
      }
      dedup_to(lba0 + k, pba);
      ++remapped;
    }
    return remapped;
  }

  // ---- variable-size-chunk extents (CDC ingest path) ------------------
  // A content-defined chunk of `bytes` payload occupies ceil(bytes/4K)
  // blocks; its fingerprint is replicated across every block of the extent
  // so per-block revalidation (candidate_valid, media-error blast radius)
  // keeps working unchanged. The ingest path is append-only: extents bind
  // fresh, never-written LBAs, so a unique chunk lands at its identity
  // home run and only deduplicated extents consume Map-table entries.

  /// Per-chunk accounting for the CDC path (all zero on the fixed path).
  struct ChunkCounters {
    std::uint64_t chunks_placed = 0;
    std::uint64_t chunks_deduped = 0;
    /// Payload bytes of unique (physically stored) chunks.
    std::uint64_t stored_bytes = 0;
    /// Block-rounding overhead of unique chunks (last-block padding).
    std::uint64_t padding_bytes = 0;
  };

  /// Places one unique chunk: binds [lba0, lba0+nblocks) — all fresh LBAs
  /// — to the identity home run, stamping `fp` on every block. `bytes` is
  /// the chunk payload ((nblocks-1)*4K < bytes <= nblocks*4K). Returns the
  /// head PBA (== lba0).
  Pba place_chunk_write(Lba lba0, std::uint32_t nblocks, std::uint64_t bytes,
                        const Fingerprint& fp);

  /// Deduplicates the fresh logical extent [lba0, +nblocks) against the
  /// physical extent [pba0, +nblocks) holding a chunk fingerprinted `fp`.
  /// Every target block is revalidated first; on any mismatch the call
  /// returns false without mutating anything (the caller writes the chunk
  /// normally — same contract as a failed candidate_valid).
  bool dedup_chunk_to(Lba lba0, Pba pba0, std::uint32_t nblocks,
                      const Fingerprint& fp);

  const ChunkCounters& chunk_counters() const { return chunk_counters_; }

  /// Invalidates an LBA (e.g. TRIM); releases its physical reference.
  void discard(Lba lba);

  /// Run variant of discard: drops `n` sequential LBAs with one bounds
  /// check (sequential internally, so the freed list keeps LBA order).
  void discard_run(Lba lba0, std::uint64_t n);

  std::uint32_t refcount(Pba pba) const {
    return pba < refs_.size() ? refs_[static_cast<std::size_t>(pba)] : 0;
  }
  /// Warms the refcount and fingerprint lines for `pba` ahead of a
  /// candidate_valid/dedup_to burst (engines prefetch a request's dup
  /// targets before revalidating them one by one).
  void prefetch_block(Pba pba) const {
    if (pba < refs_.size()) {
      prefetch_read(&refs_[static_cast<std::size_t>(pba)]);
      if (pba < fps_.size()) prefetch_read(&fps_[static_cast<std::size_t>(pba)]);
    }
  }
  /// Fingerprint of the live content at `pba`, or nullptr (always nullptr
  /// in a store that keeps no fingerprints).
  const Fingerprint* fingerprint_of(Pba pba) const {
    return pba < fps_.size() && refs_[static_cast<std::size_t>(pba)] > 0
               ? &fps_[static_cast<std::size_t>(pba)]
               : nullptr;
  }
  bool keeps_fingerprints() const { return fps_.size() > 0; }

  /// Number of distinct physical blocks holding live data (Figure 10's
  /// "storage capacity used").
  std::uint64_t live_physical_blocks() const { return live_physical_; }
  std::uint64_t live_logical_blocks() const { return live_count_; }

  MapTable& map_table() { return map_; }
  const MapTable& map_table() const { return map_; }

  /// True when `lba` is live at its identity home (no Map-table entry).
  bool identity_mapped(Lba lba) const { return identity_live(lba); }
  const PoolAllocator& pool() const { return pool_; }

  /// Attaches a write-ahead journal: every logical metadata mutation
  /// (bind/unbind) is appended before it is applied. Null detaches.
  void set_journal(MetadataJournal* journal) { journal_ = journal; }

  // ---- crash recovery (fault/fsck.hpp drives these) -------------------
  /// Replays a journaled bind into a freshly constructed store: refcounts
  /// and fingerprints are restored, but nothing goes on the freed list and
  /// the pool allocator is not consulted (see finish_restore).
  void restore_bind(Lba lba, Pba pba, const Fingerprint& fp);
  /// Replays a journaled unbind (discard).
  void restore_unbind(Lba lba);
  /// Completes recovery: re-derives pool occupancy from the restored
  /// refcounts. Must be called once after the last restore_* call.
  void finish_restore();

  /// A physical block whose content was released (its refcount reached
  /// zero), with the fingerprint it held — copied at free time, because
  /// the block can be reused for new content before anyone reads the list
  /// (a zero fingerprint in a store that keeps none).
  struct FreedBlock {
    Pba pba;
    Fingerprint fp;
  };

  /// Blocks released since the last clear_freed(), in free order. Engines
  /// drop them from their caches (the index entry still naming the block,
  /// the cached read of it) once per request; see DedupEngine.
  std::span<const FreedBlock> freed() const { return freed_; }
  void clear_freed() { freed_.clear(); }

 private:
  void unref(Pba pba);
  void bind(Lba lba, Pba pba);
  /// Records `fp` as the content of `pba` (a no-op without fingerprints).
  void set_fingerprint(Pba pba, const Fingerprint& fp) {
    if (pba < fps_.size()) fps_[static_cast<std::size_t>(pba)] = fp;
  }
  /// Applies a run's deferred binds; detects the all-identity and
  /// all-sequential-redirect shapes and uses the Map table's run ops.
  void bind_run(Lba lba0, const Pba* targets, std::size_t n);

  std::uint64_t logical_blocks_;
  PoolAllocator pool_;
  // Identity-live LBAs are tracked inside the Map table's flat array (an
  // in-slot sentinel), so resolve() is a single load — see map_table.hpp.
  MapTable map_;
  bool identity_live(Lba lba) const { return map_.is_identity(lba); }
  // Per-PBA state, direct-indexed over the dense data region
  // [0, data_region_blocks()): refcount and fingerprint of live content
  // (fps_[pba] is meaningful only while refs_[pba] > 0; fps_ is empty when
  // Config::fingerprints is off). The flat layout keeps the replay write
  // path — refcount/unref/place_write are its hottest calls — free of
  // hashing, probing and rehash pauses. Both come zeroed from the OS, so
  // construction touches none of their pages.
  ZeroedArray<std::uint32_t> refs_;
  ZeroedArray<Fingerprint> fps_;
  std::uint64_t live_physical_ = 0;
  std::uint64_t live_count_ = 0;
  ChunkCounters chunk_counters_;
  /// See freed(). Its capacity reaches the most blocks one request frees.
  std::vector<FreedBlock> freed_;
  MetadataJournal* journal_ = nullptr;
  /// True while restore_* replays the journal: unref must not list the
  /// block or touch the pool (occupancy is rebuilt afterwards).
  bool restoring_ = false;
};

}  // namespace pod
