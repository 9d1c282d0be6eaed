// Fingerprint index cache: the in-memory "Index table" of §III-B.
//
// Maps hot chunk fingerprints to the physical block that stores the chunk,
// in LRU order, with a per-entry Count that records write popularity
// (paper Figure 6). Entries evicted from the actual cache leave their key
// in a ghost list for iCache's cost-benefit estimation.
//
// Memory accounting: each entry is charged kEntryBytes of the cache's byte
// budget (fingerprint + PBA + count + list/table overhead ~= 32 B, matching
// the paper's 8 GB-per-TB estimate: 1 TB / 4 KB * 32 B = 8 GB).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cache/flat_lru_map.hpp"
#include "cache/ghost_cache.hpp"
#include "common/types.hpp"
#include "hash/fingerprint.hpp"

namespace pod {

struct IndexEntry {
  Pba pba = kInvalidPba;
  std::uint32_t count = 0;
};

class IndexCache {
 public:
  static constexpr std::uint64_t kEntryBytes = 32;

  IndexCache(std::uint64_t capacity_bytes, std::uint64_t ghost_capacity_bytes);

  /// Looks up a fingerprint; on hit increments Count and promotes to MRU.
  /// Returns nullptr on miss.
  const IndexEntry* lookup(const Fingerprint& fp);

  /// Looks up without counting a request hit (administrative reads).
  const IndexEntry* peek(const Fingerprint& fp) const;

  /// Fused single-pass lookup over a request's fingerprint span.
  /// Equivalent to, for every i in order: `out[i] = lookup(fps[i])`, then
  /// `ghost_probe(fps[i])` on a miss — the exact per-chunk sequence of the
  /// scalar engine probe loop, with the same dups, hit/miss/ghost
  /// accounting, entry-map LRU order and ghost consumption order. What it
  /// buys: each fingerprint is hashed ONCE — the entry map and the ghost
  /// list share FingerprintHash, so one tag serves both — and the span
  /// runs as a bounded-lookahead software pipeline: home-group prefetch
  /// (entry map AND ghost) a fixed distance ahead of slot prefetch, itself
  /// ahead of the resolve point. Recency updates collect on a detached
  /// chain published with one splice. Returned pointers are valid until
  /// the next insert.
  void lookup_fused(std::span<const Fingerprint> fps, const IndexEntry** out);

  // --- tagged API (sequential fused loops) ---
  //
  // For probe loops that cannot reorder into a span-wide pass (Full-Dedupe
  // promotes on-disk hits into the cache mid-request): hash each
  // fingerprint once up front, prefetch both home groups, then resolve
  // strictly sequentially with the precomputed tags. Tags are pure
  // functions of the fingerprint and stay valid across inserts, erasures
  // and rehashes.

  using Tag = std::uint32_t;

  Tag hash_tag(const Fingerprint& fp) const { return entries_.hash_tag(fp); }

  /// Prefetches the home groups `fp`'s tag probes (entry map and ghost).
  void prefetch_tag(Tag tag) const {
    entries_.prefetch_tag(tag);
    ghost_.prefetch_tag(tag);
  }

  /// lookup() with a precomputed tag.
  const IndexEntry* lookup_tagged(Tag tag, const Fingerprint& fp);

  /// ghost_probe() with a precomputed tag.
  bool ghost_probe_tagged(Tag tag, const Fingerprint& fp) {
    return ghost_.probe_and_consume_tagged(tag, fp);
  }

  /// insert() with a precomputed tag.
  void insert_tagged(Tag tag, const Fingerprint& fp, Pba pba);

  /// Fingerprints probed through lookup_fused (host-side counter).
  std::uint64_t batch_probes() const { return batch_probes_; }

  /// Probes the ghost list (consuming the entry on hit).
  bool ghost_probe(const Fingerprint& fp) { return ghost_.probe_and_consume(fp); }

  /// Inserts a fresh entry with Count = 0 (paper: Count initialised to 0 on
  /// insert, incremented on each subsequent write hit).
  void insert(const Fingerprint& fp, Pba pba);

  /// Request-scoped bulk insert: equivalent to `insert(fps[i], pbas[i])`
  /// for every i in order — same cache contents and LRU order, same ghost
  /// list state, same evict_hook invocation sequence. The entry map is
  /// mutated through one put_batch (one LRU splice, one eviction sweep),
  /// evicted entries are staged, then the ghost list learns all of them in
  /// one remember_batch and evict_hook fires per entry in eviction order.
  /// The regrouping is state-identical because entry-map updates and
  /// ghost/hook side effects touch disjoint structures (see the scalar
  /// insert: the ghost/hook work keys off the evicted entry only).
  void insert_batch(const Fingerprint* fps, const Pba* pbas, std::size_t n);

  /// Drops an entry whose physical block was freed.
  void invalidate(const Fingerprint& fp);

  /// Rebinds a fingerprint to a new physical location.
  void rebind(const Fingerprint& fp, Pba pba);

  void resize(std::uint64_t capacity_bytes);

  std::uint64_t capacity_bytes() const { return entries_.capacity() * kEntryBytes; }
  std::size_t size_entries() const { return entries_.size(); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t ghost_hits() const { return ghost_.hits(); }
  double hit_rate() const {
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total) : 0.0;
  }

  GhostCache<Fingerprint, FingerprintHash>& ghost() { return ghost_; }
  const GhostCache<Fingerprint, FingerprintHash>& ghost() const { return ghost_; }

  /// Observer invoked for every eviction (capacity pressure or resize);
  /// iCache uses it to spill evicted entries to the swap area so they can
  /// be re-admitted when the index cache grows again.
  std::function<void(const Fingerprint&, const IndexEntry&)> evict_hook;

 private:
  static std::size_t entries_for(std::uint64_t bytes) {
    return static_cast<std::size_t>(bytes / kEntryBytes);
  }

  FlatLruMap<Fingerprint, IndexEntry, FingerprintHash> entries_;
  GhostCache<Fingerprint, FingerprintHash> ghost_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t batch_probes_ = 0;
  // lookup_fused scratch: one tag per fingerprint of the span (capacity
  // reaches the largest request and stays).
  std::vector<Tag> tag_scratch_;
  // insert_batch staging (evictions deferred past the put_batch).
  std::vector<IndexEntry> value_scratch_;
  std::vector<Fingerprint> evicted_fp_scratch_;
  std::vector<IndexEntry> evicted_entry_scratch_;
};

}  // namespace pod
