// Fingerprint index cache: the in-memory "Index table" of §III-B.
//
// Maps hot chunk fingerprints to the physical block that stores the chunk,
// in LRU order, with a per-entry Count that records write popularity
// (paper Figure 6). Under iCache, entries evicted from the actual cache
// leave their key in a ghost list for the cost-benefit estimation and
// their payload in a spill list (the swap area) for re-admission. For
// Full-Dedupe, the table also holds the complete on-disk index as a
// fourth membership (dedup/ondisk_index.hpp). Everything lives in one
// LruTable, so an eviction is a list move and a probe answers hit, ghost
// hit, on disk or miss at once.
//
// Memory accounting: each entry is charged kEntryBytes of the cache's byte
// budget (fingerprint + PBA + count + list/table overhead ~= 32 B, matching
// the paper's 8 GB-per-TB estimate: 1 TB / 4 KB * 32 B = 8 GB).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cache/lru_table.hpp"
#include "common/types.hpp"
#include "hash/fingerprint.hpp"

namespace pod {

using FingerprintTable = LruTable<Fingerprint, FingerprintHash>;

class IndexCache {
 public:
  static constexpr std::uint64_t kEntryBytes = 32;

  /// A cache without shadow lists; iCache enables them (enable_ghost,
  /// enable_spill).
  explicit IndexCache(std::uint64_t capacity_bytes);

  /// Looks up a fingerprint; on hit increments Count and promotes to MRU.
  /// Returns nullptr on miss, and then sets `*on_disk`, when given, to the
  /// key's on-disk PBA (kInvalidPba when it is not on disk) from the same
  /// probe.
  const IndexEntry* lookup(const Fingerprint& fp, Pba* on_disk = nullptr);

  /// Looks up without counting a request hit (administrative reads).
  const IndexEntry* peek(const Fingerprint& fp) const;

  /// Fused single-pass lookup over a request's fingerprint span.
  /// Equivalent to, for every i in order: `out[i] = lookup(fps[i])`, then
  /// `ghost_probe(fps[i])` on a miss — the exact per-chunk sequence of the
  /// scalar engine probe loop, with the same dups, hit/miss/ghost
  /// accounting, LRU order and ghost consumption order. What it buys: each
  /// fingerprint is hashed and probed ONCE (one table answers resident,
  /// ghost or absent), and the span runs as a bounded-lookahead software
  /// pipeline: home-group prefetch a fixed distance ahead of slot
  /// prefetch, itself ahead of the resolve point. Returned pointers are
  /// valid until the next insert.
  void lookup_fused(std::span<const Fingerprint> fps, const IndexEntry** out);

  // --- tagged API (sequential fused loops) ---
  //
  // For probe loops that cannot reorder into a span-wide pass (Full-Dedupe
  // promotes on-disk hits into the cache mid-request): hash each
  // fingerprint once up front, prefetch its home group, then resolve
  // strictly sequentially with the precomputed tags. Tags are pure
  // functions of the fingerprint and stay valid across inserts, erasures
  // and rehashes. One tagged probe answers resident, on disk or absent.

  using Tag = FingerprintTable::Tag;

  Tag hash_tag(const Fingerprint& fp) const { return table_.hash_tag(fp); }

  /// Prefetches the home group `fp`'s tag probes.
  void prefetch_tag(Tag tag) const { table_.prefetch_tag(tag); }

  /// lookup_fused() for one key with a precomputed tag: lookup(fp,
  /// on_disk), then ghost_probe() on a miss, in one probe.
  const IndexEntry* lookup_tagged(Tag tag, const Fingerprint& fp,
                                  Pba* on_disk = nullptr);

  /// insert() with a precomputed tag.
  void insert_tagged(Tag tag, const Fingerprint& fp, Pba pba) {
    table_.insert(tag, fp, pba);
  }

  /// Fingerprints probed through lookup_fused (host-side counter).
  std::uint64_t batch_probes() const { return batch_probes_; }

  /// Probes the ghost list (consuming the entry on hit; see
  /// LruTable::take_ghost for near hits).
  bool ghost_probe(const Fingerprint& fp) {
    return table_.probe_ghost(table_.hash_tag(fp), fp);
  }

  /// Inserts a fresh entry with Count = 0 (paper: Count initialised to 0 on
  /// insert, incremented on each subsequent write hit). Evictions move the
  /// LRU entry to the ghost list, then to the spill list.
  void insert(const Fingerprint& fp, Pba pba) {
    table_.insert(table_.hash_tag(fp), fp, pba);
  }

  /// Request-scoped bulk insert: equivalent to `insert(fps[i], pbas[i])`
  /// for every i in order, with every key hashed and its home group
  /// prefetched before the first insert resolves.
  void insert_batch(const Fingerprint* fps, const Pba* pbas, std::size_t n);

  /// A freed block: drops `fp`'s entry, resident and on disk, only if it
  /// still points at `pba` (one probe). Returns whether an on-disk entry
  /// went, which the caller journals.
  bool invalidate_if(const Fingerprint& fp, Pba pba) {
    return table_.drop_entry_if(table_.find(table_.hash_tag(fp), fp), pba);
  }

  void resize(std::uint64_t capacity_bytes);

  std::uint64_t capacity_bytes() const {
    return table_.capacity(FingerprintTable::kResident) * kEntryBytes;
  }
  std::size_t size_entries() const {
    return table_.size(FingerprintTable::kResident);
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double hit_rate() const {
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total) : 0.0;
  }

  // --- ghost list ---

  /// Gives evicted keys a ghost list of `capacity_entries`; until then
  /// evictions leave no key behind and ghost probes never hit.
  void enable_ghost(std::size_t capacity_entries) {
    table_.enable_ghost(capacity_entries);
  }
  std::uint64_t ghost_hits() const { return table_.ghost_hits(); }
  std::uint64_t ghost_near_hits() const { return table_.ghost_near_hits(); }
  /// Sets the "would a one-step-larger cache have kept it" horizon.
  void set_ghost_near_threshold(std::uint64_t entries) {
    table_.set_ghost_near_threshold(entries);
  }
  std::size_t ghost_size() const { return table_.size(FingerprintTable::kGhost); }
  bool ghost_contains(const Fingerprint& fp) const {
    const FingerprintTable::Found f = table_.find(table_.hash_tag(fp), fp);
    return f.slot != FingerprintTable::kNil &&
           table_.on(FingerprintTable::kGhost, f.slot);
  }
  /// Records `fp` as just evicted without it having been resident (ghost
  /// signal injection).
  void ghost_remember(const Fingerprint& fp) {
    table_.remember(table_.hash_tag(fp), fp);
  }

  // --- spill list (iCache swap area) ---

  /// Gives evicted payloads a spill list of `capacity_entries`; until then
  /// evictions leave only the ghost key behind.
  void enable_spill(std::size_t capacity_entries) {
    table_.enable_spill(capacity_entries);
  }
  std::size_t spill_size() const { return table_.size(FingerprintTable::kSpill); }

  /// Appends up to `limit` spilled {fp, pba} pairs to `out`, MRU first.
  void collect_spilled(std::size_t limit,
                       std::vector<std::pair<Fingerprint, Pba>>& out) const;

  /// Swap-in of one spilled payload: drops `fp` from the spill and ghost
  /// lists, then insert(fp, pba).
  void readmit(const Fingerprint& fp, Pba pba) {
    table_.readmit(table_.hash_tag(fp), fp, pba);
  }

  /// The underlying table (list walks for tests and state checks).
  const FingerprintTable& table() const { return table_; }
  /// The same table, for the on-disk index, which keeps its entries there.
  FingerprintTable& table() { return table_; }

 private:
  static std::size_t entries_for(std::uint64_t bytes) {
    return static_cast<std::size_t>(bytes / kEntryBytes);
  }

  /// Resolves one probe against the resident list: a hit counts, bumps
  /// Count and promotes; a miss counts. (Callers consume the ghost entry.)
  const IndexEntry* resolve(FingerprintTable::Found f);

  FingerprintTable table_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t batch_probes_ = 0;
  // lookup_fused / insert_batch scratch: one tag per fingerprint of the
  // span (capacity reaches the largest request and stays).
  std::vector<Tag> tag_scratch_;
};

}  // namespace pod
