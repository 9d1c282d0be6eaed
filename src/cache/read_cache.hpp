// Block read cache keyed by physical block address.
//
// Caching by PBA (not LBA) means deduplicated logical blocks that share a
// physical block also share one cache entry — a secondary benefit of
// deduplication the paper's Full-Dedupe mail-trace read win relies on.
// Maintains a ghost cache of recently evicted PBAs for iCache's
// cost-benefit estimation.
#pragma once

#include <cstdint>

#include "cache/flat_lru_map.hpp"
#include "cache/ghost_cache.hpp"
#include "common/types.hpp"

namespace pod {

class ReadCache {
 public:
  /// @param capacity_bytes        memory budget for cached blocks
  /// @param ghost_capacity_bytes  budget the ghost list *represents*
  ///                              (entries = bytes / kBlockSize)
  ReadCache(std::uint64_t capacity_bytes, std::uint64_t ghost_capacity_bytes);

  /// True (and a hit is counted) when the block is cached. Promotes to MRU.
  bool lookup(Pba block);

  /// Probes the ghost list without touching the actual cache.
  bool ghost_probe(Pba block) { return ghost_.probe_and_consume(block); }

  // --- tagged API (fused read plans; see FlatLruMap) ---
  //
  // The cache and its ghost list share std::hash<Pba>, so the fused read
  // path hashes each resolved PBA once, prefetches both home groups for
  // the whole request, then resolves the (necessarily sequential) per-
  // block probe loop with precomputed tags.

  using Tag = std::uint32_t;

  Tag hash_tag(Pba block) const { return entries_.hash_tag(block); }

  void prefetch_tag(Tag tag) const {
    entries_.prefetch_tag(tag);
    ghost_.prefetch_tag(tag);
  }

  /// lookup() with a precomputed tag.
  bool lookup_tagged(Tag tag, Pba block);

  /// ghost_probe() with a precomputed tag.
  bool ghost_probe_tagged(Tag tag, Pba block) {
    return ghost_.probe_and_consume_tagged(tag, block);
  }

  /// insert() with a precomputed tag.
  void insert_tagged(Tag tag, Pba block);

  /// Admits a block (after a disk read, or a write when write-allocate is
  /// desired). Evictions flow into the ghost list.
  void insert(Pba block);

  /// Drops a block (e.g. its physical location was freed/rewritten).
  void invalidate(Pba block);

  /// Repartitioning hook: changes the budget; shrinking evicts into ghost.
  void resize(std::uint64_t capacity_bytes);

  std::uint64_t capacity_bytes() const { return entries_.capacity() * kBlockSize; }
  std::size_t size_blocks() const { return entries_.size(); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t ghost_hits() const { return ghost_.hits(); }
  double hit_rate() const {
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total) : 0.0;
  }

  GhostCache<Pba>& ghost() { return ghost_; }
  const GhostCache<Pba>& ghost() const { return ghost_; }

 private:
  struct Unit {};
  FlatLruMap<Pba, Unit> entries_;
  GhostCache<Pba> ghost_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace pod
