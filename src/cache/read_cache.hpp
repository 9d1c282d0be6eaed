// Block read cache keyed by physical block address.
//
// Caching by PBA (not LBA) means deduplicated logical blocks that share a
// physical block also share one cache entry — a secondary benefit of
// deduplication the paper's Full-Dedupe mail-trace read win relies on.
// Under iCache, blocks evicted from the cache leave their PBA on a ghost
// list for the cost-benefit estimation; both lists live in one LruTable,
// so an eviction is a list move and a probe answers hit, ghost hit or miss
// at once.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/lru_table.hpp"
#include "common/types.hpp"

namespace pod {

using BlockTable = LruTable<Pba>;

class ReadCache {
 public:
  /// A cache of `capacity_bytes / kBlockSize` blocks without a ghost list;
  /// iCache enables it (enable_ghost).
  explicit ReadCache(std::uint64_t capacity_bytes);

  /// True (and a hit is counted) when the block is cached. Promotes to MRU.
  bool lookup(Pba block) {
    return resolve(table_.find(table_.hash_tag(block), block));
  }

  /// Probes the ghost list without touching the actual cache (consuming
  /// the entry on hit; see LruTable::take_ghost for near hits).
  bool ghost_probe(Pba block) {
    return table_.probe_ghost(table_.hash_tag(block), block);
  }

  // --- tagged API (fused read plans) ---
  //
  // The fused read path hashes each resolved PBA once, prefetches its home
  // group for the whole request, then resolves the (necessarily
  // sequential) per-block probe loop with precomputed tags. Tags are pure
  // functions of the block, so they stay valid across inserts and erasures.

  using Tag = BlockTable::Tag;

  Tag hash_tag(Pba block) const { return table_.hash_tag(block); }

  void prefetch_tag(Tag tag) const { table_.prefetch_tag(tag); }

  /// lookup(), then ghost_probe() on a miss, in one probe.
  bool lookup_tagged(Tag tag, Pba block) {
    const BlockTable::Found f = table_.find(tag, block);
    if (resolve(f)) return true;
    table_.take_ghost(f);
    return false;
  }

  /// insert() with a precomputed tag.
  void insert_tagged(Tag tag, Pba block) { table_.insert(tag, block); }

  /// Admits a block (after a disk read, or a write when write-allocate is
  /// desired). Evictions move onto the ghost list.
  void insert(Pba block) { table_.insert(table_.hash_tag(block), block); }

  /// Drops a block (e.g. its physical location was freed/rewritten).
  void invalidate(Pba block);

  /// Repartitioning hook: changes the budget; shrinking evicts into ghost.
  void resize(std::uint64_t capacity_bytes);

  std::uint64_t capacity_bytes() const {
    return table_.capacity(BlockTable::kResident) * kBlockSize;
  }
  std::size_t size_blocks() const { return table_.size(BlockTable::kResident); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double hit_rate() const {
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total) : 0.0;
  }

  // --- ghost list ---

  /// Gives evicted blocks a ghost list of `capacity_blocks`; until then
  /// evictions leave nothing behind and ghost probes never hit.
  void enable_ghost(std::size_t capacity_blocks) {
    table_.enable_ghost(capacity_blocks);
  }
  std::uint64_t ghost_hits() const { return table_.ghost_hits(); }
  std::uint64_t ghost_near_hits() const { return table_.ghost_near_hits(); }
  /// Sets the "would a one-step-larger cache have kept it" horizon.
  void set_ghost_near_threshold(std::uint64_t blocks) {
    table_.set_ghost_near_threshold(blocks);
  }
  std::size_t ghost_size() const { return table_.size(BlockTable::kGhost); }
  /// Records `block` as just evicted without it having been cached (ghost
  /// signal injection).
  void ghost_remember(Pba block) {
    table_.remember(table_.hash_tag(block), block);
  }

  /// Appends up to `limit` ghost blocks to `out`, most recently evicted
  /// first (iCache's prefetch candidates when the read cache grows).
  void collect_ghosts(std::size_t limit, std::vector<Pba>& out) const;

  /// Prefetch of one ghost block: drops it from the ghost list (no ghost
  /// hit counted), then insert(block).
  void readmit(Pba block) { table_.readmit(table_.hash_tag(block), block); }

  /// The underlying table (list walks for tests).
  const BlockTable& table() const { return table_; }

 private:
  /// Resolves one probe against the resident list: a hit counts and
  /// promotes; a miss counts.
  bool resolve(BlockTable::Found f);

  BlockTable table_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace pod
