#include "cache/index_cache.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace pod {
namespace {

Fingerprint fp(std::uint64_t id) { return Fingerprint::of_content_id(id); }

TEST(IndexCache, InsertLookup) {
  IndexCache c(16 * IndexCache::kEntryBytes);
  c.insert(fp(1), 42);
  const IndexEntry* e = c.lookup(fp(1));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->pba(), 42u);
}

TEST(IndexCache, CountStartsAtZeroAndIncrements) {
  // Paper Figure 6: Count initialised to 0 on insert, incremented per write
  // hit — used as the popularity / pinning signal.
  IndexCache c(16 * IndexCache::kEntryBytes);
  c.insert(fp(1), 7);
  EXPECT_EQ(c.peek(fp(1))->count(), 0u);
  (void)c.lookup(fp(1));
  (void)c.lookup(fp(1));
  EXPECT_EQ(c.peek(fp(1))->count(), 2u);
}

TEST(IndexCache, PeekDoesNotCount) {
  IndexCache c(16 * IndexCache::kEntryBytes);
  c.insert(fp(1), 7);
  (void)c.peek(fp(1));
  EXPECT_EQ(c.peek(fp(1))->count(), 0u);
  EXPECT_EQ(c.hits(), 0u);
}

TEST(IndexCache, MissCounted) {
  IndexCache c(16 * IndexCache::kEntryBytes);
  EXPECT_EQ(c.lookup(fp(9)), nullptr);
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.0);
}

TEST(IndexCache, LruEvictionIntoGhost) {
  IndexCache c(2 * IndexCache::kEntryBytes);
  c.enable_ghost(8);
  c.insert(fp(1), 1);
  c.insert(fp(2), 2);
  c.insert(fp(3), 3);  // evicts fp(1)
  EXPECT_EQ(c.peek(fp(1)), nullptr);
  EXPECT_TRUE(c.ghost_probe(fp(1)));
  EXPECT_EQ(c.ghost_hits(), 1u);
}

TEST(IndexCache, LookupPromotes) {
  IndexCache c(2 * IndexCache::kEntryBytes);
  c.insert(fp(1), 1);
  c.insert(fp(2), 2);
  (void)c.lookup(fp(1));
  c.insert(fp(3), 3);  // evicts fp(2), not fp(1)
  EXPECT_NE(c.peek(fp(1)), nullptr);
  EXPECT_EQ(c.peek(fp(2)), nullptr);
}

std::vector<std::pair<Fingerprint, Pba>> spilled(const IndexCache& c) {
  std::vector<std::pair<Fingerprint, Pba>> out;
  c.collect_spilled(c.spill_size(), out);
  return out;
}

TEST(IndexCache, EvictionSpillsPayload) {
  IndexCache c(1 * IndexCache::kEntryBytes);
  c.enable_ghost(8);
  c.enable_spill(8);
  c.insert(fp(1), 11);
  c.insert(fp(2), 22);  // evicts fp(1) -> ghost, then spill
  const auto s = spilled(c);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], std::make_pair(fp(1), Pba{11}));
  EXPECT_TRUE(c.ghost_contains(fp(1)));
}

TEST(IndexCache, NoSpillListUntilEnabled) {
  IndexCache c(1 * IndexCache::kEntryBytes);
  c.enable_ghost(8);
  c.insert(fp(1), 11);
  c.insert(fp(2), 22);
  EXPECT_EQ(c.spill_size(), 0u);
  EXPECT_TRUE(c.ghost_contains(fp(1)));
}

TEST(IndexCache, NoShadowListsUntilEnabled) {
  // Engines without iCache build their caches like this: an eviction
  // leaves no key behind, and ghost probes never hit.
  IndexCache c(1 * IndexCache::kEntryBytes);
  c.insert(fp(1), 11);
  c.insert(fp(2), 22);  // evicts fp(1)
  EXPECT_EQ(c.ghost_size(), 0u);
  EXPECT_EQ(c.spill_size(), 0u);
  EXPECT_EQ(c.table().keys(), 1u);
  EXPECT_FALSE(c.ghost_probe(fp(1)));
  EXPECT_EQ(c.ghost_hits(), 0u);
}

/// Puts `f` on disk at `pba` in the cache's table (what Full-Dedupe's
/// on-disk index does on insert).
void put_on_disk(IndexCache& c, const Fingerprint& f, Pba pba) {
  FingerprintTable& t = c.table();
  t.put_on_disk(t.hash_tag(f), f, pba);
}

Pba on_disk_pba(const IndexCache& c, const Fingerprint& f) {
  const FingerprintTable& t = c.table();
  return t.on_disk_pba(t.find(t.hash_tag(f), f));
}

TEST(IndexCache, InvalidateRemoves) {
  // A freed block's entry leaves the cache and the disk in one call.
  IndexCache c(8 * IndexCache::kEntryBytes);
  put_on_disk(c, fp(1), 1);
  c.insert(fp(1), 1);
  EXPECT_TRUE(c.invalidate_if(fp(1), 1));  // it was on disk
  EXPECT_EQ(c.peek(fp(1)), nullptr);
  EXPECT_EQ(on_disk_pba(c, fp(1)), kInvalidPba);
  EXPECT_EQ(c.table().keys(), 0u);
  EXPECT_EQ(c.table().size(FingerprintTable::kOnDisk), 0u);
}

TEST(IndexCache, EvictionKeepsOnDiskKey) {
  // Evicting a resident key that is also on disk is only an unlink: the
  // key stays in the table, on disk, at its PBA.
  IndexCache c(1 * IndexCache::kEntryBytes);
  put_on_disk(c, fp(1), 10);
  c.insert(fp(1), 10);
  c.insert(fp(2), 20);  // evicts fp(1); fp(2) is resident only
  EXPECT_EQ(c.peek(fp(1)), nullptr);
  EXPECT_EQ(on_disk_pba(c, fp(1)), 10u);
  EXPECT_EQ(c.table().keys(), 2u);
  c.insert(fp(3), 30);  // evicts fp(2), which leaves the table
  EXPECT_EQ(c.table().keys(), 2u);
  EXPECT_EQ(on_disk_pba(c, fp(2)), kInvalidPba);
}

TEST(IndexCache, MissReportsOnDiskPbaFromTheSameProbe) {
  IndexCache c(4 * IndexCache::kEntryBytes);
  put_on_disk(c, fp(1), 10);
  Pba on_disk = 0;
  EXPECT_EQ(c.lookup(fp(1), &on_disk), nullptr);  // on disk, not resident
  EXPECT_EQ(on_disk, 10u);
  EXPECT_EQ(c.lookup_tagged(c.hash_tag(fp(2)), fp(2), &on_disk), nullptr);
  EXPECT_EQ(on_disk, kInvalidPba);
  EXPECT_EQ(c.misses(), 2u);
  c.insert(fp(1), 10);  // promotion: resident and on disk, one slot
  on_disk = 0;
  ASSERT_NE(c.lookup(fp(1), &on_disk), nullptr);
  EXPECT_EQ(on_disk, 0u);  // a hit leaves it alone
  EXPECT_EQ(c.table().keys(), 1u);
}

TEST(IndexCache, InvalidateIfMatchingPba) {
  IndexCache c(8 * IndexCache::kEntryBytes);
  c.insert(fp(1), 1);
  c.invalidate_if(fp(1), 1);
  EXPECT_EQ(c.peek(fp(1)), nullptr);
}

TEST(IndexCache, InvalidateIfOtherPbaKeepsEntry) {
  IndexCache c(8 * IndexCache::kEntryBytes);
  c.insert(fp(1), 1);
  c.invalidate_if(fp(1), 2);  // entry already rebound elsewhere
  ASSERT_NE(c.peek(fp(1)), nullptr);
  EXPECT_EQ(c.peek(fp(1))->pba(), 1u);
}

TEST(IndexCache, InvalidateIfAbsentIsNoOp) {
  IndexCache c(1 * IndexCache::kEntryBytes);
  c.enable_ghost(8);
  c.insert(fp(1), 1);
  c.insert(fp(2), 2);  // fp(1) now on the ghost list only
  c.invalidate_if(fp(1), 1);
  c.invalidate_if(fp(9), 1);
  EXPECT_EQ(c.size_entries(), 1u);
  EXPECT_TRUE(c.ghost_contains(fp(1)));  // ghost membership untouched
  EXPECT_NE(c.peek(fp(2)), nullptr);
}

TEST(IndexCache, RebindUpdatesPba) {
  // A key moves to another block by a re-insert (Count back to 0), which
  // moves its one PBA: a resident, on-disk key cannot split in two.
  IndexCache c(8 * IndexCache::kEntryBytes);
  put_on_disk(c, fp(1), 1);
  c.insert(fp(1), 1);
  (void)c.lookup(fp(1));
  put_on_disk(c, fp(1), 99);
  c.insert(fp(1), 99);
  EXPECT_EQ(c.peek(fp(1))->pba(), 99u);
  EXPECT_EQ(c.peek(fp(1))->count(), 0u);
  EXPECT_EQ(on_disk_pba(c, fp(1)), 99u);
  EXPECT_FALSE(c.invalidate_if(fp(1), 1));  // the old block's release
  EXPECT_NE(c.peek(fp(1)), nullptr);
}

TEST(IndexCache, ResizeShrinkEvictsAndSpills) {
  IndexCache c(4 * IndexCache::kEntryBytes);
  c.enable_ghost(16);
  c.enable_spill(16);
  for (std::uint64_t i = 0; i < 4; ++i) c.insert(fp(i), i);
  c.resize(2 * IndexCache::kEntryBytes);
  EXPECT_EQ(c.size_entries(), 2u);
  // LRU first out: fp(0), then fp(1) — so fp(1) is the spill list's MRU.
  const auto s = spilled(c);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], std::make_pair(fp(1), Pba{1}));
  EXPECT_EQ(s[1], std::make_pair(fp(0), Pba{0}));
  EXPECT_TRUE(c.ghost_probe(fp(0)));
}

TEST(IndexCache, CapacityAccounting) {
  IndexCache c(10 * IndexCache::kEntryBytes + 7);
  EXPECT_EQ(c.capacity_bytes(), 10 * IndexCache::kEntryBytes);
}

TEST(IndexCache, MemoryAccountingMatchesPaperEstimate) {
  // §II-B: 1 TB at 4 KB chunks needs ~8 GB of index. With 32 B entries:
  // (1 TB / 4 KB) * 32 B = 8 GiB exactly.
  const std::uint64_t entries_for_1tb = (1ULL << 40) / kBlockSize;
  EXPECT_EQ(entries_for_1tb * IndexCache::kEntryBytes, 8ULL << 30);
}

}  // namespace
}  // namespace pod
