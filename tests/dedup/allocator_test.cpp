#include "dedup/allocator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pod {
namespace {

Fingerprint fp(std::uint64_t id) { return Fingerprint::of_content_id(id); }

BlockStore::Config small_cfg() {
  BlockStore::Config cfg;
  cfg.logical_blocks = 4096;
  cfg.pool_fraction = 0.5;
  return cfg;
}

TEST(PoolAllocator, BumpAllocatesSequential) {
  PoolAllocator a(1000, 100);
  EXPECT_EQ(a.allocate(), 1000u);
  EXPECT_EQ(a.allocate(), 1001u);
  EXPECT_EQ(a.allocate(), 1002u);
  EXPECT_EQ(a.allocated(), 3u);
}

TEST(PoolAllocator, HintHonoredAtBump) {
  PoolAllocator a(1000, 100);
  (void)a.allocate();
  EXPECT_EQ(a.allocate(1001), 1001u);
}

TEST(PoolAllocator, FreeAndRecycle) {
  PoolAllocator a(1000, 3);
  const Pba p0 = a.allocate();
  const Pba p1 = a.allocate();
  const Pba p2 = a.allocate();
  a.free_block(p1);
  // Pool exhausted; next allocation recycles the freed block.
  EXPECT_EQ(a.allocate(), p1);
  (void)p0;
  (void)p2;
}

TEST(PoolAllocator, HintReusesFreedBlock) {
  PoolAllocator a(1000, 10);
  const Pba p = a.allocate();
  a.free_block(p);
  EXPECT_EQ(a.allocate(p), p);
  // The stale free-list entry must not be handed out twice.
  const Pba q = a.allocate();
  EXPECT_NE(q, p);
}

TEST(PoolAllocator, InPool) {
  PoolAllocator a(1000, 10);
  EXPECT_TRUE(a.in_pool(1000));
  EXPECT_TRUE(a.in_pool(1009));
  EXPECT_FALSE(a.in_pool(999));
  EXPECT_FALSE(a.in_pool(1010));
}

TEST(PoolAllocatorDeathTest, ExhaustionAborts) {
  PoolAllocator a(0, 2);
  (void)a.allocate();
  (void)a.allocate();
  EXPECT_DEATH((void)a.allocate(), "pool exhausted");
}

TEST(BlockStore, FreshWriteGoesHome) {
  BlockStore s(small_cfg());
  const Pba p = s.place_write(42, fp(1));
  EXPECT_EQ(p, 42u);
  EXPECT_EQ(s.resolve(42), 42u);
  EXPECT_TRUE(s.is_live(42));
  EXPECT_FALSE(s.map_table().is_redirected(42));
  EXPECT_EQ(s.refcount(42), 1u);
  EXPECT_EQ(s.live_physical_blocks(), 1u);
}

TEST(BlockStore, UnwrittenIsNotLive) {
  BlockStore s(small_cfg());
  EXPECT_FALSE(s.is_live(7));
  EXPECT_EQ(s.resolve(7), kInvalidPba);
}

TEST(BlockStore, OverwriteInPlace) {
  BlockStore s(small_cfg());
  (void)s.place_write(42, fp(1));
  const Pba p = s.place_write(42, fp(2));
  EXPECT_EQ(p, 42u);
  EXPECT_EQ(*s.fingerprint_of(42), fp(2));
  EXPECT_EQ(s.live_physical_blocks(), 1u);
}

TEST(BlockStore, DedupSharesPhysicalBlock) {
  BlockStore s(small_cfg());
  (void)s.place_write(10, fp(1));
  s.dedup_to(20, 10);
  EXPECT_EQ(s.resolve(20), 10u);
  EXPECT_EQ(s.refcount(10), 2u);
  EXPECT_EQ(s.live_physical_blocks(), 1u);
  EXPECT_EQ(s.live_logical_blocks(), 2u);
  EXPECT_TRUE(s.map_table().is_redirected(20));
}

TEST(BlockStore, SharedHomeRedirectsOwnersWrite) {
  // LBA 10 holds content referenced by LBA 20; a new write to 10 must not
  // clobber the shared block (the paper's consistency rule).
  BlockStore s(small_cfg());
  (void)s.place_write(10, fp(1));
  s.dedup_to(20, 10);
  const Pba p = s.place_write(10, fp(2));
  EXPECT_NE(p, 10u);                       // redirected into the pool
  EXPECT_GE(p, small_cfg().logical_blocks);
  EXPECT_EQ(s.resolve(20), 10u);           // sharer unaffected
  EXPECT_EQ(*s.fingerprint_of(10), fp(1));
  EXPECT_EQ(*s.fingerprint_of(p), fp(2));
  EXPECT_EQ(s.refcount(10), 1u);
}

TEST(BlockStore, RefcountDropsAndFrees) {
  BlockStore s(small_cfg());
  (void)s.place_write(10, fp(1));
  s.dedup_to(20, 10);
  // Overwrite both referers; block 10 should be released.
  (void)s.place_write(20, fp(5));
  (void)s.place_write(10, fp(6));
  EXPECT_EQ(s.refcount(10), 1u);  // now holds fp(6), owned by lba 10
  EXPECT_EQ(*s.fingerprint_of(10), fp(6));
}

TEST(BlockStore, FreedListRecordsReleasedContent) {
  BlockStore s(small_cfg());
  (void)s.place_write(10, fp(1));
  EXPECT_TRUE(s.freed().empty());
  (void)s.place_write(10, fp(2));  // in-place overwrite releases fp(1)
  // The block already holds the new content; the list kept the old one.
  ASSERT_EQ(s.freed().size(), 1u);
  EXPECT_EQ(s.freed()[0].pba, 10u);
  EXPECT_EQ(s.freed()[0].fp, fp(1));
  EXPECT_EQ(*s.fingerprint_of(10), fp(2));
  // Releases accumulate in free order until the owner clears the list.
  s.dedup_to(20, 10);
  (void)s.place_write(30, fp(3));
  s.dedup_to(30, 10);  // block 30 loses its only reference
  s.discard(20);       // block 10 keeps LBAs 10 and 30
  ASSERT_EQ(s.freed().size(), 2u);
  EXPECT_EQ(s.freed()[1].pba, 30u);
  EXPECT_EQ(s.freed()[1].fp, fp(3));
  s.clear_freed();
  EXPECT_TRUE(s.freed().empty());
}

TEST(BlockStore, RestoreListsNothing) {
  BlockStore s(small_cfg());
  s.restore_bind(10, 10, fp(1));
  s.restore_bind(10, 10, fp(2));  // in-place replacement
  s.restore_bind(20, 20, fp(3));
  s.restore_bind(20, 10, fp(2));  // releases block 20
  s.restore_unbind(10);
  s.restore_unbind(20);           // releases block 10
  s.finish_restore();
  EXPECT_EQ(s.live_physical_blocks(), 0u);
  EXPECT_TRUE(s.freed().empty());
}

TEST(BlockStore, WithoutFingerprintsKeepsNone) {
  BlockStore::Config cfg = small_cfg();
  cfg.fingerprints = false;
  BlockStore s(cfg);
  EXPECT_FALSE(s.keeps_fingerprints());
  (void)s.place_write(10, fp(1));
  EXPECT_EQ(s.refcount(10), 1u);
  EXPECT_EQ(s.fingerprint_of(10), nullptr);
  (void)s.place_write(10, fp(2));  // in-place overwrite releases block 10
  ASSERT_EQ(s.freed().size(), 1u);
  EXPECT_EQ(s.freed()[0].pba, 10u);
  EXPECT_EQ(s.freed()[0].fp, Fingerprint{});
  EXPECT_EQ(s.refcount(10), 1u);
}

TEST(BlockStore, DedupToSamePbaIsNoop) {
  BlockStore s(small_cfg());
  (void)s.place_write(10, fp(1));
  s.dedup_to(20, 10);
  s.dedup_to(20, 10);  // same-content overwrite
  EXPECT_EQ(s.refcount(10), 2u);
  EXPECT_EQ(s.live_logical_blocks(), 2u);
}

TEST(BlockStore, ContiguousAllocationForRedirects) {
  BlockStore s(small_cfg());
  // Occupy homes 100..103 via a sharer so writes must redirect.
  (void)s.place_write(100, fp(1));
  (void)s.place_write(101, fp(2));
  (void)s.place_write(102, fp(3));
  s.dedup_to(200, 100);
  s.dedup_to(201, 101);
  s.dedup_to(202, 102);
  Pba prev = kInvalidPba;
  std::vector<Pba> placed;
  for (int i = 0; i < 3; ++i) {
    const Pba p = s.place_write(100 + i, fp(10 + i), prev);
    placed.push_back(p);
    prev = p;
  }
  EXPECT_EQ(placed[1], placed[0] + 1);
  EXPECT_EQ(placed[2], placed[1] + 1);
}

TEST(BlockStore, DiscardReleases) {
  BlockStore s(small_cfg());
  (void)s.place_write(10, fp(1));
  s.discard(10);
  EXPECT_FALSE(s.is_live(10));
  EXPECT_EQ(s.live_physical_blocks(), 0u);
  EXPECT_EQ(s.live_logical_blocks(), 0u);
  s.discard(10);  // idempotent
}

TEST(BlockStore, MapTableBytesGrowWithRedirects) {
  BlockStore s(small_cfg());
  (void)s.place_write(10, fp(1));
  s.dedup_to(20, 10);
  s.dedup_to(21, 10);
  EXPECT_EQ(s.map_table().bytes(), 2 * MapTable::kEntryBytes);
}

TEST(BlockStore, CapacitySavingsFromDedup) {
  BlockStore s(small_cfg());
  // 10 LBAs, all same content: 1 physical block.
  (void)s.place_write(0, fp(1));
  for (Lba l = 1; l < 10; ++l) s.dedup_to(l, 0);
  EXPECT_EQ(s.live_physical_blocks(), 1u);
  EXPECT_EQ(s.live_logical_blocks(), 10u);
}

TEST(BlockStoreDeathTest, PlaceWriteOutOfRangeAborts) {
  BlockStore s(small_cfg());
  EXPECT_DEATH((void)s.place_write(small_cfg().logical_blocks, fp(1)),
               "POD_CHECK");
}

TEST(BlockStoreDeathTest, DedupToDeadPbaAborts) {
  BlockStore s(small_cfg());
  EXPECT_DEATH(s.dedup_to(1, 999), "POD_CHECK");
}

}  // namespace
}  // namespace pod
