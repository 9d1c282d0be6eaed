#include "cache/read_cache.hpp"

#include <gtest/gtest.h>

namespace pod {
namespace {

TEST(ReadCache, MissThenHit) {
  ReadCache c(16 * kBlockSize);
  EXPECT_FALSE(c.lookup(100));
  c.insert(100);
  EXPECT_TRUE(c.lookup(100));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.5);
}

TEST(ReadCache, CapacityInBlocks) {
  ReadCache c(4 * kBlockSize);
  for (Pba p = 0; p < 8; ++p) c.insert(p);
  EXPECT_EQ(c.size_blocks(), 4u);
  EXPECT_EQ(c.capacity_bytes(), 4 * kBlockSize);
}

TEST(ReadCache, EvictionsEnterGhost) {
  ReadCache c(2 * kBlockSize);
  c.enable_ghost(8);
  c.insert(1);
  c.insert(2);
  c.insert(3);  // evicts 1
  EXPECT_FALSE(c.lookup(1));
  EXPECT_TRUE(c.ghost_probe(1));
  EXPECT_EQ(c.ghost_hits(), 1u);
}

TEST(ReadCache, NoGhostListUntilEnabled) {
  ReadCache c(1 * kBlockSize);
  c.insert(1);
  c.insert(2);  // evicts 1, leaving nothing behind
  EXPECT_EQ(c.ghost_size(), 0u);
  EXPECT_EQ(c.table().keys(), 1u);
  EXPECT_FALSE(c.ghost_probe(1));
  EXPECT_EQ(c.ghost_hits(), 0u);
}

TEST(ReadCache, InvalidateRemoves) {
  ReadCache c(4 * kBlockSize);
  c.insert(5);
  c.invalidate(5);
  EXPECT_FALSE(c.lookup(5));
}

TEST(ReadCache, ResizeShrinkSpillsToGhost) {
  ReadCache c(4 * kBlockSize);
  c.enable_ghost(16);
  for (Pba p = 0; p < 4; ++p) c.insert(p);
  c.resize(1 * kBlockSize);
  EXPECT_EQ(c.size_blocks(), 1u);
  EXPECT_TRUE(c.ghost_probe(0));
  EXPECT_TRUE(c.ghost_probe(1));
  EXPECT_TRUE(c.ghost_probe(2));
  EXPECT_FALSE(c.ghost_probe(3));  // block 3 (MRU) survived in the cache
  EXPECT_TRUE(c.lookup(3));
}

TEST(ReadCache, ResizeGrowAllowsMore) {
  ReadCache c(1 * kBlockSize);
  c.insert(1);
  c.resize(4 * kBlockSize);
  c.insert(2);
  c.insert(3);
  EXPECT_TRUE(c.lookup(1));
  EXPECT_TRUE(c.lookup(2));
  EXPECT_TRUE(c.lookup(3));
}

TEST(ReadCache, ZeroCapacityNeverHits) {
  ReadCache c(0);
  c.enable_ghost(4);
  c.insert(1);
  EXPECT_FALSE(c.lookup(1));
  // But the eviction-on-insert lands in the ghost list.
  EXPECT_TRUE(c.ghost_probe(1));
}

TEST(ReadCache, LookupPromotes) {
  ReadCache c(2 * kBlockSize);
  c.insert(1);
  c.insert(2);
  EXPECT_TRUE(c.lookup(1));  // 1 -> MRU
  c.insert(3);               // evicts 2
  EXPECT_TRUE(c.lookup(1));
  EXPECT_FALSE(c.lookup(2));
}

TEST(ReadCache, HitRateZeroWhenUntouched) {
  ReadCache c(kBlockSize);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.0);
}

}  // namespace
}  // namespace pod
